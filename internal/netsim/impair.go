// Link impairments: a seeded, deterministic fault model attachable to any
// simulator Endpoint. The paper's evaluation runs on an ideal lab testbed;
// this file supplies the pathologies real deployments add on top — loss,
// duplication, reordering, bit corruption, delay jitter, and scheduled
// link-down/partition windows — so the recovery machinery layered over DIP
// (interest retransmission, PIT expiry, route withdrawal) has something to
// recover from.
//
// Everything is driven by one math/rand source seeded by the caller, and the
// simulator is single-goroutine, so a run with seed S replays bit-identically.
package netsim

import (
	"math/rand"
	"time"
)

// ImpairEvent classifies one fault decision an impaired link made.
type ImpairEvent uint8

// Impairment event kinds.
const (
	ImpairDrop    ImpairEvent = iota // packet discarded by random loss
	ImpairDup                        // packet delivered twice
	ImpairReorder                    // packet held back past its successors
	ImpairCorrupt                    // one payload byte flipped
	ImpairDown                       // packet discarded inside a down window
	numImpairEvents
)

// NumImpairEvents is the count of distinct impairment events.
const NumImpairEvents = int(numImpairEvents)

// String names the event.
func (e ImpairEvent) String() string {
	switch e {
	case ImpairDrop:
		return "drop"
	case ImpairDup:
		return "dup"
	case ImpairReorder:
		return "reorder"
	case ImpairCorrupt:
		return "corrupt"
	case ImpairDown:
		return "down"
	}
	return "impair(?)"
}

type window struct{ from, to time.Duration }

// Impairment is the fault model for one link direction. Probabilities are
// evaluated independently per packet, in a fixed order (down window, drop,
// corrupt, reorder, duplicate, jitter), so the RNG consumption — and
// therefore the whole fault sequence — is a pure function of the seed and
// the offered packet sequence.
//
// The zero probabilities/durations disable each fault, and an Endpoint with
// no Impairment attached behaves exactly as before.
type Impairment struct {
	rng *rand.Rand

	// DropProb is the probability a packet is silently discarded.
	DropProb float64
	// DupProb is the probability a packet is delivered twice (the copy
	// trails by ReorderDelay, or 1ms if unset).
	DupProb float64
	// ReorderProb is the probability a packet is held back by ReorderDelay
	// so later packets overtake it.
	ReorderProb float64
	// ReorderDelay is how long reordered (and duplicated) packets lag.
	ReorderDelay time.Duration
	// CorruptProb is the probability one byte of the packet is flipped.
	CorruptProb float64
	// Jitter adds a uniform random [0, Jitter) delay to every delivery.
	Jitter time.Duration

	downs []window

	// Observer, when set, is called synchronously for every fault decision
	// (wire it to telemetry). It must not block.
	Observer func(ImpairEvent)

	// Counters, by event kind.
	Drops, Dups, Reorders, Corrupts, DownDrops int64
}

// NewImpairment returns a fault model driven by a deterministic RNG seeded
// with seed. All probabilities start at zero (no faults).
func NewImpairment(seed int64) *Impairment {
	return &Impairment{rng: rand.New(rand.NewSource(seed))}
}

// DownBetween schedules a link-down window: packets offered at times
// t ∈ [from, to) are discarded. Windows may overlap; use one per direction
// on both Endpoints of a link to model a full partition.
func (im *Impairment) DownBetween(from, to time.Duration) *Impairment {
	im.downs = append(im.downs, window{from, to})
	return im
}

// DownAt reports whether the link is inside a down window at t.
func (im *Impairment) DownAt(t time.Duration) bool {
	for _, w := range im.downs {
		if t >= w.from && t < w.to {
			return true
		}
	}
	return false
}

// Faults returns the total number of fault decisions made so far.
func (im *Impairment) Faults() int64 {
	return im.Drops + im.Dups + im.Reorders + im.Corrupts + im.DownDrops
}

func (im *Impairment) note(e ImpairEvent) {
	switch e {
	case ImpairDrop:
		im.Drops++
	case ImpairDup:
		im.Dups++
	case ImpairReorder:
		im.Reorders++
	case ImpairCorrupt:
		im.Corrupts++
	case ImpairDown:
		im.DownDrops++
	}
	if im.Observer != nil {
		im.Observer(e)
	}
}

// verdict is what the model decided for one offered packet.
type verdict struct {
	drop       bool
	copies     int           // 1 normally, 2 when duplicated
	extraDelay time.Duration // reorder lag + jitter
	corruptAt  int           // byte index to flip, -1 for none
}

// decide consumes RNG state for one packet. The evaluation order is part of
// the determinism contract — do not reorder the branches.
func (im *Impairment) decide(now time.Duration, pktLen int) verdict {
	v := verdict{copies: 1, corruptAt: -1}
	if im.DownAt(now) {
		im.note(ImpairDown)
		v.drop = true
		return v
	}
	if im.DropProb > 0 && im.rng.Float64() < im.DropProb {
		im.note(ImpairDrop)
		v.drop = true
		return v
	}
	if im.CorruptProb > 0 && im.rng.Float64() < im.CorruptProb && pktLen > 0 {
		v.corruptAt = im.rng.Intn(pktLen)
		im.note(ImpairCorrupt)
	}
	lag := im.ReorderDelay
	if lag == 0 {
		lag = time.Millisecond
	}
	if im.ReorderProb > 0 && im.rng.Float64() < im.ReorderProb {
		v.extraDelay += lag
		im.note(ImpairReorder)
	}
	if im.DupProb > 0 && im.rng.Float64() < im.DupProb {
		v.copies = 2
		im.note(ImpairDup)
	}
	if im.Jitter > 0 {
		v.extraDelay += time.Duration(im.rng.Int63n(int64(im.Jitter)))
	}
	return v
}

// LinkOption configures an Endpoint at creation without disturbing the
// positional Pipe signature existing callers use.
type LinkOption func(*Endpoint)

// WithImpairment attaches a fault model to the link direction. Sharing one
// *Impairment between both directions is allowed (counters aggregate), but
// gives each direction's fault sequence a dependence on the interleaving of
// traffic; for strictly per-direction determinism attach separate models.
func WithImpairment(im *Impairment) LinkOption {
	return func(e *Endpoint) { e.impair = im }
}

// WithQueueLimit bounds queued transmission time at creation (equivalent to
// setting Endpoint.QueueLimit).
func WithQueueLimit(d time.Duration) LinkOption {
	return func(e *Endpoint) { e.QueueLimit = d }
}
