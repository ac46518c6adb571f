package journey

import (
	"fmt"
	"strings"
	"sync"
)

// FreezeReason says why a journey was frozen into the flight recorder.
type FreezeReason uint8

// Freeze reasons.
const (
	// FreezeDrop: a span reported the packet dropped.
	FreezeDrop FreezeReason = iota
	// FreezeRetx: the consumer retransmitted (or dead-lettered) — the
	// frozen journey is the stalled transmission being given up on.
	FreezeRetx
	// FreezeLatency: the journey's total latency exceeded the running
	// p99.9 of its collector.
	FreezeLatency
	// FreezeCwndCut: a consumer's congestion controller cut its window —
	// the frozen journey is the timed-out transmission that signaled
	// congestion.
	FreezeCwndCut
	numFreezeReasons
)

var freezeNames = [numFreezeReasons]string{"drop", "retx", "latency", "cwnd-cut"}

// String names the freeze reason.
func (r FreezeReason) String() string {
	if int(r) < len(freezeNames) {
		return freezeNames[r]
	}
	return "freeze(?)"
}

// FrozenJourney is one flight-recorder entry: a deep snapshot of the
// journey at freeze time (all hops, full FN step detail), so the anomaly
// survives later eviction or mutation of the live journey.
type FrozenJourney struct {
	Reason FreezeReason
	// At is the freeze timestamp on the journey clock.
	At      int64
	Journey Journey
}

// FlightRecorder keeps the last N anomalous journeys in a bounded ring:
// rare events (one drop in a million packets) survive sampling and
// wraparound because anomalies — not volume — drive what is retained.
type FlightRecorder struct {
	mu     sync.Mutex
	ring   []FrozenJourney
	next   int
	frozen int64
	byKind [numFreezeReasons]int64
}

func newFlightRecorder(size int) *FlightRecorder {
	return &FlightRecorder{ring: make([]FrozenJourney, 0, size)}
}

// freeze snapshots j (under the recorder's own lock, so readers stay safe
// while the collector holds its lock). A journey already frozen for the
// same reason is not re-frozen (a drop span plus its terminal finalize
// would otherwise double-file).
func (f *FlightRecorder) freeze(j *Journey, reason FreezeReason, at int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.ring {
		fr := &f.ring[i]
		if fr.Journey.Trace == j.Trace && fr.Journey.Instance == j.Instance && fr.Reason == reason {
			return
		}
	}
	cp := *j
	cp.Spans = append([]Span(nil), j.Spans...)
	entry := FrozenJourney{Reason: reason, At: at, Journey: cp}
	if len(f.ring) < cap(f.ring) {
		f.ring = append(f.ring, entry)
	} else {
		f.ring[f.next] = entry
		f.next = (f.next + 1) % cap(f.ring)
	}
	f.frozen++
	f.byKind[reason]++
}

// Frozen returns how many journeys have been frozen in total (including
// ones since overwritten by ring wrap).
func (f *FlightRecorder) Frozen() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.frozen
}

// FrozenBy returns the freeze count for one reason.
func (f *FlightRecorder) FrozenBy(r FreezeReason) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if int(r) < len(f.byKind) {
		return f.byKind[r]
	}
	return 0
}

// Entries returns the retained anomalies, oldest first.
func (f *FlightRecorder) Entries() []FrozenJourney {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FrozenJourney, 0, len(f.ring))
	if len(f.ring) == cap(f.ring) {
		out = append(out, f.ring[f.next:]...)
		out = append(out, f.ring[:f.next]...)
	} else {
		out = append(out, f.ring...)
	}
	return out
}

// String renders the entry: a freeze header plus the journey waterfall.
func (e FrozenJourney) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# frozen reason=%s at=%d\n", e.Reason, e.At)
	b.WriteString(e.Journey.String())
	return b.String()
}
