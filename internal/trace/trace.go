// Package trace records sampled per-packet FN journeys — the "what
// happened to this packet" half of the paper's efficient-network-telemetry
// opportunity (§5) that aggregate counters cannot answer. Because every
// protocol in DIP decomposes into the same FN primitive, one instrumentation
// point inside the engine sees IPv4 forwarding, NDN interest aggregation and
// OPT validation alike: a trace record is the ordered list of FN keys the
// packet executed, each with its latency, plus the verdict, drop reason,
// chosen egress ports, and a prefix of the packet bytes for offline
// dissection (dipdump).
//
// The design constraint is the PR-3 zero-alloc forwarding baseline: tracing
// must ride the hot path without serializing or allocating on it.
//
//   - Sampling is 1-in-N on the execution context's private packet ordinal
//     (core.ExecContext.SampleEvery), so the decision touches no shared state,
//     and the engine shows the recorder only the ordinals its stack's period
//     divides; the shared seen-counter is charged from the forwarder's folded
//     packet count (Fold), once per burst. An unsampled packet costs the
//     recorder nothing.
//   - Sampled packets write in place into a fixed-size ring of preallocated
//     records guarded by per-slot sequence locks: a writer takes the slot
//     (version even → odd, by CAS), fills it, and bumps it to even; readers
//     copy and retry/skip on version change. No mutexes, no heap traffic.
//   - Ring overwrite is the drop policy: the newest records win, except at a
//     slot a writer lapped by a whole ring has not sealed yet: the newcomer is
//     dropped. Overwritten counts both (dip_trace_overwritten_total).
//
// A Recorder is a router's one per-packet sampler. It stamps records on the
// clock it is built with and hands every record it seals to its Sink, when
// it has one — internal/journey turns them into router spans — so a packet
// that is both traced and spanned is sampled, claimed and timed once.
//
// The ring must be comfortably larger than the number of concurrently
// sampled packets (workers / N per tick); with the default 1024 slots and
// 1-in-N sampling this holds by orders of magnitude.
package trace

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"dip/internal/core"
)

// MaxSteps bounds the FN steps retained per record; packets executing more
// (the wire allows up to 255) keep the first MaxSteps and count the rest in
// Truncated.
const MaxSteps = 32

// CaptureBytes is the packet prefix captured per record — enough for the
// basic header, a realistic FN list and the locations region, so dipdump
// can dissect the journey's packet offline.
const CaptureBytes = 96

// DefaultRing is the ring size used when NewRecorder is given n < 1.
const DefaultRing = 1024

// DefaultEvery is the sampling divisor used when NewRecorder is given
// every < 1.
const DefaultEvery = 1024

// Step is one executed FN inside a sampled packet's journey.
type Step = core.Step

// Record is one sampled packet's journey. Egress mirrors the context's
// replication bound (maxEgress = 8).
type Record struct {
	// Seq is the global sample sequence number (dense, starts at 0). It is
	// this recorder's monotonic capture sequence: records from one router
	// always sort correctly by Seq regardless of clock quality.
	Seq uint64
	// At is the capture timestamp on the recorder's clock: core.Now, or the
	// clock NewRecorder was given (node.Build passes the Env's Now, so under
	// a simulation it is virtual time). Stitching records from
	// several routers sorts by (At, Seq); with a shared clock that order is
	// exact even when the routers' wall clocks diverge, which per-router wall
	// stamps cannot guarantee.
	At int64
	// InPort is the ingress port the packet arrived on.
	InPort int32
	// Verdict and Reason are the packet's final fate.
	Verdict core.Verdict
	Reason  core.DropReason
	// Steps[:NSteps] are the FNs executed, in execution order (wave order
	// inside a parallel stage).
	Steps  [MaxSteps]Step
	NSteps uint8
	// Truncated counts steps beyond MaxSteps that were executed but not
	// retained.
	Truncated uint8
	// Egress[:NEgr] are the chosen output ports.
	Egress [8]int32
	NEgr   uint8
	// TotalNs is the begin→end bracket around Algorithm 1, measured on
	// core.Now whatever the recorder's clock.
	TotalNs int64
	// Pkt[:PktLen] is the captured packet prefix, as the packet arrived
	// (before any FN ran); PktTotal is the full packet length on the wire.
	Pkt      [CaptureBytes]byte
	PktLen   uint8
	PktTotal uint16
}

// Sink receives each sampled packet's record as EndPacket completes it,
// before the slot is released: the record, the recorder's clock read at
// that moment, and the packet's view as processed. It runs on the
// forwarding goroutine, so it must not block, and it must not keep rec —
// the ring reuses the slot.
type Sink func(rec *Record, end int64, v core.View)

// slot is one ring entry: a record plus its sequence lock.
type slot struct {
	ver atomic.Uint64 // odd = being written
	rec Record
}

// Recorder samples 1-in-every packets into a lock-free ring and forwards
// the per-packet bracket to the wrapped inner recorder (typically a
// *telemetry.Metrics). It implements core.Recorder; install it with
// Engine.SetRecorder (or router.Config.Trace).
type Recorder struct {
	inner  core.Recorder
	every  core.Every
	period uint64 // gcd of every and inner's Period
	mask   uint64
	slots  []slot
	seq    atomic.Uint64 // next sample sequence number
	seen   atomic.Uint64 // packets that passed the sampling decision
	lost   atomic.Uint64 // samples dropped at a slot still owned by a lapped writer
	clock  func() int64  // stamps Record.At and the sink's end
	sink   Sink          // nil: records only go to the ring
}

// NewRecorder builds a sampling trace recorder: every-th packet is traced
// (1 traces everything), ring is the record capacity (rounded up to a power
// of two; < 1 uses DefaultRing). inner, when non-nil, observes every packet
// exactly as if it were installed directly. clock is the node's clock
// (nil is core.Now; a simulation passes its virtual clock, so records from
// every router in one run share one time base); TotalNs stays a core.Now
// measurement either way: At orders records, TotalNs meters the engine.
// sink, when non-nil, receives every record the recorder seals.
func NewRecorder(inner core.Recorder, every, ring int, clock func() int64, sink Sink) *Recorder {
	if every < 1 {
		every = DefaultEvery
	}
	if ring < 1 {
		ring = DefaultRing
	}
	size := 1
	for size < ring {
		size <<= 1
	}
	if clock == nil {
		clock = core.Now
	}
	period := uint64(every)
	if inner != nil {
		period = gcd(period, inner.Period())
	}
	return &Recorder{
		inner:  inner,
		every:  core.NewEvery(uint64(every)),
		period: period,
		mask:   uint64(size - 1),
		slots:  make([]slot, size),
		clock:  clock,
		sink:   sink,
	}
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// BeginPacket implements core.Recorder: it decides whether this packet is
// sampled and, if so, claims a ring slot and captures the packet prefix
// before any FN mutates it. Allocation-free on both paths.
func (r *Recorder) BeginPacket(ctx *core.ExecContext) {
	if r.inner != nil {
		r.inner.BeginPacket(ctx)
	}
	if !ctx.SampleEvery(r.every) {
		return
	}
	seq := r.seq.Add(1) - 1
	sl := &r.slots[seq&r.mask]
	// Even → odd by CAS: ours until EndPacket, unless a lapped writer holds it.
	if v := sl.ver.Load(); v&1 != 0 || !sl.ver.CompareAndSwap(v, v+1) {
		r.lost.Add(1)
		return
	}
	ctx.Obs.Claim(r, seq, 0)
	sl.rec = Record{Seq: seq, At: r.clock(), InPort: int32(ctx.InPort)}
	pkt := ctx.View.Packet()
	sl.rec.PktTotal = uint16(min(len(pkt), 1<<16-1))
	sl.rec.PktLen = uint8(copy(sl.rec.Pkt[:], pkt))
}

// EndPacket implements core.Recorder: it seals the sampled record from the
// packet's observation record and hands it to the sink (a no-op for
// unsampled packets).
func (r *Recorder) EndPacket(ctx *core.ExecContext) {
	if seq, _, ok := ctx.Obs.Release(r); ok {
		o, sl := &ctx.Obs, &r.slots[seq&r.mask]
		sl.rec.TotalNs = core.Now() - o.Begin
		n := copy(sl.rec.Steps[:], o.Steps[:o.N])
		sl.rec.NSteps = uint8(n)
		sl.rec.Truncated = uint8(o.N - n)
		sl.rec.Verdict = ctx.Verdict
		sl.rec.Reason = ctx.Reason
		ports := ctx.EgressPorts()
		sl.rec.NEgr = uint8(len(ports))
		for i, p := range ports {
			sl.rec.Egress[i] = int32(p)
		}
		if r.sink != nil {
			r.sink(&sl.rec, r.clock(), ctx.View)
		}
		sl.ver.Add(1) // even: stable
	}
	if r.inner != nil {
		r.inner.EndPacket(ctx)
	}
}

// Fold implements core.Recorder: the folded packets passed the sampling
// decision, and the tally goes on to the inner recorder.
func (r *Recorder) Fold(t *core.Tally) {
	if t.Packets != 0 {
		r.seen.Add(t.Packets)
	}
	if r.inner != nil {
		r.inner.Fold(t)
	}
}

// Period implements core.Recorder: the gcd of the sampling divisor and the
// inner recorder's period, fixed at construction.
func (r *Recorder) Period() uint64 { return r.period }

// Sampled returns how many packets have been traced so far.
func (r *Recorder) Sampled() uint64 { return r.seq.Load() }

// Seen returns how many packets passed the sampling decision (traced or
// not). A forwarder charges a burst when the burst ends, so a concurrent
// reading may lag by up to one burst per forwarder; once traffic stops it
// is exact.
func (r *Recorder) Seen() uint64 { return r.seen.Load() }

// Overwritten returns how many sampled records have been lost: to ring
// wrap-around, or on arrival at a slot a lapped writer still held.
func (r *Recorder) Overwritten() uint64 {
	s, size := r.seq.Load(), uint64(len(r.slots))
	return r.lost.Load() + max(s, size) - size
}

// RingSize returns the ring capacity in records.
func (r *Recorder) RingSize() int { return len(r.slots) }

// SampleEvery returns the sampling divisor N (1-in-N).
func (r *Recorder) SampleEvery() int { return int(r.every.N()) }

// Snapshot copies out the stable records currently in the ring, oldest
// first. Records being written concurrently are skipped (they will be
// complete by the next call); torn reads are prevented by the per-slot
// sequence locks.
func (r *Recorder) Snapshot() []Record {
	seq := r.seq.Load()
	size := uint64(len(r.slots))
	first := uint64(0)
	if seq > size {
		first = seq - size
	}
	out := make([]Record, 0, seq-first)
	for s := first; s < seq; s++ {
		sl := &r.slots[s&r.mask]
		for attempt := 0; attempt < 3; attempt++ {
			v1 := sl.ver.Load()
			if v1%2 != 0 {
				continue // mid-write; retry
			}
			rec := sl.rec
			if sl.ver.Load() != v1 {
				continue // overwritten underneath us; retry
			}
			// The slot may have been reused for a newer sequence number
			// while we walked; only keep the record we came for.
			if rec.Seq == s {
				out = append(out, rec)
			}
			break
		}
	}
	return out
}

// String renders the record as dipdump-ready text: one '#'-prefixed
// metadata line (echoed by dipdump and pretty-printed when recognized)
// followed by the hex of the captured packet prefix, which dipdump
// dissects like any capture.
func (rec Record) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# trace seq=%d at=%d in=%d verdict=%s reason=%s total=%s",
		rec.Seq, rec.At, rec.InPort, rec.Verdict, rec.Reason, time.Duration(rec.TotalNs))
	if rec.NEgr > 0 {
		b.WriteString(" egress=")
		for i := uint8(0); i < rec.NEgr; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", rec.Egress[i])
		}
	}
	if rec.NSteps > 0 {
		b.WriteString(" steps=")
		for i := uint8(0); i < rec.NSteps; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s:%s", rec.Steps[i].Key, time.Duration(rec.Steps[i].Ns))
		}
	}
	if rec.Truncated > 0 {
		fmt.Fprintf(&b, " truncated=%d", rec.Truncated)
	}
	fmt.Fprintf(&b, " pktlen=%d\n", rec.PktTotal)
	for i := uint8(0); i < rec.PktLen; i++ {
		fmt.Fprintf(&b, "%02x", rec.Pkt[i])
	}
	b.WriteByte('\n')
	return b.String()
}

// Dump writes every stable record in the ring to w in dipdump-ready form:
// pipe it into dipdump to dissect each sampled packet alongside its
// journey metadata.
func (r *Recorder) Dump(w io.Writer) error {
	for _, rec := range r.Snapshot() {
		if _, err := io.WriteString(w, rec.String()); err != nil {
			return err
		}
	}
	return nil
}
