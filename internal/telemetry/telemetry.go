// Package telemetry collects the per-operation and per-verdict statistics
// the paper lists among DIP's opportunities ("efficient network telemetry",
// §5) and that the benchmark harness uses to report Figure 2 numbers.
//
// Counters are lock-free atomics so recording from concurrent forwarding
// goroutines never serializes the data plane.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"dip/internal/core"
)

// HistBuckets is the number of log2 latency buckets (1ns … ~32s). Bucket b
// holds samples whose nanosecond latency lies in [2^b, 2^(b+1)−1] (bucket 0
// additionally absorbs 0ns samples); BucketUpper gives the inclusive upper
// edge exporters should publish as a histogram boundary.
const HistBuckets = 36

// histBuckets is the internal alias predating the exported constant.
const histBuckets = HistBuckets

// BucketUpper returns the inclusive upper bound of log2 bucket b.
func BucketUpper(b int) time.Duration {
	if b < 0 {
		b = 0
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return time.Duration(int64(1)<<uint(b+1) - 1)
}

// opStat counts every execution exactly; totalNs and hist hold only the
// executions on timed packets.
type opStat struct {
	count   atomic.Int64
	totalNs atomic.Int64
	hist    [histBuckets]atomic.Int64
}

// timed loads the latency histogram and its sum, the timed executions.
func (s *opStat) timed() (hist [histBuckets]int64, n int64) {
	for b := range hist {
		hist[b] = s.hist[b].Load()
		n += hist[b]
	}
	return hist, n
}

// timeEvery is the share of packets Metrics has timed whoever else samples:
// one per default burst — well under 1 % cost, histograms fill in seconds.
var timeEvery = core.NewEvery(64)

// Event is a recovery or degradation occurrence counted alongside the
// per-packet verdicts: link-level faults (reported by impaired simulator
// links), end-to-end recovery actions (retransmissions, dead letters),
// and state-maintenance work (PIT expiry sweeps). These make graceful
// degradation observable — a fabric that delivers everything but only via
// thousands of retransmits shows it here.
type Event uint8

// Event kinds.
const (
	EventLinkDrop    Event = iota // impaired link discarded a packet
	EventLinkDup                  // impaired link duplicated a packet
	EventLinkReorder              // impaired link reordered a packet
	EventLinkCorrupt              // impaired link corrupted a packet
	EventLinkDown                 // packet hit a scheduled down window
	EventRetransmit               // host retransmitted an interest
	EventDeadLetter               // host gave up on a name (retx cap)
	EventPITExpired               // PIT sweep removed an expired entry
	EventBadEgress                // router asked to send on a missing port
	EventAdmitReject              // ingress admission control refused a packet
	EventShedLow                  // low-priority (bulk) queue full, packet shed
	EventShedHigh                 // high-priority (control) queue full, packet shed
	EventQuarantine               // a packet panicked a worker and was quarantined
	EventWorkerStall              // a forwarding worker exceeded the stall threshold
	EventCwndCut                  // a fetch flow multiplicatively decreased its window
	numEvents
)

// NumEvents is the count of distinct event kinds, for counter arrays.
const NumEvents = int(numEvents)

// String names the event.
func (e Event) String() string {
	switch e {
	case EventLinkDrop:
		return "link-drop"
	case EventLinkDup:
		return "link-dup"
	case EventLinkReorder:
		return "link-reorder"
	case EventLinkCorrupt:
		return "link-corrupt"
	case EventLinkDown:
		return "link-down"
	case EventRetransmit:
		return "retransmit"
	case EventDeadLetter:
		return "dead-letter"
	case EventPITExpired:
		return "pit-expired"
	case EventBadEgress:
		return "bad-egress"
	case EventAdmitReject:
		return "admit-reject"
	case EventShedLow:
		return "shed-low"
	case EventShedHigh:
		return "shed-high"
	case EventQuarantine:
		return "quarantine"
	case EventWorkerStall:
		return "worker-stall"
	case EventCwndCut:
		return "cwnd-cut"
	}
	return "event(?)"
}

// Metrics implements core.Recorder — it folds forwarders' tallies into
// exact per-op, per-drop-reason and per-verdict counters and, at EndPacket,
// a timed packet's latencies into per-op histograms. The zero value is ready
// to use.
type Metrics struct {
	ops      [core.MaxKey + 1]opStat
	drops    [core.NumDropReasons]atomic.Int64
	events   [NumEvents]atomic.Int64
	verdicts [core.NumVerdicts]atomic.Int64
}

// RecordEvent tallies a recovery/degradation event.
func (m *Metrics) RecordEvent(e Event) {
	if int(e) < NumEvents {
		m.events[e].Add(1)
	}
}

// Event returns the current count for one event kind.
func (m *Metrics) Event(e Event) int64 {
	if int(e) >= NumEvents {
		return 0
	}
	return m.events[e].Load()
}

// BeginPacket implements core.Recorder: counters need nothing before the
// verdict, but latencies need the engine to time the packet, so Metrics asks
// for 1 in timeEvery (what a trace or journey sampler claims is timed too).
func (m *Metrics) BeginPacket(ctx *core.ExecContext) {
	if timeEvery.Divides(ctx.Ordinal) {
		ctx.Obs.Timed = true
	}
}

// EndPacket implements core.Recorder: a timed packet's FN latencies go into
// the histograms. Executions are counted by Fold, untimed or not.
func (m *Metrics) EndPacket(ctx *core.ExecContext) {
	o := &ctx.Obs
	if !o.Timed {
		return
	}
	for _, s := range o.Steps[:o.N] {
		m.recordTimed(s.Key, s.Ns)
	}
}

// Fold implements core.Recorder: one add per non-zero counter of the tally.
func (m *Metrics) Fold(t *core.Tally) {
	for _, k := range t.OpKeys() {
		m.ops[k].count.Add(int64(t.Ops[k]))
	}
	for r := range t.Drops {
		if n := t.Drops[r]; n != 0 {
			m.drops[r].Add(int64(n))
		}
	}
	for v := range t.Verdicts {
		if n := t.Verdicts[v]; n != 0 {
			m.verdicts[v].Add(int64(n))
		}
	}
}

// Period implements core.Recorder: Metrics times 1 packet in timeEvery.
func (m *Metrics) Period() uint64 { return timeEvery.N() }

// recordTimed adds one timed execution of operation k that took ns to its
// histogram; the execution itself is counted when its tally folds.
func (m *Metrics) recordTimed(k core.Key, ns int64) {
	if k > core.MaxKey {
		return
	}
	s := &m.ops[k]
	s.totalNs.Add(ns)
	s.hist[bucketOf(ns)].Add(1)
}

// CountVerdict tallies one packet's final fate, for a packet no forwarder
// tallies (a host's receive outcome). received is the sum of the verdict
// buckets, so the two cannot disagree even in a snapshot taken mid-traffic.
func (m *Metrics) CountVerdict(v core.Verdict) {
	if int(v) < core.NumVerdicts {
		m.verdicts[v].Add(1)
	}
}

func bucketOf(ns int64) int {
	b := 0
	for ns > 1 && b < histBuckets-1 {
		ns >>= 1
		b++
	}
	return b
}

// OpSnapshot is one operation's aggregate statistics. Count is every
// execution; Timed of them ran on timed packets and make up TotalNs and
// Hist, the log2 latency histogram (see BucketUpper for bucket edges).
type OpSnapshot struct {
	Key     core.Key
	Count   int64
	Timed   int64
	TotalNs int64
	Hist    [HistBuckets]int64
}

// Mean returns the mean execution time over the timed executions.
func (s OpSnapshot) Mean() time.Duration {
	if s.Timed == 0 {
		return 0
	}
	return time.Duration(s.TotalNs / s.Timed)
}

// Snapshot summarizes everything recorded so far.
type Snapshot struct {
	Ops       []OpSnapshot
	Drops     map[core.DropReason]int64
	Events    map[Event]int64
	Received  int64
	Forwarded int64
	Delivered int64
	Absorbed  int64
	NoAction  int64
	Dropped   int64
}

// Snapshot captures current counters (concurrent-safe, monotone).
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{Drops: map[core.DropReason]int64{}, Events: map[Event]int64{}}
	for k := core.Key(1); k <= core.MaxKey; k++ {
		st := &m.ops[k]
		if st.count.Load() == 0 {
			continue
		}
		// A timed execution reaches the histogram at EndPacket and the count
		// when its burst folds; until then the count is raised to the timed
		// total, so Count ≥ Timed in every snapshot and is exact at burst
		// boundaries.
		op := OpSnapshot{Key: k}
		op.Hist, op.Timed = st.timed()
		op.TotalNs = st.totalNs.Load()
		op.Count = max(st.count.Load(), op.Timed)
		s.Ops = append(s.Ops, op)
	}
	for r := 0; r < core.NumDropReasons; r++ {
		if c := m.drops[r].Load(); c > 0 {
			s.Drops[core.DropReason(r)] = c
		}
	}
	for e := 0; e < NumEvents; e++ {
		if c := m.events[e].Load(); c > 0 {
			s.Events[Event(e)] = c
		}
	}
	s.Forwarded = m.verdicts[core.VerdictForward].Load()
	s.Delivered = m.verdicts[core.VerdictDeliver].Load()
	s.Absorbed = m.verdicts[core.VerdictAbsorb].Load()
	// Continue as a final verdict: every FN ran but none chose an egress (a
	// pure authentication composition with no match FN).
	s.NoAction = m.verdicts[core.VerdictContinue].Load()
	s.Dropped = m.verdicts[core.VerdictDrop].Load()
	s.Received = s.Forwarded + s.Delivered + s.Absorbed + s.NoAction + s.Dropped
	return s
}

// Delta returns the difference s − prev: what happened between two
// snapshots of the same Metrics. Dividing by the wall (or virtual) time
// separating the snapshots turns the monotone totals into rates — the form
// a fleet scraper (or a netsim time series) wants. Ops/Drops/Events present
// in s but absent from prev delta against zero; entries whose delta is zero
// are omitted, mirroring Snapshot's sparse maps.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := Snapshot{
		Drops:     map[core.DropReason]int64{},
		Events:    map[Event]int64{},
		Received:  s.Received - prev.Received,
		Forwarded: s.Forwarded - prev.Forwarded,
		Delivered: s.Delivered - prev.Delivered,
		Absorbed:  s.Absorbed - prev.Absorbed,
		NoAction:  s.NoAction - prev.NoAction,
		Dropped:   s.Dropped - prev.Dropped,
	}
	prevOps := map[core.Key]OpSnapshot{}
	for _, op := range prev.Ops {
		prevOps[op.Key] = op
	}
	for _, op := range s.Ops {
		p := prevOps[op.Key]
		dd := OpSnapshot{Key: op.Key, Count: op.Count - p.Count, Timed: op.Timed - p.Timed, TotalNs: op.TotalNs - p.TotalNs}
		for b := range op.Hist {
			dd.Hist[b] = op.Hist[b] - p.Hist[b]
		}
		if dd.Count != 0 {
			d.Ops = append(d.Ops, dd)
		}
	}
	for r, c := range s.Drops {
		if dc := c - prev.Drops[r]; dc != 0 {
			d.Drops[r] = dc
		}
	}
	for e, c := range s.Events {
		if dc := c - prev.Events[e]; dc != 0 {
			d.Events[e] = dc
		}
	}
	return d
}

// String renders a human-readable report.
func (s Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "packets: received=%d forwarded=%d delivered=%d absorbed=%d no-action=%d dropped=%d\n",
		s.Received, s.Forwarded, s.Delivered, s.Absorbed, s.NoAction, s.Dropped)
	for _, op := range s.Ops {
		mean := "-"
		if op.Timed > 0 {
			mean = op.Mean().String()
		}
		fmt.Fprintf(&b, "  %-12s count=%-8d timed=%-6d mean=%s\n", op.Key, op.Count, op.Timed, mean)
	}
	if len(s.Drops) > 0 {
		reasons := make([]core.DropReason, 0, len(s.Drops))
		for r := range s.Drops {
			reasons = append(reasons, r)
		}
		sort.Slice(reasons, func(i, j int) bool { return reasons[i] < reasons[j] })
		for _, r := range reasons {
			fmt.Fprintf(&b, "  drop %-14s %d\n", r, s.Drops[r])
		}
	}
	if len(s.Events) > 0 {
		events := make([]Event, 0, len(s.Events))
		for e := range s.Events {
			events = append(events, e)
		}
		sort.Slice(events, func(i, j int) bool { return events[i] < events[j] })
		for _, e := range events {
			fmt.Fprintf(&b, "  event %-13s %d\n", e, s.Events[e])
		}
	}
	return b.String()
}
