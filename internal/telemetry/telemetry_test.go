package telemetry

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"dip/internal/core"
)

// RecordOp tallies one timed execution of operation k that took d, as a
// folded tally and EndPacket would between them.
func (m *Metrics) RecordOp(k core.Key, d time.Duration) {
	if k <= core.MaxKey {
		m.ops[k].count.Add(1)
	}
	m.recordTimed(k, d.Nanoseconds())
}

// RecordDrop tallies one dropped packet by reason, as a folded tally would.
func (m *Metrics) RecordDrop(r core.DropReason) {
	if int(r) < core.NumDropReasons {
		m.drops[r].Add(1)
	}
}

func TestRecordAndSnapshot(t *testing.T) {
	m := &Metrics{}
	m.RecordOp(core.KeyFIB, 100*time.Nanosecond)
	m.RecordOp(core.KeyFIB, 300*time.Nanosecond)
	m.RecordOp(core.KeyMAC, time.Microsecond)
	m.RecordDrop(core.DropNoRoute)
	m.CountVerdict(core.VerdictForward)
	m.CountVerdict(core.VerdictDeliver)
	m.CountVerdict(core.VerdictAbsorb)
	m.CountVerdict(core.VerdictDrop)
	m.CountVerdict(core.VerdictContinue)

	s := m.Snapshot()
	if s.Received != 5 || s.Forwarded != 1 || s.Delivered != 1 || s.Absorbed != 1 || s.NoAction != 1 || s.Dropped != 1 {
		t.Errorf("verdicts: %+v", s)
	}
	// Conservation: every received packet lands in exactly one bucket.
	if s.Forwarded+s.Delivered+s.Absorbed+s.NoAction+s.Dropped != s.Received {
		t.Errorf("buckets do not reconcile: %+v", s)
	}
	if len(s.Ops) != 2 {
		t.Fatalf("ops: %+v", s.Ops)
	}
	if s.Ops[0].Key != core.KeyFIB || s.Ops[0].Count != 2 || s.Ops[0].Mean() != 200*time.Nanosecond {
		t.Errorf("FIB stat: %+v", s.Ops[0])
	}
	if s.Drops[core.DropNoRoute] != 1 {
		t.Errorf("drops: %v", s.Drops)
	}
}

// TestFoldCountsExactEndPacketTimesSampled feeds Metrics an untimed and a
// timed packet the way the engine does — every step tallied, the packet's
// record shown to EndPacket — and folds: both count every step, only the
// timed one reaches the latency side (Timed, TotalNs, Hist, Mean), and the
// report says so. Between a timed packet's EndPacket and its fold, Count
// does not fall below Timed.
func TestFoldCountsExactEndPacketTimesSampled(t *testing.T) {
	m := &Metrics{}
	var ctx core.ExecContext
	ctx.Obs.N = 2
	ctx.Obs.Steps[0] = core.Step{Key: core.KeyFIB}
	ctx.Obs.Steps[1] = core.Step{Key: core.KeyMAC}
	var tally core.Tally
	packet := func() {
		for _, s := range ctx.Obs.Steps[:ctx.Obs.N] {
			tally.CountOp(s.Key)
		}
		m.EndPacket(&ctx)
	}
	packet()
	m.Fold(&tally)
	s := m.Snapshot()
	if len(s.Ops) != 2 || s.Ops[0].Count != 1 || s.Ops[0].Timed != 0 || s.Ops[0].TotalNs != 0 || s.Ops[0].Mean() != 0 {
		t.Fatalf("untimed packet: %+v", s.Ops)
	}
	if out := s.String(); !strings.Contains(out, "timed=0") || !strings.Contains(out, "mean=-") {
		t.Errorf("report of untimed ops:\n%s", out)
	}

	tally = core.Tally{}
	ctx.Obs.Timed = true
	ctx.Obs.Steps[0].Ns, ctx.Obs.Steps[1].Ns = 300, 1000
	packet()
	packet()
	if fib := m.Snapshot().Ops[0]; fib.Count != 2 || fib.Timed != 2 {
		t.Errorf("FIB before the fold, 1 folded and 2 timed: count %d timed %d, want 2 and 2", fib.Count, fib.Timed)
	}
	ctx.Obs.Timed = false
	packet()
	m.Fold(&tally)
	s = m.Snapshot()
	fib := s.Ops[0]
	if fib.Count != 4 || fib.Timed != 2 || fib.TotalNs != 600 || fib.Mean() != 300 || fib.Hist[bucketOf(300)] != 2 {
		t.Errorf("FIB after 2 timed of 4: %+v", fib)
	}
	if out := s.String(); !strings.Contains(out, "timed=2") || !strings.Contains(out, "mean=300ns") {
		t.Errorf("report:\n%s", out)
	}
}

func TestMeanOfZero(t *testing.T) {
	var s OpSnapshot
	if s.Mean() != 0 {
		t.Error("Mean of empty must be 0")
	}
}

func TestOutOfRangeKeysIgnored(t *testing.T) {
	m := &Metrics{}
	m.RecordOp(core.MaxKey+1, time.Second)
	m.RecordDrop(core.DropReason(200))
	s := m.Snapshot()
	if len(s.Ops) != 0 || len(s.Drops) != 0 {
		t.Error("out-of-range records counted")
	}
}

// TestPercentileBucketEdges pins the bucket edges every percentile read
// off the op histogram (the snapshot, or histogram_quantile over the
// /metrics `le` labels) rests on: a sample lands in the log2 bucket whose
// inclusive *upper* bound BucketUpper returns. bucketOf puts
// ns ∈ [2^b, 2^(b+1)−1] in bucket b, so 2ns and 3ns share bucket 1 (upper
// bound 3ns) while 4ns opens bucket 2 (upper bound 7ns).
func TestPercentileBucketEdges(t *testing.T) {
	cases := []struct {
		ns   int64
		want time.Duration
	}{
		{1, 1},  // bucket 0: [0,1]
		{2, 3},  // bucket 1: [2,3] — upper bound, not the lower edge 2
		{3, 3},  // same bucket as 2ns, same bound
		{4, 7},  // bucket 2: [4,7] — must differ from 2ns/3ns
		{7, 7},  //
		{8, 15}, // bucket 3
	}
	// bound is the upper edge of the one bucket a single sample of ns fills.
	bound := func(ns int64) time.Duration {
		m := &Metrics{}
		m.RecordOp(core.KeyFIB, time.Duration(ns))
		s := m.Snapshot()
		for b, n := range s.Ops[0].Hist {
			if n == 1 {
				return BucketUpper(b)
			}
		}
		t.Fatalf("a %dns sample filled no bucket: %+v", ns, s.Ops[0])
		return 0
	}
	for _, c := range cases {
		if got := bound(c.ns); got != c.want {
			t.Errorf("a single %dns sample lands under bound %v, want %v (bucket upper bound)", c.ns, got, c.want)
		}
	}
	// 2ns and 3ns land in the same bucket and must report the same bound; 4ns must not.
	b2, b3, b4 := bound(2), bound(3), bound(4)
	if b2 != b3 {
		t.Errorf("2ns and 3ns report different bounds: %v vs %v", b2, b3)
	}
	if b4 == b2 {
		t.Errorf("4ns reports the same bound as 2ns (%v): bucket edge misplaced", b4)
	}
}

// TestSnapshotReconciliation asserts the summary-line identity the report
// prints: received = forwarded + delivered + absorbed + no-action + dropped,
// including when drops occurred.
func TestSnapshotReconciliation(t *testing.T) {
	m := &Metrics{}
	for i := 0; i < 7; i++ {
		m.CountVerdict(core.VerdictForward)
	}
	for i := 0; i < 3; i++ {
		m.CountVerdict(core.VerdictDeliver)
	}
	for i := 0; i < 2; i++ {
		m.CountVerdict(core.VerdictAbsorb)
	}
	m.CountVerdict(core.VerdictContinue)
	for i := 0; i < 5; i++ {
		m.RecordDrop(core.DropNoRoute) // reason breakdown
		m.CountVerdict(core.VerdictDrop)
	}
	s := m.Snapshot()
	if s.Received != 18 {
		t.Fatalf("received = %d, want 18", s.Received)
	}
	if sum := s.Forwarded + s.Delivered + s.Absorbed + s.NoAction + s.Dropped; sum != s.Received {
		t.Errorf("received=%d does not reconcile with verdict sum %d: %+v", s.Received, sum, s)
	}
	if s.Dropped != 5 || s.Drops[core.DropNoRoute] != 5 {
		t.Errorf("dropped=%d drops=%v, want 5 and 5", s.Dropped, s.Drops)
	}
	out := s.String()
	if !strings.Contains(out, "dropped=5") {
		t.Errorf("summary line missing dropped= total:\n%s", out)
	}
}

func TestSnapshotDelta(t *testing.T) {
	m := &Metrics{}
	m.RecordOp(core.KeyFIB, 100*time.Nanosecond)
	m.CountVerdict(core.VerdictForward)
	m.RecordEvent(EventRetransmit)
	prev := m.Snapshot()

	m.RecordOp(core.KeyFIB, 300*time.Nanosecond)
	m.RecordOp(core.KeyMAC, time.Microsecond)
	m.CountVerdict(core.VerdictForward)
	m.RecordDrop(core.DropNoRoute)
	m.CountVerdict(core.VerdictDrop)
	m.RecordEvent(EventRetransmit)
	m.RecordEvent(EventRetransmit)

	d := m.Snapshot().Delta(prev)
	if d.Received != 2 || d.Forwarded != 1 || d.Dropped != 1 {
		t.Errorf("verdict deltas: %+v", d)
	}
	if len(d.Ops) != 2 {
		t.Fatalf("op deltas: %+v", d.Ops)
	}
	for _, op := range d.Ops {
		switch op.Key {
		case core.KeyFIB:
			if op.Count != 1 || op.Timed != 1 || op.TotalNs != 300 {
				t.Errorf("FIB delta: %+v", op)
			}
		case core.KeyMAC:
			if op.Count != 1 || op.TotalNs != 1000 {
				t.Errorf("MAC delta: %+v", op)
			}
		default:
			t.Errorf("unexpected op delta: %+v", op)
		}
	}
	if d.Drops[core.DropNoRoute] != 1 {
		t.Errorf("drop delta: %v", d.Drops)
	}
	if d.Events[EventRetransmit] != 2 {
		t.Errorf("event delta: %v", d.Events)
	}
	// A delta against itself is all-zero with empty sparse maps.
	s := m.Snapshot()
	z := s.Delta(s)
	if z.Received != 0 || len(z.Ops) != 0 || len(z.Drops) != 0 || len(z.Events) != 0 {
		t.Errorf("self-delta not zero: %+v", z)
	}
}

func TestSnapshotString(t *testing.T) {
	m := &Metrics{}
	m.RecordOp(core.KeyFIB, time.Microsecond)
	m.RecordDrop(core.DropPITMiss)
	m.CountVerdict(core.VerdictForward)
	out := m.Snapshot().String()
	for _, want := range []string{"F_FIB", "forwarded=1", "pit-miss"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentRecording(t *testing.T) {
	m := &Metrics{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m.RecordOp(core.KeyFIB, time.Nanosecond)
				m.CountVerdict(core.VerdictForward)
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if s.Ops[0].Count != 8000 || s.Forwarded != 8000 {
		t.Errorf("lost updates: %+v", s)
	}
}

// TestConcurrentSnapshotDeltaStress drives every recording entry point from
// GOMAXPROCS goroutines while Snapshot and Delta run concurrently, asserting
// the counters only ever move forward and every snapshot taken mid-traffic is
// self-consistent — received is the verdict buckets' sum, an op's timed
// count its histogram's (run under -race to catch unsynchronized access; the
// atomics make torn or regressing reads a real bug, not noise).
func TestConcurrentSnapshotDeltaStress(t *testing.T) {
	m := &Metrics{}
	workers := runtime.GOMAXPROCS(0)
	const perWorker = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				m.RecordOp(core.KeyFIB, time.Duration(i%1000)*time.Nanosecond)
				m.RecordEvent(EventRetransmit)
				m.CountVerdict(core.VerdictForward)
				if i%5 == 0 {
					m.RecordDrop(core.DropNoRoute)
					m.CountVerdict(core.VerdictDrop)
				}
			}
		}(w)
	}
	// Reader goroutine: snapshots must be monotone and deltas non-negative.
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		prev := m.Snapshot()
		for {
			s := m.Snapshot()
			d := s.Delta(prev)
			if d.Received < 0 || d.Forwarded < 0 || d.Dropped < 0 {
				t.Errorf("counters regressed between snapshots: %+v", d)
				return
			}
			if sum := s.Forwarded + s.Delivered + s.Absorbed + s.NoAction + s.Dropped; s.Received != sum {
				t.Errorf("mid-traffic snapshot: received=%d, verdict buckets sum to %d", s.Received, sum)
				return
			}
			for _, op := range d.Ops {
				if op.Count < 0 || op.Timed < 0 || op.TotalNs < 0 {
					t.Errorf("op counters regressed: %+v", op)
					return
				}
			}
			for _, op := range s.Ops {
				var hist int64
				for _, c := range op.Hist {
					hist += c
				}
				if hist != op.Timed || op.Timed > op.Count {
					t.Errorf("mid-traffic snapshot: %v count=%d timed=%d, Σhist=%d", op.Key, op.Count, op.Timed, hist)
					return
				}
			}
			prev = s
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	rg.Wait()

	total := int64(workers * perWorker)
	s := m.Snapshot()
	if s.Ops[0].Count != total || s.Forwarded != total {
		t.Errorf("lost updates: ops=%d forwarded=%d want %d", s.Ops[0].Count, s.Forwarded, total)
	}
	if sum := s.Forwarded + s.Delivered + s.Absorbed + s.NoAction + s.Dropped; sum != s.Received {
		t.Errorf("verdict buckets do not reconcile under concurrency: sum=%d received=%d", sum, s.Received)
	}
}

func TestBucketOf(t *testing.T) {
	if bucketOf(0) != 0 || bucketOf(1) != 0 {
		t.Error("small buckets")
	}
	if bucketOf(1<<40) != histBuckets-1 {
		t.Errorf("huge latency bucket = %d", bucketOf(1<<40))
	}
}
