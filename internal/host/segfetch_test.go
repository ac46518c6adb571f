package host

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"dip/internal/cc"
	"dip/internal/core"
	"dip/internal/netsim"
	"dip/internal/profiles"
	"dip/internal/telemetry"
)

// segHarness wires a SegFetcher to a scripted producer over a netsim
// clock: every interest is answered after rtt unless its (name, attempt)
// pair is in drops.
type segHarness struct {
	sim     *netsim.Simulator
	f       *SegFetcher
	rtt     time.Duration
	drops   map[uint32]int // name → number of leading attempts to drop
	seen    map[uint32]int
	maxInFl int
	payload func(name uint32) []byte
}

func newSegHarness(t *testing.T, cfg SegConfig, rtt time.Duration) *segHarness {
	t.Helper()
	h := &segHarness{
		sim:   netsim.New(),
		rtt:   rtt,
		drops: map[uint32]int{},
		seen:  map[uint32]int{},
		payload: func(name uint32) []byte {
			return []byte(fmt.Sprintf("seg-%08x", name))
		},
	}
	h.f = NewSegFetcher(h.sim, func(pkt []byte) {
		v, err := core.ParseView(pkt)
		if err != nil {
			t.Fatalf("fetcher sent unparseable packet: %v", err)
		}
		name, ok := InterestName(v)
		if !ok {
			t.Fatal("fetcher sent a non-interest")
		}
		h.seen[name]++
		if fl := h.f.InFlight(); fl > h.maxInFl {
			h.maxInFl = fl
		}
		if h.drops[name] > 0 {
			h.drops[name]--
			return // dropped on the (virtual) wire
		}
		reply, err := BuildPacket(profiles.NDNData(name), h.payload(name))
		if err != nil {
			t.Fatal(err)
		}
		h.sim.Schedule(h.rtt, func() { h.f.HandleData(reply) })
	}, cfg)
	return h
}

func wantObject(h *segHarness, base uint32, segs int) []byte {
	var out []byte
	for s := 0; s < segs; s++ {
		out = append(out, h.payload(SegName(base, s))...)
	}
	return out
}

func TestSegFetchCompletesInOrder(t *testing.T) {
	h := newSegHarness(t, SegConfig{CC: cc.Config{InitCwnd: 2, MaxCwnd: 32}}, 5*time.Millisecond)
	var got []byte
	var gotBase uint32
	h.f.OnObject = func(base uint32, data []byte) { gotBase, got = base, data }

	const base, segs = 0xAA000100, 9
	if err := h.f.FetchObject(base, segs); err != nil {
		t.Fatal(err)
	}
	h.sim.Run()

	if gotBase != base || !bytes.Equal(got, wantObject(h, base, segs)) {
		t.Fatalf("object %#x reassembled wrong: %q", gotBase, got)
	}
	st := h.f.Stats()
	if st.ObjectsCompleted != 1 || st.SegmentsCompleted != segs || st.Retransmits != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.GoodputBytes != int64(len(got)) {
		t.Fatalf("goodput %d bytes, want %d", st.GoodputBytes, len(got))
	}
	// The pipeline respected the window: the first transmissions go out
	// two at a time (InitCwnd=2), never all nine at once.
	if h.maxInFl > segs-1 {
		t.Fatalf("window never limited the pipeline: max in flight %d", h.maxInFl)
	}
}

// A single-name fetch is a one-segment object: one interest, no
// retransmission, the payload delivered as the object.
func TestFetcherCompletesWithoutLoss(t *testing.T) {
	h := newSegHarness(t, SegConfig{CC: cc.Config{Algo: cc.AlgoBlind, InitCwnd: 4}}, time.Millisecond)
	var gotName uint32
	var gotPayload []byte
	h.f.OnObject = func(n uint32, p []byte) { gotName, gotPayload = n, p }

	const name = 0xAA000001
	if err := h.f.FetchObject(name, 1); err != nil {
		t.Fatal(err)
	}
	h.sim.Run()

	st := h.f.Stats()
	if st.ObjectsCompleted != 1 || st.SegmentsCompleted != 1 || st.Retransmits != 0 ||
		st.PendingObjects != 0 || st.PendingSegments != 0 || st.DeadLettered != 0 {
		t.Fatalf("stats %+v", st)
	}
	if h.seen[name] != 1 {
		t.Errorf("sent %d interests, want 1", h.seen[name])
	}
	if gotName != name || !bytes.Equal(gotPayload, h.payload(name)) {
		t.Errorf("completion %#x %q", gotName, gotPayload)
	}
}

// blindFetch fetches name 1 as a one-segment object under AlgoBlind —
// the fixed-timeout, exponential-backoff retransmitter — answering it at
// answerAt (never, if zero), and returns when each interest went out.
func blindFetch(t *testing.T, rtt cc.RTTConfig, maxRetx int, answerAt time.Duration) ([]time.Duration, SegStats, *telemetry.Metrics) {
	t.Helper()
	sim := netsim.New()
	met := &telemetry.Metrics{}
	var sentAt []time.Duration
	f := NewSegFetcher(sim, func([]byte) { sentAt = append(sentAt, sim.Now()) }, SegConfig{
		CC:      cc.Config{Algo: cc.AlgoBlind, InitCwnd: 1, RTT: rtt},
		MaxRetx: maxRetx,
		Metrics: met,
	})
	if err := f.FetchObject(1, 1); err != nil {
		t.Fatal(err)
	}
	if answerAt > 0 {
		sim.Schedule(answerAt, func() { f.HandleData(dataPacket(t, 1, "late")) })
	}
	sim.Run()
	return sentAt, f.Stats(), met
}

func wantSentAt(t *testing.T, sentAt, want []time.Duration, why string) {
	t.Helper()
	if len(sentAt) != len(want) {
		t.Fatalf("transmissions at %v, want %v", sentAt, want)
	}
	for i := range want {
		if sentAt[i] != want[i] {
			t.Fatalf("transmissions at %v, want %v (%s)", sentAt, want, why)
		}
	}
}

// Under AlgoBlind the interest is re-sent after InitRTO and the timeout
// doubles on every timeout: 10 → 20 → 40 ms.
func TestFetcherRetransmitsWithBackoff(t *testing.T) {
	// Satisfy after two losses: data shows up at 35ms, between the second
	// retransmission (10+20=30ms) and the third (30+40=70ms).
	sentAt, st, met := blindFetch(t, cc.RTTConfig{InitRTO: 10 * time.Millisecond}, 3, 35*time.Millisecond)
	wantSentAt(t, sentAt, []time.Duration{0, 10 * time.Millisecond, 30 * time.Millisecond}, "exponential backoff")
	if st.ObjectsCompleted != 1 || st.Retransmits != 2 || st.DeadLettered != 0 {
		t.Errorf("stats %+v", st)
	}
	if met.Event(telemetry.EventRetransmit) != 2 {
		t.Errorf("telemetry retransmits %d", met.Event(telemetry.EventRetransmit))
	}
}

// The doubling timeout clamps at MaxRTO: 100ms, then 200ms (capped, not
// 400ms).
func TestFetcherTimeoutCap(t *testing.T) {
	sentAt, st, _ := blindFetch(t,
		cc.RTTConfig{InitRTO: 100 * time.Millisecond, MaxRTO: 200 * time.Millisecond}, 3, 0)
	wantSentAt(t, sentAt, []time.Duration{0, 100 * time.Millisecond, 300 * time.Millisecond,
		500 * time.Millisecond}, "MaxRTO cap")
	if st.DeadLettered != 1 || st.ObjectsCompleted != 0 {
		t.Errorf("stats %+v", st)
	}
}

func TestSegFetchPipelinesUnderWindow(t *testing.T) {
	h := newSegHarness(t, SegConfig{CC: cc.Config{Algo: cc.AlgoBlind, InitCwnd: 4, MaxCwnd: 4}},
		10*time.Millisecond)
	done := false
	h.f.OnObject = func(uint32, []byte) { done = true }
	if err := h.f.FetchObject(0xAA000200, 32); err != nil {
		t.Fatal(err)
	}
	h.sim.Run()
	if !done {
		t.Fatal("object never completed")
	}
	if h.maxInFl != 4 {
		t.Fatalf("max in flight %d, want exactly the fixed window 4", h.maxInFl)
	}
}

func TestSegFetchWindowGrowsAcrossTransfer(t *testing.T) {
	h := newSegHarness(t, SegConfig{CC: cc.Config{InitCwnd: 2, MaxCwnd: 64}}, 5*time.Millisecond)
	if err := h.f.FetchObject(0xAA000300, 64); err != nil {
		t.Fatal(err)
	}
	h.sim.Run()
	if h.maxInFl <= 2 {
		t.Fatalf("window never grew: max in flight %d", h.maxInFl)
	}
	if snap := h.f.CC(); snap.SRTT == 0 {
		t.Fatal("no RTT samples reached the estimator")
	}
}

func TestSegFetchRecoversFromLossWithKarnAndCut(t *testing.T) {
	met := &telemetry.Metrics{}
	var events []FetchEvent
	cfg := SegConfig{
		CC: cc.Config{InitCwnd: 4, MaxCwnd: 32,
			RTT: cc.RTTConfig{InitRTO: 50 * time.Millisecond, MinRTO: 20 * time.Millisecond}},
		MaxRetx:  4,
		Metrics:  met,
		Observer: func(ev FetchEvent, _ uint32, _ []byte) { events = append(events, ev) },
	}
	h := newSegHarness(t, cfg, 5*time.Millisecond)
	const base, segs = 0xAA000400, 16
	// Drop the first two transmissions of segment 3: it completes on its
	// third attempt, well under the cap.
	h.drops[SegName(base, 3)] = 2

	var got []byte
	h.f.OnObject = func(_ uint32, data []byte) { got = data }
	if err := h.f.FetchObject(base, segs); err != nil {
		t.Fatal(err)
	}
	h.sim.Run()

	if !bytes.Equal(got, wantObject(h, base, segs)) {
		t.Fatalf("lossy transfer reassembled wrong bytes (%d bytes)", len(got))
	}
	st := h.f.Stats()
	if st.Retransmits != 2 {
		t.Fatalf("retransmits = %d, want 2", st.Retransmits)
	}
	if st.CwndCuts == 0 {
		t.Fatal("timeouts never cut the window")
	}
	if st.DeadLettered != 0 || st.ObjectsFailed != 0 {
		t.Fatalf("spurious dead letters: %+v", st)
	}
	// Karn's rule: 15 segments completed cleanly, one via retransmission;
	// only the clean ones may feed the estimator.
	if snap := h.f.CC(); snap.Samples != segs-1 {
		t.Fatalf("RTT samples = %d, want %d (retransmitted segment sampled?)", snap.Samples, segs-1)
	}
	// Telemetry and observer both saw the machinery engage.
	if met.Event(telemetry.EventRetransmit) != 2 || met.Event(telemetry.EventCwndCut) == 0 {
		t.Fatalf("telemetry events: retx=%d cut=%d",
			met.Event(telemetry.EventRetransmit), met.Event(telemetry.EventCwndCut))
	}
	var retx, cuts int
	for _, ev := range events {
		switch ev {
		case FetchRetx:
			retx++
		case FetchCwndCut:
			cuts++
		}
	}
	if retx != 2 || cuts == 0 {
		t.Fatalf("observer events: retx=%d cuts=%d", retx, cuts)
	}
}

func TestFetcherDeadLettersAfterCap(t *testing.T) {
	met := &telemetry.Metrics{}
	events := map[FetchEvent]int{}
	h := newSegHarness(t, SegConfig{
		CC:       cc.Config{Algo: cc.AlgoBlind, InitCwnd: 1, RTT: cc.RTTConfig{InitRTO: time.Millisecond}},
		MaxRetx:  2,
		Metrics:  met,
		Observer: func(ev FetchEvent, _ uint32, _ []byte) { events[ev]++ },
	}, time.Millisecond)
	h.drops[7] = 1 << 30 // nothing ever answers
	var dead []uint32
	h.f.OnObjectFail = func(n uint32) { dead = append(dead, n) }

	if err := h.f.FetchObject(7, 1); err != nil {
		t.Fatal(err)
	}
	h.sim.Run()

	if h.seen[7] != 3 { // 1 initial + 2 retransmissions
		t.Errorf("sent %d, want 3", h.seen[7])
	}
	st := h.f.Stats()
	if st.DeadLettered != 1 || st.ObjectsFailed != 1 || st.ObjectsCompleted != 0 ||
		st.PendingObjects != 0 || st.PendingSegments != 0 {
		t.Errorf("stats %+v", st)
	}
	if len(dead) != 1 || dead[0] != 7 {
		t.Errorf("dead letters %v", dead)
	}
	if met.Event(telemetry.EventDeadLetter) != 1 || met.Event(telemetry.EventRetransmit) != 2 {
		t.Errorf("telemetry dead letters %d, retransmits %d",
			met.Event(telemetry.EventDeadLetter), met.Event(telemetry.EventRetransmit))
	}
	if events[FetchDeadLetter] != 1 || events[FetchRetx] != 2 {
		t.Errorf("observer saw %d dead letters, %d retransmits", events[FetchDeadLetter], events[FetchRetx])
	}
	if h.sim.Pending() != 0 {
		t.Errorf("%d timers still armed after dead-letter", h.sim.Pending())
	}
}

func TestSegFetchDeadLettersObjectAfterCap(t *testing.T) {
	met := &telemetry.Metrics{}
	h := newSegHarness(t, SegConfig{
		CC: cc.Config{InitCwnd: 4, MaxCwnd: 8,
			RTT: cc.RTTConfig{InitRTO: 30 * time.Millisecond, MinRTO: 10 * time.Millisecond,
				MaxRTO: 100 * time.Millisecond}},
		MaxRetx: 3,
		Metrics: met,
	}, 5*time.Millisecond)
	const base, segs = 0xAA000500, 8
	// Segment 5 is a black hole: every attempt dropped.
	h.drops[SegName(base, 5)] = 1 << 30

	var failed []uint32
	completed := false
	h.f.OnObjectFail = func(b uint32) { failed = append(failed, b) }
	h.f.OnObject = func(uint32, []byte) { completed = true }
	if err := h.f.FetchObject(base, segs); err != nil {
		t.Fatal(err)
	}
	h.sim.Run()

	if completed {
		t.Fatal("object with a black-holed segment completed")
	}
	if len(failed) != 1 || failed[0] != base {
		t.Fatalf("OnObjectFail got %v, want [%#x]", failed, base)
	}
	st := h.f.Stats()
	if st.DeadLettered != 1 || st.ObjectsFailed != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.PendingObjects != 0 || st.PendingSegments != 0 {
		t.Fatalf("failed object left pending state: %+v", st)
	}
	if met.Event(telemetry.EventDeadLetter) != 1 {
		t.Fatalf("telemetry dead letters = %d", met.Event(telemetry.EventDeadLetter))
	}
	// 1 + MaxRetx transmissions total for the black-holed segment.
	if n := h.seen[SegName(base, 5)]; n != 4 {
		t.Fatalf("black-holed segment transmitted %d times, want 4", n)
	}
}

func TestSegFetchConcurrentObjectsShareWindow(t *testing.T) {
	h := newSegHarness(t, SegConfig{CC: cc.Config{Algo: cc.AlgoBlind, InitCwnd: 3, MaxCwnd: 3}},
		5*time.Millisecond)
	done := map[uint32][]byte{}
	h.f.OnObject = func(base uint32, data []byte) { done[base] = data }
	if err := h.f.FetchObject(0xAA000600, 10); err != nil {
		t.Fatal(err)
	}
	if err := h.f.FetchObject(0xAA000700, 10); err != nil {
		t.Fatal(err)
	}
	h.sim.Run()
	for _, base := range []uint32{0xAA000600, 0xAA000700} {
		if !bytes.Equal(done[base], wantObject(h, base, 10)) {
			t.Fatalf("object %#x wrong or missing", base)
		}
	}
	if h.maxInFl != 3 {
		t.Fatalf("two objects drove %d in flight, want the shared window 3", h.maxInFl)
	}
}

func TestSegFetchDuplicateDataDoesNotDoubleCount(t *testing.T) {
	sim := netsim.New()
	var f *SegFetcher
	f = NewSegFetcher(sim, func(pkt []byte) {
		v, _ := core.ParseView(pkt)
		name, _ := InterestName(v)
		reply, err := BuildPacket(profiles.NDNData(name), []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		// Deliver twice: the duplicate must be ignored.
		sim.Schedule(time.Millisecond, func() { f.HandleData(reply) })
		sim.Schedule(2*time.Millisecond, func() { f.HandleData(reply) })
	}, SegConfig{})
	objects := 0
	f.OnObject = func(uint32, []byte) { objects++ }
	if err := f.FetchObject(0xAA000800, 4); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	st := f.Stats()
	if objects != 1 || st.SegmentsCompleted != 4 {
		t.Fatalf("objects=%d segments=%d after duplicate data", objects, st.SegmentsCompleted)
	}
}

func TestFetcherIgnoresUnrelatedAndDuplicateData(t *testing.T) {
	sim := netsim.New()
	f := NewSegFetcher(sim, func([]byte) {}, SegConfig{})
	completions := 0
	f.OnObject = func(uint32, []byte) { completions++ }
	if err := f.FetchObject(5, 1); err != nil {
		t.Fatal(err)
	}

	if _, matched := f.HandleData(dataPacket(t, 6, "other")); matched {
		t.Error("matched data for a name never fetched")
	}
	if _, matched := f.HandleData([]byte{0xFF, 0x01}); matched {
		t.Error("matched garbage")
	}
	if _, matched := f.HandleData(dataPacket(t, 5, "x")); !matched {
		t.Error("real data not matched")
	}
	// The network re-delivers (duplicate or reordered copy): no double
	// completion.
	if _, matched := f.HandleData(dataPacket(t, 5, "x")); matched {
		t.Error("duplicate data matched twice")
	}
	if completions != 1 {
		t.Errorf("completions %d", completions)
	}
	sim.Run()
	if st := f.Stats(); st.Retransmits != 0 || st.ObjectsCompleted != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestFetcherFetchWhileInFlightAggregates(t *testing.T) {
	h := newSegHarness(t, SegConfig{CC: cc.Config{Algo: cc.AlgoBlind, InitCwnd: 4}}, time.Millisecond)
	for i := 0; i < 2; i++ {
		// The second call aggregates: no second transmission, no second
		// timer chain.
		if err := h.f.FetchObject(3, 1); err != nil {
			t.Fatal(err)
		}
	}
	if h.seen[3] != 1 {
		t.Errorf("sent %d interests, want 1", h.seen[3])
	}
	h.sim.Run()
	if st := h.f.Stats(); st.ObjectsCompleted != 1 || st.DeadLettered != 0 || st.Retransmits != 0 {
		t.Errorf("stats %+v", st)
	}
}

// A range that wraps past the top of the name space would fetch name 0 as
// segment 1 of 0xFFFFFFFF; it is refused before anything is sent.
func TestSegFetchRejectsWrappingRange(t *testing.T) {
	h := newSegHarness(t, SegConfig{}, time.Millisecond)
	if err := h.f.FetchObject(0xFFFFFFFF, 2); err == nil {
		t.Fatal("accepted an object whose second segment wraps to name 0")
	}
	h.sim.Run()
	if len(h.seen) != 0 {
		t.Fatalf("sent interests %v for a rejected range", h.seen)
	}
	if err := h.f.FetchObject(0xFFFFFFFF, 1); err != nil {
		t.Fatalf("the last name alone is a valid object: %v", err)
	}
	h.sim.Run()
	if st := h.f.Stats(); st.ObjectsCompleted != 1 || st.PendingObjects != 0 {
		t.Fatalf("stats %+v", st)
	}
}

// One name can be in flight for one object only: a range overlapping an
// object in progress used to overwrite that object's flight, which then
// never completed, failed, or held a timer.
func TestSegFetchRejectsOverlappingRange(t *testing.T) {
	h := newSegHarness(t, SegConfig{CC: cc.Config{InitCwnd: 4}}, time.Millisecond)
	var done []uint32
	h.f.OnObject = func(base uint32, _ []byte) { done = append(done, base) }
	if err := h.f.FetchObject(100, 2); err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		base uint32
		segs int
	}{{101, 1}, {99, 2}, {100, 3}} {
		if err := h.f.FetchObject(r.base, r.segs); err == nil {
			t.Fatalf("accepted names %d..%d while object 100 holds 100..101", r.base, int(r.base)+r.segs-1)
		}
	}
	if err := h.f.FetchObject(102, 1); err != nil {
		t.Fatalf("adjacent object refused: %v", err)
	}
	h.sim.Run()
	st := h.f.Stats()
	if len(done) != 2 || done[0] != 100 || done[1] != 102 {
		t.Fatalf("completed objects %v, want [100 102]", done)
	}
	if st.PendingObjects != 0 || st.PendingSegments != 0 || st.ObjectsCompleted != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// InFlight returns how many interests are currently outstanding.
func (f *SegFetcher) InFlight() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.inflight)
}
