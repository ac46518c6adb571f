package dip

// Congestion chaos test (the ISSUE 7 acceptance scenario): three
// congestion-controlled consumers share one tight bottleneck to a producer,
// and a seeded loss window knocks the data direction out mid-run. The
// RTT-adaptive controller (AIMD window, Jacobson/Karn RTO) must beat a
// blind fixed-window/fixed-backoff fetcher on both goodput and
// retransmissions while splitting the link fairly (Jain ≥ 0.9); journey
// tracing must attribute where the latency went (link queueing, PIT wait);
// the flight recorder must capture the cwnd-cut anomalies with the stalled
// transmissions' spans attached; and the whole run — fleet counters and
// journey stitching alike — must be deterministic under its seed.

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"dip/internal/cc"
	"dip/internal/host"
	"dip/internal/journey"
	"dip/internal/workload"
)

// ccChaosOutcome is everything one run produces that determinism can be
// judged on. Journey CPU nanoseconds are wall-clock and excluded.
type ccChaosOutcome struct {
	Fleet workload.FleetResult
	// Journeys stitched end to end across consumer, router, and link spans.
	Complete int64
	// Latency decomposition sums over complete journeys: time queued behind
	// other packets at the bottleneck serializer, and time parked in network
	// state (PIT wait + uninstrumented propagation) between spans.
	QueueNs   int64
	PITWaitNs int64
	// Flight-recorder captures: total, and those attributed to cwnd cuts.
	FrozenAll  int64
	FrozenCwnd int64
	// FrozenCwndSpans counts spans retained inside cwnd-cut captures —
	// the congestion evidence (queued link transits) must survive freezing.
	FrozenCwndSpans int
}

// runCCChaos builds the 3-consumer shared-bottleneck fleet with full
// journey instrumentation (fetcher taps, a link tap on the bottleneck's
// data direction, a router tap sampling every packet) and runs it to the
// horizon under the given controller.
func runCCChaos(t *testing.T, seed int64, algo cc.Algo, initCwnd int) ccChaosOutcome {
	t.Helper()
	col := journey.NewCollector(journey.Config{FlightSize: 256})

	// The taps' clock is the simulator's virtual time; the fleet (and so
	// the simulator) doesn't exist until NewFleet returns, hence the
	// late-bound closure. Taps only fire during Run.
	var fl *workload.Fleet
	simNow := func() int64 { return int64(fl.Sim.Now()) }

	cfg := workload.FleetConfig{
		Consumers:          3,
		ObjectsPerConsumer: 6,
		Objects:            24,
		SegsPerObject:      8,
		SegSize:            1000,
		BottleneckBPS:      4_000_000, // tight: three pipelined fetchers exceed it
		BottleneckQueue:    10 * time.Millisecond,
		CacheEntries:       -1, // no cache: every byte crosses the bottleneck
		MaxRetx:            8,
		// Seeded loss window: the data direction goes dark for 150ms while
		// all three consumers are mid-object. Every flow hits genuine RTO,
		// cuts its window, and must re-probe for capacity afterwards.
		DownFrom: 600 * time.Millisecond,
		DownTo:   750 * time.Millisecond,
		Horizon:  30 * time.Second,
		Seed:     seed,
		CC: cc.Config{Algo: algo, InitCwnd: initCwnd, MaxCwnd: 64,
			RTT: cc.RTTConfig{InitRTO: 100 * time.Millisecond, MinRTO: 20 * time.Millisecond}},
		FetcherObserver: func(id int) host.FetchObserver {
			return journey.NewFetchTap(fmt.Sprintf("C%d", id), col, simNow)
		},
		BottleneckObserver: journey.NewLinkTap("P->R", col),
	}
	fleet, err := workload.NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fl = fleet
	// Sample every packet through the router so each journey carries its
	// Algorithm 1 bracket; the sampler forwards to the fleet's metrics.
	fl.Node.Router.SetRecorder(NewRouterJourneyTap("R", col, fl.Metrics, 1, simNow))

	res := fl.Run()
	out := ccChaosOutcome{Fleet: *res}

	st := col.Stats()
	out.Complete = st.Complete
	for _, p := range st.Paths {
		out.QueueNs += p.QueueNs
		out.PITWaitNs += p.PITWaitNs
	}
	flight := col.Flight()
	out.FrozenAll = flight.Frozen()
	out.FrozenCwnd = flight.FrozenBy(journey.FreezeCwndCut)
	for _, fz := range flight.Entries() {
		if fz.Reason == journey.FreezeCwndCut {
			out.FrozenCwndSpans += len(fz.Journey.Spans)
		}
	}
	return out
}

func TestCCChaosAdaptiveBeatsBlindThroughLossWindow(t *testing.T) {
	const seed = 2026

	adaptive := runCCChaos(t, seed, cc.AlgoAIMD, 2)
	blind := runCCChaos(t, seed, cc.AlgoBlind, 16) // fixed window, fixed RTO + blind backoff

	// Work completes under both controllers; the adaptive one does at
	// least as much of it.
	af, bf := adaptive.Fleet, blind.Fleet
	if af.ObjectsCompleted == 0 {
		t.Fatal("adaptive run completed nothing")
	}
	if af.ObjectsCompleted < bf.ObjectsCompleted {
		t.Fatalf("adaptive completed %d objects < blind %d", af.ObjectsCompleted, bf.ObjectsCompleted)
	}
	// Goodput: the adaptive controller pulls at least as many bytes and
	// pulls them faster (GoodputBps normalizes by the active span).
	if af.GoodputBytes < bf.GoodputBytes {
		t.Fatalf("adaptive goodput %d bytes < blind %d", af.GoodputBytes, bf.GoodputBytes)
	}
	if af.GoodputBps <= bf.GoodputBps {
		t.Fatalf("adaptive goodput %.0f bps ≤ blind %.0f bps", af.GoodputBps, bf.GoodputBps)
	}
	// Recovery efficiency: RTT-derived RTOs retransmit only what the loss
	// window and queue actually took; blind fixed timeouts fire early and
	// spuriously re-inject.
	if af.Retransmits >= bf.Retransmits {
		t.Fatalf("adaptive retransmits %d ≥ blind %d", af.Retransmits, bf.Retransmits)
	}
	// The loss window produced genuine timeouts: windows were cut, drops
	// happened, and nothing was abandoned.
	if af.CwndCuts == 0 {
		t.Fatal("loss window never cut the adaptive controller's cwnd")
	}
	if af.BottleneckDrops == 0 {
		t.Fatal("bottleneck dropped nothing — the chaos never engaged")
	}
	if af.DeadLetters != 0 {
		t.Fatalf("adaptive dead-lettered %d segments", af.DeadLetters)
	}
	// Fairness across the three consumers sharing the link.
	if af.JainIndex < 0.9 {
		t.Fatalf("adaptive Jain index %.3f < 0.9", af.JainIndex)
	}

	t.Logf("adaptive: %d objects, %.0f bps, %d retx, %d cuts, Jain %.3f | blind: %d objects, %.0f bps, %d retx",
		af.ObjectsCompleted, af.GoodputBps, af.Retransmits, af.CwndCuts, af.JainIndex,
		bf.ObjectsCompleted, bf.GoodputBps, bf.Retransmits)
}

func TestCCChaosJourneysAttributeLatencyAndFreezeCwndCuts(t *testing.T) {
	out := runCCChaos(t, 2026, cc.AlgoAIMD, 2)

	// Journeys stitched: consumer, router, and bottleneck spans joined into
	// complete end-to-end timelines.
	if out.Complete == 0 {
		t.Fatal("no complete journeys stitched")
	}
	// Attribution: the decomposition charges time to queueing at the
	// contended bottleneck and to PIT/propagation wait between spans —
	// congestion shows up as *where the time went*, not just counters.
	if out.QueueNs == 0 {
		t.Error("latency decomposition attributed no queueing on a saturated bottleneck")
	}
	if out.PITWaitNs == 0 {
		t.Error("latency decomposition attributed no PIT/state wait")
	}
	// The flight recorder captured cwnd-cut anomalies, and the captures
	// kept the stalled transmissions' spans (the congestion evidence).
	if out.FrozenCwnd == 0 {
		t.Fatalf("flight recorder froze nothing for cwnd cuts (total frozen %d)", out.FrozenAll)
	}
	if out.FrozenCwndSpans == 0 {
		t.Error("cwnd-cut captures retained no spans — anomaly context was lost")
	}
}

func TestCCChaosDeterministicBySeed(t *testing.T) {
	const seed = 77
	a := runCCChaos(t, seed, cc.AlgoAIMD, 2)
	b := runCCChaos(t, seed, cc.AlgoAIMD, 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("seeded chaos run not deterministic:\n run1: %+v\n run2: %+v", a, b)
	}
	if a.Fleet.Retransmits == 0 {
		t.Error("loss window caused no retransmissions — determinism check exercised nothing")
	}
	// A different seed shifts arrivals, think times, and the loss RNG.
	c := runCCChaos(t, seed+1, cc.AlgoAIMD, 2)
	if reflect.DeepEqual(a.Fleet, c.Fleet) {
		t.Error("different seeds produced identical fleet outcomes")
	}
}
