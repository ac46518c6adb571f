package dip

// Chaos test: end-to-end NDN interest/data exchange over a 3-hop router
// path whose links drop (and corrupt) packets under a seeded fault model.
// The consumer's fetcher repairs loss by retransmitting interests with
// exponential backoff; router PIT entries expire on short TTLs so
// retransmissions re-arm forwarding state hop by hop. The whole run is
// deterministic: same seed, same fault sequence, same completion times.

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"dip/internal/host"
	"dip/internal/netsim"
	"dip/internal/node"
	"dip/internal/telemetry"
)

// chaosOutcome captures everything a chaos run produces, for determinism
// comparison across invocations.
type chaosOutcome struct {
	Stats        SegStats
	CompletedAt  map[uint32]time.Duration
	LinkDrops    int64
	LinkFaults   int64
	RouterEvents map[string]int64
	Payloads     map[uint32]string
	FinalTime    time.Duration
}

// runChaos fetches nFetch names across C — R1 — R2 — R3 — P with the given
// per-direction loss rate on the two inter-router links (plus a little
// corruption on one), all seeded from seed.
func runChaos(t *testing.T, seed int64, loss float64, nFetch int) chaosOutcome {
	t.Helper()
	sim := netsim.New()

	// Short PIT TTLs: an expired entry is what lets a retransmitted
	// interest propagate past routers that saw (and aggregated) the lost
	// original. Each node sweeps its PIT on the simulator every TTL.
	routers := make([]*Node, 3)
	metrics := make([]*Metrics, 3)
	for i := range routers {
		routers[i] = chaosNode(t, node.SimEnv(sim), NodeSpec{Name: fmt.Sprintf("R%d", i+1), Cache: 64})
		metrics[i] = routers[i].Metrics
	}

	impair := func(s int64, observer *Metrics) *netsim.Impairment {
		im := netsim.NewImpairment(s)
		im.DropProb = loss
		im.Observer = func(e netsim.ImpairEvent) {
			switch e {
			case netsim.ImpairDrop:
				observer.RecordEvent(telemetry.EventLinkDrop)
			case netsim.ImpairCorrupt:
				observer.RecordEvent(telemetry.EventLinkCorrupt)
			}
		}
		return im
	}
	ims := []*netsim.Impairment{
		impair(seed+1, metrics[0]), // R1→R2
		impair(seed+2, metrics[0]), // R2→R1
		impair(seed+3, metrics[1]), // R2→R3
		impair(seed+4, metrics[1]), // R3→R2
	}
	// A pinch of corruption on the R2→R3 direction: corrupted DIP packets
	// must surface as malformed drops, not crashes.
	ims[2].CorruptProb = 0.02

	recv := func(r *Node) netsim.Receiver { return netsim.ReceiverFunc(r.Handle) }
	const hop = time.Millisecond

	// Consumer C.
	outcome := chaosOutcome{
		CompletedAt:  map[uint32]time.Duration{},
		Payloads:     map[uint32]string{},
		RouterEvents: map[string]int64{},
	}
	var fetcher *SegFetcher
	consumerRx := netsim.ReceiverFunc(func(pkt []byte, _ int) { fetcher.HandleData(pkt) })

	// Producer P answers every interest in the 0xAA prefix.
	var toR3 *netsim.Endpoint
	producerRx := netsim.ReceiverFunc(func(pkt []byte, _ int) {
		v, err := ParsePacket(pkt)
		if err != nil {
			return
		}
		name, ok := host.InterestName(v)
		if !ok {
			return
		}
		reply, err := BuildPacket(NDNDataProfile(name), []byte(fmt.Sprintf("content-%08x", name)))
		if err != nil {
			return
		}
		toR3.Send(reply)
	})

	// Wiring, port 0 then port 1 on each router:
	//   R1: 0 → C,  1 → R2      R2: 0 → R1, 1 → R3      R3: 0 → R2, 1 → P
	toR1 := sim.Pipe(recv(routers[0]), 0, hop, 0)
	routers[0].AttachPort(sim.Pipe(consumerRx, 0, hop, 0), false)
	routers[0].AttachPort(sim.Pipe(recv(routers[1]), 0, hop, 0, netsim.WithImpairment(ims[0])), false)
	routers[1].AttachPort(sim.Pipe(recv(routers[0]), 1, hop, 0, netsim.WithImpairment(ims[1])), false)
	routers[1].AttachPort(sim.Pipe(recv(routers[2]), 0, hop, 0, netsim.WithImpairment(ims[2])), false)
	routers[2].AttachPort(sim.Pipe(recv(routers[1]), 1, hop, 0, netsim.WithImpairment(ims[3])), false)
	routers[2].AttachPort(sim.Pipe(producerRx, 0, hop, 0), false)
	toR3 = sim.Pipe(recv(routers[2]), 1, hop, 0)

	// One-segment objects under a blind window wide enough for every name:
	// a fixed 60ms timeout doubling per retransmission.
	fetcher = NewSegFetcher(sim, func(pkt []byte) { toR1.Send(pkt) }, SegConfig{
		CC: CCConfig{Algo: CCAlgoBlind, InitCwnd: nFetch,
			RTT: RTTConfig{InitRTO: 60 * time.Millisecond}},
		MaxRetx: 8,
		Metrics: metrics[0],
	})
	fetcher.OnObject = func(name uint32, payload []byte) {
		outcome.CompletedAt[name] = sim.Now()
		outcome.Payloads[name] = string(payload)
	}

	for i := 0; i < nFetch; i++ {
		name := uint32(0xAA000000 + i)
		sim.Schedule(time.Duration(i)*5*time.Millisecond, func() { fetcher.FetchObject(name, 1) })
	}
	// Run to a horizon far past any retransmission.
	sim.RunUntil(20 * time.Second)

	outcome.Stats = fetcher.Stats()
	outcome.FinalTime = sim.Now()
	for i, m := range metrics {
		s := m.Snapshot()
		for e, n := range s.Events {
			outcome.RouterEvents[fmt.Sprintf("R%d/%s", i+1, e)] += n
		}
	}
	for _, im := range ims {
		outcome.LinkDrops += im.Drops
		outcome.LinkFaults += im.Faults()
	}
	return outcome
}

func TestChaosLossyPathRecoversByRetransmission(t *testing.T) {
	const seed, loss, n = 2024, 0.10, 30
	out := runChaos(t, seed, loss, n)

	if out.Stats.ObjectsCompleted != n || len(out.CompletedAt) != n {
		t.Fatalf("completed %d/%d fetches (dead-lettered %d, pending %d)",
			out.Stats.ObjectsCompleted, n, out.Stats.DeadLettered, out.Stats.PendingSegments)
	}
	if out.Stats.DeadLettered != 0 {
		t.Errorf("dead letters at 10%% loss with retx cap 8: %d", out.Stats.DeadLettered)
	}
	if out.Stats.Retransmits == 0 {
		t.Error("no retransmissions at 10% loss — recovery machinery never engaged")
	}
	// Bounded recovery: retransmissions cannot exceed the per-name cap.
	if max := int64(n * 8); out.Stats.Retransmits > max {
		t.Errorf("retransmits %d exceed cap %d", out.Stats.Retransmits, max)
	}
	if out.LinkDrops == 0 {
		t.Error("impaired links dropped nothing — fault injection never engaged")
	}
	for name, payload := range out.Payloads {
		if want := fmt.Sprintf("content-%08x", name); payload != want {
			t.Errorf("name %#x delivered %q, want %q", name, payload, want)
		}
	}
	// Degradation is observable: telemetry saw the link faults and the
	// consumer's retransmissions.
	if out.RouterEvents["R1/link-drop"] == 0 {
		t.Errorf("telemetry missed link drops: %v", out.RouterEvents)
	}
	if out.RouterEvents["R1/retransmit"] != out.Stats.Retransmits {
		t.Errorf("telemetry retransmits %d != fetcher's %d",
			out.RouterEvents["R1/retransmit"], out.Stats.Retransmits)
	}

	// Acceptance: the seeded run is deterministic across invocations —
	// identical completion times, counters, fault totals, and telemetry.
	again := runChaos(t, seed, loss, n)
	if !reflect.DeepEqual(out, again) {
		t.Fatalf("chaos run not deterministic:\n run1: %+v\n run2: %+v", out, again)
	}
	// And a different seed shifts the fault sequence (the RNG is real).
	other := runChaos(t, seed+1000, loss, n)
	if reflect.DeepEqual(out.CompletedAt, other.CompletedAt) {
		t.Error("different seeds produced identical completion schedules")
	}

	t.Logf("chaos: %d fetches, %d retransmits, %d link drops, %d total faults, done at %v",
		n, out.Stats.Retransmits, out.LinkDrops, out.LinkFaults, out.FinalTime)
}

// Higher loss plus duplication and reordering: recovery still converges,
// and duplicate data never double-completes a fetch.
func TestChaosHeavyImpairmentStillConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	sim := netsim.New()
	r := chaosNode(t, node.SimEnv(sim), NodeSpec{Name: "R"})

	im := netsim.NewImpairment(77)
	im.DropProb = 0.20
	im.DupProb = 0.10
	im.ReorderProb = 0.10
	im.ReorderDelay = 3 * time.Millisecond
	imBack := netsim.NewImpairment(78)
	imBack.DropProb = 0.20
	imBack.DupProb = 0.10

	var fetcher *SegFetcher
	completions := map[uint32]int{}
	consumerRx := netsim.ReceiverFunc(func(pkt []byte, _ int) {
		if name, ok := fetcher.HandleData(pkt); ok {
			completions[name]++
		}
	})
	var toRouter *netsim.Endpoint
	producerRx := netsim.ReceiverFunc(func(pkt []byte, _ int) {
		v, err := ParsePacket(pkt)
		if err != nil {
			return
		}
		if name, ok := host.InterestName(v); ok {
			if reply, err := BuildPacket(NDNDataProfile(name), []byte("d")); err == nil {
				toRouter.Send(reply)
			}
		}
	})
	rRecv := netsim.ReceiverFunc(r.Handle)
	toRouterLossy := sim.Pipe(rRecv, 0, time.Millisecond, 0, netsim.WithImpairment(im))
	r.AttachPort(sim.Pipe(consumerRx, 0, time.Millisecond, 0, netsim.WithImpairment(imBack)), false)
	r.AttachPort(sim.Pipe(producerRx, 0, time.Millisecond, 0), false)
	toRouter = sim.Pipe(rRecv, 1, time.Millisecond, 0)

	const n = 40
	fetcher = NewSegFetcher(sim, func(pkt []byte) { toRouterLossy.Send(pkt) }, SegConfig{
		CC: CCConfig{Algo: CCAlgoBlind, InitCwnd: n,
			RTT: RTTConfig{InitRTO: 60 * time.Millisecond}},
		MaxRetx: 10,
	})
	for i := 0; i < n; i++ {
		name := uint32(0xAA000100 + i)
		sim.Schedule(time.Duration(i)*3*time.Millisecond, func() { fetcher.FetchObject(name, 1) })
	}
	sim.Run()

	st2 := fetcher.Stats()
	if st2.ObjectsCompleted != n || st2.DeadLettered != 0 {
		t.Fatalf("completed %d/%d, dead-lettered %d", st2.ObjectsCompleted, n, st2.DeadLettered)
	}
	if st2.Retransmits == 0 {
		t.Error("no retransmissions under 20% loss")
	}
	for name, c := range completions {
		if c != 1 {
			t.Errorf("name %#x completed %d times (duplicate data double-satisfied)", name, c)
		}
	}
}

// chaosPITTTL is the chaos rigs' PIT lifetime: a few hops' round trips, so
// a retransmitted interest outlives the stale entry its lost original left.
const chaosPITTTL = 40 * time.Millisecond

// chaosNode builds one simulated chaos-rig router from spec: 0xAA/8 names
// routed out port 1 and a chaosPITTTL PIT, swept on env's timer.
func chaosNode(t *testing.T, env NodeEnv, spec NodeSpec) *Node {
	t.Helper()
	spec.Names = []NodeRoute{{Prefix: []byte{0xAA, 0, 0, 0}, Len: 8, Port: 1}}
	spec.PITTTL = chaosPITTTL
	n, err := BuildNode(spec, env)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}
