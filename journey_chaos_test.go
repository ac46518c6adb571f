package dip

import (
	"testing"
	"time"

	"dip/internal/cc"
	"dip/internal/core"
	"dip/internal/host"
	"dip/internal/journey"
	"dip/internal/netsim"
	"dip/internal/node"
	"dip/internal/profiles"
	"dip/internal/router"
	"dip/internal/tunnel"
)

// chaosNet is the acceptance topology for journey tracing: a consumer
// fetches named content across three routers, with the R2-R3 hop carried
// by a DIP-in-IPv4 tunnel over a legacy link, and the access link taken
// down for a window so one interest dies on a known hop and must be
// retransmitted.
//
//	C --1ms(down window)--> R1 --1ms--> R2 ~~tunnel 2ms~~ R3 --1ms--> P
type chaosNet struct {
	sim     *netsim.Simulator
	col     *journey.Collector
	fetcher *host.SegFetcher
	fetchAt map[uint32]time.Duration
}

func buildChaosNet(t *testing.T) *chaosNet {
	t.Helper()
	sim := netsim.New()
	col := journey.NewCollector(journey.Config{})
	vnow := func() int64 { return int64(sim.Now()) }

	// Every router spans every packet into the shared collector.
	env := node.SimEnv(sim)
	env.Journeys = col
	newRouter := func(name string) *Node { return chaosNode(t, env, NodeSpec{Name: name, TraceEvery: 1}) }
	r1, r2, r3 := newRouter("R1"), newRouter("R2"), newRouter("R3")

	// pipe builds one observed link direction delivering into *rx (a
	// pointer so host receivers can be wired up after their pipes exist).
	pipe := func(label string, delay time.Duration, bps int64, rx *func([]byte), opts ...netsim.LinkOption) *netsim.Endpoint {
		e := sim.Pipe(netsim.ReceiverFunc(func(pkt []byte, _ int) { (*rx)(pkt) }), 0, delay, bps, opts...)
		e.SetObserver(journey.NewLinkTap(label, col))
		return e
	}
	rxOf := func(fn func([]byte)) *func([]byte) { return &fn }

	// C->R1 is down during [6.5ms, 7.5ms): the interest sent at 7ms dies
	// there and nowhere else, and the retransmission recovers (an interior
	// drop would leave a PIT entry upstream that absorbs the retx until
	// the entry's TTL — correct behavior, but not this test's story).
	im := netsim.NewImpairment(3)
	im.DownBetween(6500*time.Microsecond, 7500*time.Microsecond)

	// Access link C->R1 has finite bandwidth (≈1ms to serialize one
	// interest) so simultaneous interests expose queueing time.
	var pktLen = func() int64 {
		pkt, err := BuildPacket(NDNInterestProfile(0xAA000001), nil)
		if err != nil {
			t.Fatal(err)
		}
		return int64(len(pkt))
	}()
	cToR1 := pipe("C->R1", time.Millisecond, pktLen*8*1000, rxOf(func(pkt []byte) { r1.Handle(pkt, 0) }), netsim.WithImpairment(im))
	r1ToR2 := pipe("R1->R2", time.Millisecond, 0, rxOf(func(pkt []byte) { r2.Handle(pkt, 0) }))
	r2ToR1 := pipe("R2->R1", time.Millisecond, 0, rxOf(func(pkt []byte) { r1.Handle(pkt, 1) }))

	// The tunnel between R2 and R3: endpoints encap into IPv4 and hand to
	// carrier pipes modeling the legacy domain.
	epA := &tunnel.Endpoint{Local: [4]byte{10, 0, 0, 2}, Remote: [4]byte{10, 0, 0, 3}}
	epB := &tunnel.Endpoint{Local: [4]byte{10, 0, 0, 3}, Remote: [4]byte{10, 0, 0, 2}}
	epA.Observer = journey.NewTunnelTap("R2", col, vnow)
	epB.Observer = journey.NewTunnelTap("R3", col, vnow)
	carrierAB := pipe("R2->R3", 2*time.Millisecond, 0, rxOf(func(pkt []byte) {
		if err := epB.Receive(pkt); err != nil {
			t.Errorf("tunnel B receive: %v", err)
		}
	}))
	carrierBA := pipe("R3->R2", 2*time.Millisecond, 0, rxOf(func(pkt []byte) {
		if err := epA.Receive(pkt); err != nil {
			t.Errorf("tunnel A receive: %v", err)
		}
	}))
	epA.Carrier = carrierAB
	epB.Carrier = carrierBA
	epA.Deliver = func(inner []byte) { r2.Handle(inner, 1) }
	epB.Deliver = func(inner []byte) { r3.Handle(inner, 0) }

	var produceRx, consumeRx func([]byte)
	r3ToP := pipe("R3->P", time.Millisecond, 0, &produceRx)
	pToR3 := pipe("P->R3", time.Millisecond, 0, rxOf(func(pkt []byte) { r3.Handle(pkt, 1) }))
	r1ToC := pipe("R1->C", time.Millisecond, 0, &consumeRx)

	// Port maps (port 0 toward the consumer, port 1 toward the producer).
	r1.AttachPort(router.PortFunc(r1ToC.Send), false)
	r1.AttachPort(router.PortFunc(r1ToR2.Send), false)
	r2.AttachPort(router.PortFunc(r2ToR1.Send), false)
	r2.AttachPort(router.PortFunc(epA.Send), false)
	r3.AttachPort(router.PortFunc(epB.Send), false)
	r3.AttachPort(router.PortFunc(r3ToP.Send), false)

	// Producer P: answer every interest with same-name data. Its host-side
	// spans terminate interest journeys and originate data journeys.
	hostSpan := func(kind journey.SpanKind, node string, pkt []byte) {
		tr := journey.TraceOf(pkt)
		if tr == 0 {
			return
		}
		now := vnow()
		sp := journey.Span{Trace: tr, Kind: kind, Node: node, Start: now, End: now}
		if v, err := core.ParseView(pkt); err == nil {
			sp.Proto = journey.ProtoOf(v)
		}
		col.AddSpan(sp)
	}
	produceRx = func(pkt []byte) {
		hostSpan(journey.SpanHostRecv, "P", pkt)
		v, err := core.ParseView(pkt)
		if err != nil {
			t.Errorf("producer got unparseable packet: %v", err)
			return
		}
		name, ok := host.InterestName(v)
		if !ok {
			return
		}
		data, err := BuildPacket(profiles.NDNData(name), []byte("the bits"))
		if err != nil {
			t.Errorf("producer build: %v", err)
			return
		}
		hostSpan(journey.SpanHostSend, "P", data)
		pToR3.Send(data)
	}

	// Consumer C: a retransmitting fetcher whose lifecycle events become
	// host spans via the fetcher tap.
	n := &chaosNet{sim: sim, col: col, fetchAt: map[uint32]time.Duration{}}
	n.fetcher = host.NewSegFetcher(sim, cToR1.Send, host.SegConfig{
		CC: cc.Config{Algo: cc.AlgoBlind, InitCwnd: 3,
			RTT: cc.RTTConfig{InitRTO: 20 * time.Millisecond}},
		Observer: journey.NewFetchTap("C", col, vnow),
	})
	// No manual recv span at C: the fetcher tap's satisfy span is the
	// consumer-side terminal (a recv would finalize the journey first and
	// orphan the satisfy into a new instance).
	consumeRx = func(pkt []byte) { n.fetcher.HandleData(pkt) }
	return n
}

func (n *chaosNet) run(t *testing.T, names ...struct {
	name uint32
	at   time.Duration
}) {
	t.Helper()
	for _, f := range names {
		f := f
		n.sim.Schedule(f.at, func() {
			if err := n.fetcher.FetchObject(f.name, 1); err != nil {
				t.Errorf("fetch %08x: %v", f.name, err)
			}
		})
	}
	n.sim.Run()
}

type fetch = struct {
	name uint32
	at   time.Duration
}

func runJourneyChaos(t *testing.T) *journey.Collector {
	t.Helper()
	n := buildChaosNet(t)
	n.run(t,
		fetch{0xAA000001, 0},
		fetch{0xAA000002, 0},                    // queues behind 0xAA000001 on C->R1
		fetch{0xAA000003, 7 * time.Millisecond}, // dies in the C->R1 down window
	)
	return n.col
}

func TestJourneyChaosStitchesAcrossTunnel(t *testing.T) {
	col := runJourneyChaos(t)
	var complete []*journey.Journey
	for _, j := range col.Journeys() {
		if j.Complete() && j.DroppedAt() == nil {
			complete = append(complete, j)
		}
	}
	// Three interests (one retransmitted) and three data replies all
	// eventually round-trip.
	if len(complete) < 6 {
		for _, j := range col.Journeys() {
			t.Logf("journey: %s", j.String())
		}
		t.Fatalf("%d complete journeys, want >= 6", len(complete))
	}

	sawQueue, sawEncap := false, false
	for _, j := range complete {
		if j.Hops() != 3 {
			t.Fatalf("journey %s crossed %d routers, want 3:\n%s", j.Path(), j.Hops(), j.String())
		}
		var encap, decap bool
		for _, sp := range j.Spans {
			switch sp.Kind {
			case journey.SpanTunnelEncap:
				encap = true
			case journey.SpanTunnelDecap:
				decap = true
			}
		}
		if !encap || !decap {
			t.Fatalf("journey %s missing tunnel spans (encap=%v decap=%v):\n%s",
				j.Path(), encap, decap, j.String())
		}
		sawEncap = true
		d := j.Decompose()
		if sum := d.FNNs + d.QueueNs + d.WireNs + d.PITWaitNs; sum != d.TotalNs {
			t.Fatalf("journey %s decomposition does not sum to total: %+v", j.Path(), d)
		}
		if d.TotalNs <= 0 || d.WireNs <= 0 {
			t.Fatalf("journey %s has degenerate timing: %+v", j.Path(), d)
		}
		if d.CPUNs <= 0 {
			t.Fatalf("journey %s measured no router CPU: %+v", j.Path(), d)
		}
		if d.QueueNs > 0 {
			sawQueue = true
		}
	}
	if !sawEncap {
		t.Fatal("no journey carried tunnel spans")
	}
	if !sawQueue {
		t.Fatal("no journey decomposed queueing time despite the saturated access link")
	}
}

func TestJourneyChaosDropAttributionAndRetx(t *testing.T) {
	col := runJourneyChaos(t)
	entries := col.Flight().Entries()
	var drop, retx *journey.FrozenJourney
	for i := range entries {
		switch entries[i].Reason {
		case journey.FreezeDrop:
			drop = &entries[i]
		case journey.FreezeRetx:
			retx = &entries[i]
		}
	}
	if drop == nil {
		t.Fatalf("no drop-frozen journey among %d flight entries", len(entries))
	}
	sp := drop.Journey.DroppedAt()
	if sp == nil {
		t.Fatal("drop-frozen journey has no dropped span")
	}
	if sp.Node != "C->R1" || sp.Cause != "down" {
		t.Fatalf("drop attributed to %q cause %q, want the impaired link C->R1/down", sp.Node, sp.Cause)
	}
	// The flight recorder also froze the stalled timeline when the fetcher
	// retransmitted, and the stalled instance is the dropped one.
	if retx == nil {
		t.Fatal("no retx-frozen journey: the fetcher's retransmission was not recorded")
	}
	if retx.Journey.Trace != drop.Journey.Trace {
		t.Fatalf("retx froze trace %016x, drop froze %016x — should be the same packet",
			uint64(retx.Journey.Trace), uint64(drop.Journey.Trace))
	}
}

func TestJourneyChaosDeterministic(t *testing.T) {
	c1, c2 := runJourneyChaos(t), runJourneyChaos(t)
	j1, j2 := c1.Journeys(), c2.Journeys()
	if len(j1) != len(j2) {
		t.Fatalf("journey counts differ: %d vs %d", len(j1), len(j2))
	}
	for i := range j1 {
		d1, d2 := j1[i].Decompose(), j2[i].Decompose()
		if j1[i].Trace != j2[i].Trace || j1[i].Path() != j2[i].Path() ||
			d1.TotalNs != d2.TotalNs || d1.QueueNs != d2.QueueNs ||
			d1.WireNs != d2.WireNs || d1.PITWaitNs != d2.PITWaitNs {
			t.Fatalf("journey %d differs across runs:\n %s %+v\n %s %+v",
				i, j1[i].Path(), d1, j2[i].Path(), d2)
		}
	}
}
