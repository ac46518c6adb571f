package dip

import (
	"bytes"
	"testing"

	"dip/internal/core"
)

// These tests pin the hot-path allocation contract the benchmarks rely on:
// steady-state forwarding must not touch the heap. testing.AllocsPerRun
// turns a regression (a closure capture, an interface box, a map rehash on
// the wrong path) into a test failure instead of a silent benchmark drift.

func TestZeroAllocEngineProcess(t *testing.T) {
	state := NewNodeState()
	state.FIB32.AddUint32(0x0A000000, 8, NextHop{Port: 1})
	engine := core.NewEngine(NewRouterRegistry(state.OpsConfig()), Limits{})
	pkt, err := BuildPacket(IPv4Profile([4]byte{1, 1, 1, 1}, [4]byte{10, 0, 0, 9}), nil)
	if err != nil {
		t.Fatal(err)
	}
	var ctx ExecContext
	run := func() {
		pkt[3] = 64 // restore the hop limit the previous pass decremented
		v, err := ParsePacket(pkt)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Reset(v, 0)
		engine.Process(&ctx)
	}
	run() // warm up lazy state before counting
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("sequential Engine.Process allocates %.1f/op, want 0", n)
	}
}

// TestZeroAllocTracedEngineProcess repeats the engine contract with the
// full observability stack installed: a sampling trace recorder (1-in-N)
// wrapping live metrics. Both the unsampled and the sampled (ring-writing)
// packets must stay off the heap.
func TestZeroAllocTracedEngineProcess(t *testing.T) {
	state := NewNodeState()
	state.FIB32.AddUint32(0x0A000000, 8, NextHop{Port: 1})
	engine := core.NewEngine(NewRouterRegistry(state.OpsConfig()), Limits{})
	engine.SetRecorder(NewTraceRecorder(&Metrics{}, 8, 64))
	pkt, err := BuildPacket(IPv4Profile([4]byte{1, 1, 1, 1}, [4]byte{10, 0, 0, 9}), nil)
	if err != nil {
		t.Fatal(err)
	}
	var ctx ExecContext
	run := func() {
		pkt[3] = 64
		v, err := ParsePacket(pkt)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Reset(v, 0)
		engine.Process(&ctx)
	}
	run()
	// 160 runs at 1-in-8 sampling exercise the ring-writing path ~20 times.
	if n := testing.AllocsPerRun(160, run); n != 0 {
		t.Fatalf("traced Engine.Process allocates %.1f/op, want 0", n)
	}
}

// TestZeroAllocJourneyTapUnsampled pins the unsampled cost of the
// span-emitting trace recorder on the forwarding path: with a sampling rate
// so sparse no packet in the run is spanned, it must add only its sampling
// decision — no heap traffic.
func TestZeroAllocJourneyTapUnsampled(t *testing.T) {
	state := NewNodeState()
	state.FIB32.AddUint32(0x0A000000, 8, NextHop{Port: 1})
	engine := core.NewEngine(NewRouterRegistry(state.OpsConfig()), Limits{})
	sink := NewJourneyEmitter(64)
	engine.SetRecorder(NewRouterJourneyTap("R", sink, &Metrics{}, 1<<30, nil))
	pkt, err := BuildPacket(IPv4Profile([4]byte{1, 1, 1, 1}, [4]byte{10, 0, 0, 9}), nil)
	if err != nil {
		t.Fatal(err)
	}
	var ctx ExecContext
	run := func() {
		pkt[3] = 64
		v, err := ParsePacket(pkt)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Reset(v, 0)
		engine.Process(&ctx)
	}
	run()
	if n := testing.AllocsPerRun(160, run); n != 0 {
		t.Fatalf("journey-tapped Engine.Process allocates %.1f/op, want 0", n)
	}
	if sink.Added() != 0 {
		t.Fatalf("unsampled run emitted %d spans, want 0", sink.Added())
	}
}

// TestZeroAllocBurstPath pins the steady-state burst dataplane: burst
// submission (classification, flow-dispatch hashing, ring enqueue) plus
// a full Pump (burst collection, the pump's own context, engine
// processing per packet) must stay at 0 allocs/packet. Pump mode keeps
// the measurement on one goroutine, which is exactly the code path the
// forwarder goroutines run.
func TestZeroAllocBurstPath(t *testing.T) {
	state := NewNodeState()
	state.FIB32.AddUint32(0, 0, Local)
	r := NewRouter(state.OpsConfig(), RouterOptions{
		LocalDelivery: func([]byte, int) {},
	})
	in := r.ServeGuarded(ServeConfig{Workers: 0, Batch: 64, HighDepth: 128, LowDepth: 128})
	defer in.Close()
	pkts := make([][]byte, 64)
	for i := range pkts {
		// Distinct sources → distinct flow keys → the dispatch hash runs
		// over a different locations region for every packet.
		p, err := BuildPacket(IPv4Profile([4]byte{10, 0, byte(i), 1}, [4]byte{2, 2, 2, 2}), nil)
		if err != nil {
			t.Fatal(err)
		}
		pkts[i] = p
	}
	run := func() {
		for _, p := range pkts {
			p[3] = 64 // restore the hop limit the previous pass decremented
		}
		if n := in.SubmitBurst(pkts, 0); n != 64 {
			t.Fatalf("accepted %d/64", n)
		}
		if n := in.Pump(); n != 64 {
			t.Fatalf("pumped %d/64", n)
		}
	}
	run() // warm lazy state before counting
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("burst path allocates %.1f/burst, want 0", n)
	}
}

// TestZeroAllocTracedBurstPath repeats the burst contract with a sampling
// trace recorder installed: the amortized burst sampling (one seen-counter
// charge per burst, the context's private ordinal per packet) and the
// sampled ring writes must both stay off the heap.
func TestZeroAllocTracedBurstPath(t *testing.T) {
	state := NewNodeState()
	state.FIB32.AddUint32(0, 0, Local)
	m := &Metrics{}
	r := NewRouter(state.OpsConfig(), RouterOptions{
		Metrics:       m,
		Trace:         NewTraceRecorder(m, 8, 64),
		LocalDelivery: func([]byte, int) {},
	})
	in := r.ServeGuarded(ServeConfig{Workers: 0, Batch: 64, HighDepth: 128, LowDepth: 128})
	defer in.Close()
	pkts := make([][]byte, 64)
	for i := range pkts {
		p, err := BuildPacket(IPv4Profile([4]byte{10, 0, byte(i), 1}, [4]byte{2, 2, 2, 2}), nil)
		if err != nil {
			t.Fatal(err)
		}
		pkts[i] = p
	}
	run := func() {
		for _, p := range pkts {
			p[3] = 64
		}
		if n := in.SubmitBurst(pkts, 0); n != 64 {
			t.Fatalf("accepted %d/64", n)
		}
		if n := in.Pump(); n != 64 {
			t.Fatalf("pumped %d/64", n)
		}
	}
	run()
	// 1-in-8 sampling writes the trace ring 8 times per 64-packet burst.
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("traced burst path allocates %.1f/burst, want 0", n)
	}
}

// TestZeroAllocCacheHitBurstPath pins the cache-reply contract on the
// forwarder path: an interest the content store answers leaves as the data
// packet profiles.NDNData would marshal — hop limit copied from the
// interest — followed by the cached payload, built in the buffer the
// forwarder's context owns, so a hit costs 0 allocations. The port checks
// the bytes during Send and keeps nothing, as the Port contract demands.
func TestZeroAllocCacheHitBurstPath(t *testing.T) {
	const name = 0xAA000001
	payload := []byte("cached content bytes")
	state := NewNodeState().EnableCache(64)
	state.NameFIB.AddUint32(0xAA000000, 8, NextHop{Port: 1})
	r := NewRouter(state.OpsConfig(), RouterOptions{})
	want := func(hop byte, body []byte) []byte {
		h := NDNDataProfile(name)
		h.HopLimit = hop
		b, err := BuildPacket(h, body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	replies, expect := 0, want(63, payload)
	r.AttachPort(PortFunc(func(pkt []byte) {
		replies++
		if !bytes.Equal(pkt, expect) {
			t.Errorf("cache reply %x, want %x", pkt, expect)
		}
	}))
	r.AttachPort(PortFunc(func([]byte) {}))
	// Fill the store the way traffic does: interest out, data back.
	interest, err := BuildPacket(NDNInterestProfile(name), nil)
	if err != nil {
		t.Fatal(err)
	}
	r.HandlePacket(append([]byte(nil), interest...), 0)
	r.HandlePacket(want(64, payload), 1)
	if replies != 1 { // the data satisfied the pending interest: hop limit 63 too
		t.Fatalf("PIT fan-out sent %d packets to port 0, want 1", replies)
	}
	in := r.ServeGuarded(ServeConfig{Workers: 0, Batch: 64, HighDepth: 128, LowDepth: 128})
	defer in.Close()
	pkts := make([][]byte, 64)
	for i := range pkts {
		pkts[i] = append([]byte(nil), interest...)
	}
	run := func() {
		for _, p := range pkts {
			p[3] = 64
		}
		if n := in.SubmitBurst(pkts, 0); n != 64 {
			t.Fatalf("accepted %d/64", n)
		}
		if n := in.Pump(); n != 64 {
			t.Fatalf("pumped %d/64", n)
		}
	}
	run() // the first hit sizes the context's reply buffer
	if replies != 1+64 {
		t.Fatalf("%d replies after one burst of hits, want 65", replies)
	}
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Fatalf("cache-hit burst path allocates %.1f/burst, want 0", n)
	}
}

func TestZeroAllocFIBLookup(t *testing.T) {
	state := NewNodeState()
	for i := uint32(0); i < 1024; i++ {
		state.FIB32.AddUint32(i<<20, 12, NextHop{Port: int(i & 7)})
	}
	i := uint32(0)
	if n := testing.AllocsPerRun(1000, func() {
		state.FIB32.LookupUint32(i << 20)
		i = (i + 1) & 1023
	}); n != 0 {
		t.Fatalf("fib.Table.Lookup allocates %.1f/op, want 0", n)
	}
}

func TestZeroAllocPITCycle(t *testing.T) {
	p := NewNodeState().PIT
	buf := make([]int, 0, 8)
	k := uint32(0)
	cycle := func() {
		if _, err := p.AddInterest(k, int(k&3)); err != nil {
			t.Fatal(err)
		}
		buf, _ = p.Consume(buf[:0], k)
		k = (k + 1) & 4095
	}
	// Warm the shard maps, free lists, and per-port counters.
	for i := 0; i < 8192; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Fatalf("pit create/consume allocates %.1f/op, want 0", n)
	}
}

func TestZeroAllocContentStoreGet(t *testing.T) {
	s := NewNodeState().EnableCache(64).ContentStore
	payload := []byte("cached-object-payload")
	for i := uint32(0); i < 64; i++ {
		s.Put(i, payload)
	}
	i := uint32(0)
	if n := testing.AllocsPerRun(1000, func() {
		if _, ok := s.Get(i); !ok {
			t.Fatal("expected hit")
		}
		i = (i + 1) & 63
	}); n != 0 {
		t.Fatalf("cs.Store.Get allocates %.1f/op, want 0", n)
	}
}
