package dip

// Tiered content-store acceptance tests: the cold tier must never block a
// forwarder. The proof is constructive — cold reads are held in flight by
// a test gate while hot-tier interests keep being served through the same
// router; only after the gate opens do the parked interests complete, via
// the async re-injection path (data packet → F_PIT consume → replicate to
// the recorded ports → hot-tier promotion).

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"dip/internal/core"
	"dip/internal/host"
)

const (
	ctHotCap   = 8
	ctConsumer = 0
)

// tieredRig is one router with a two-tier store, port 0 capturing output.
type tieredRig struct {
	r       *Router
	tiered  *ContentStore
	mu      sync.Mutex
	replies []uint32 // data names seen on the consumer port
	gotData chan uint32
}

func newTieredRig(t *testing.T, readers int, gate func()) *tieredRig {
	t.Helper()
	rig := &tieredRig{gotData: make(chan uint32, 256)}
	st := NewNodeState().EnableCache(ctHotCap)
	tiered := st.ContentStore
	err := tiered.OpenCold(TieredConfig{
		Slots:    128,
		SlotSize: 256,
		Readers:  readers,
		ReadGate: gate,
	})
	if err != nil {
		t.Fatalf("OpenCold: %v", err)
	}
	t.Cleanup(func() { tiered.Close() })
	rig.tiered = tiered
	rig.r = NewRouter(st.OpsConfig(), RouterOptions{Name: "edge"})
	rig.r.AttachPort(PortFunc(func(pkt []byte) {
		v, err := core.ParseView(pkt)
		if err != nil {
			return
		}
		if name, ok := host.DataName(v); ok {
			rig.mu.Lock()
			rig.replies = append(rig.replies, name)
			rig.mu.Unlock()
			rig.gotData <- name
		}
	}))
	// Completed cold reads re-enter as ordinary data packets; HandlePacket
	// is safe to call from the reader goroutine concurrently with the
	// test's own submissions, exactly as worker forwarders do.
	tiered.SetReinject(func(name uint32, data []byte, _, _ int64) {
		pkt, err := BuildPacket(NDNDataProfile(name), data)
		if err != nil {
			return
		}
		rig.r.HandlePacket(pkt, ctConsumer)
	})
	return rig
}

// preload pushes names 0xAA000000+i through the tiered store so that the
// low names have spilled cold and only the newest ctHotCap remain hot.
func (rig *tieredRig) preload(t *testing.T, n int) {
	t.Helper()
	payload := []byte("tier-payload-XXXX")
	for i := 0; i < n; i++ {
		name := uint32(0xAA000000 + i)
		rig.tiered.Put(name, payload)
		rig.tiered.Get(name) // touch: admit to cold on eviction
	}
	// Spills ride the async queue; wait until the worker has indexed every
	// eviction so cold lookups below are deterministic.
	want := uint64(n - ctHotCap)
	for i := 0; rig.tiered.Stats().Spilled < want; i++ {
		if i > 5000 {
			t.Fatalf("only %d/%d spills completed", rig.tiered.Stats().Spilled, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func (rig *tieredRig) interest(t *testing.T, name uint32) {
	t.Helper()
	pkt, err := BuildPacket(NDNInterestProfile(name), nil)
	if err != nil {
		t.Fatal(err)
	}
	rig.r.HandlePacket(pkt, ctConsumer)
}

// TestColdReadNeverBlocksForwarder is the headline acceptance pin. A cold
// read is parked inside the gate; while it is in flight the hot path must
// keep serving — every hot-tier interest completes with the gate still
// closed, which is only possible if RequestCold returned without waiting
// on the pread. Opening the gate then satisfies the parked interest
// through re-injection.
func TestColdReadNeverBlocksForwarder(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 16)
	rig := newTieredRig(t, 1, func() {
		entered <- struct{}{}
		<-release
	})
	rig.preload(t, 32) // 0xAA000000..0xAA00001F; 0..23 cold, 24..31 hot

	coldName := uint32(0xAA000000)
	hotName := uint32(0xAA000000 + 31)
	rig.interest(t, coldName)
	select {
	case <-entered: // the reader goroutine is now parked mid-read
	case <-time.After(5 * time.Second):
		t.Fatal("cold read never started")
	}

	// With the cold read pinned in flight, the forwarding path must stay
	// fully available: 100 hot-tier interests, all served from RAM.
	start := time.Now()
	for i := 0; i < 100; i++ {
		rig.interest(t, hotName)
	}
	hotElapsed := time.Since(start)
	hotServed := 0
	for deadline := time.After(5 * time.Second); hotServed < 100; {
		select {
		case name := <-rig.gotData:
			if name == coldName {
				t.Fatal("cold data delivered while the read was gated")
			}
			if name == hotName {
				hotServed++
			}
		case <-deadline:
			t.Fatalf("only %d/100 hot replies while cold read in flight", hotServed)
		}
	}
	// Sanity bound, far above any hot-path cost but far below a blocked
	// forwarder waiting on the gate: 100 RAM hits must be near-instant.
	if hotElapsed > 2*time.Second {
		t.Fatalf("hot path took %v with a cold read in flight", hotElapsed)
	}
	if st := rig.tiered.Stats(); st.PendingReads != 1 {
		t.Fatalf("PendingReads = %d with the gate closed, want 1", st.PendingReads)
	}

	close(release)
	select {
	case name := <-rig.gotData:
		if name != coldName {
			t.Fatalf("post-release delivery was %#08x, want the cold name", name)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked interest never satisfied after gate release")
	}
	st := rig.tiered.Stats()
	if st.Reinjected != 1 || st.ReadErrors != 0 {
		t.Fatalf("Reinjected=%d ReadErrors=%d", st.Reinjected, st.ReadErrors)
	}
	// Re-injection runs the data packet through F_PIT, whose cache insert
	// promotes the payload: the next interest for it is a hot hit.
	if _, ok := rig.tiered.Get(coldName); !ok {
		t.Fatal("cold payload not promoted to hot tier after re-injection")
	}
}

// TestColdInterestAggregation: interests for the same cold name arriving
// while its read is in flight aggregate onto the parked PIT entry — one
// read, one re-injection, every requester answered.
func TestColdInterestAggregation(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{}, 16)
	rig := newTieredRig(t, 1, func() {
		entered <- struct{}{}
		<-release
	})
	rig.preload(t, 32)

	coldName := uint32(0xAA000001)
	rig.interest(t, coldName)
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("cold read never started")
	}
	for i := 0; i < 4; i++ {
		rig.interest(t, coldName) // aggregates; must not start more reads
	}
	if st := rig.tiered.Stats(); st.PendingReads != 1 {
		t.Fatalf("PendingReads = %d after aggregation, want 1", st.PendingReads)
	}
	close(release)
	select {
	case name := <-rig.gotData:
		if name != coldName {
			t.Fatalf("delivered %#08x, want %#08x", name, coldName)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("aggregated interests never satisfied")
	}
	if st := rig.tiered.Stats(); st.Reinjected != 1 {
		t.Fatalf("Reinjected = %d, want exactly 1 for the aggregated set", st.Reinjected)
	}
}

// TestTieredMetricsExported drives traffic over both tiers and asserts the
// dip_cs_* per-tier series appear on the metrics surface.
func TestTieredMetricsExported(t *testing.T) {
	rig := newTieredRig(t, 1, nil)
	rig.preload(t, 32)
	rig.interest(t, 0xAA00001F) // hot hit
	rig.interest(t, 0xAA000002) // cold hit → park → async reinject
	select {
	case <-rig.gotData:
	case <-time.After(5 * time.Second):
		t.Fatal("no data delivered")
	}

	var buf bytes.Buffer
	src := MetricsSource{
		Node:   "edge",
		CS:     rig.tiered,
		CSTier: rig.tiered.Stats,
	}
	src.WriteMetrics(&buf)
	out := buf.String()
	for _, want := range []string{
		`dip_cs_tier_hits_total{node="edge",tier="hot"}`,
		`dip_cs_tier_hits_total{node="edge",tier="cold"}`,
		"dip_cs_tier_misses_total",
		"dip_cs_spilled_total",
		"dip_cs_admission_filtered_total",
		"dip_cs_cold_read_ns_count",
		`dip_cs_cold_slots{node="edge",state="used"}`,
		"dip_cs_reinjected_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	st := rig.tiered.Stats()
	if st.HotHits == 0 || st.ColdHits == 0 || st.Spilled == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
}

// TestZeroAllocTieredHotHit pins that the tiered store's hot hit keeps the
// engine path allocation-free — layering the cold tier must cost the fast
// path nothing.
func TestZeroAllocTieredHotHit(t *testing.T) {
	st := NewNodeState().EnableCache(64)
	tiered := st.ContentStore
	if err := tiered.OpenCold(TieredConfig{Slots: 64}); err != nil {
		t.Fatal(err)
	}
	defer tiered.Close()
	name := uint32(0xAA000000)
	tiered.Put(name, []byte("cached payload"))
	engine := core.NewEngine(NewRouterRegistry(st.OpsConfig()), Limits{})
	pkt, err := BuildPacket(NDNInterestProfile(name), nil)
	if err != nil {
		t.Fatal(err)
	}
	var ctx ExecContext
	run := func() {
		pkt[3] = 64 // restore hop limit
		v, err := ParsePacket(pkt)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Reset(v, 0)
		engine.Process(&ctx)
		if ctx.Verdict != VerdictAbsorb || ctx.Cached == nil {
			t.Fatal("interest not served from hot tier")
		}
	}
	run()
	if n := testing.AllocsPerRun(200, run); n != 0 {
		t.Fatalf("tiered hot hit allocates %.1f/op, want 0", n)
	}
}
