package workload

import (
	"reflect"
	"testing"
	"time"

	"dip/internal/cc"
)

// TestFleetCCSmoke is the `make ccsmoke` gate: a moderate-load fleet run
// must complete every object, dead-letter nothing, and split the
// bottleneck fairly (Jain ≥ 0.9) — the congestion controller keeping tens
// of consumers out of each other's way.
func TestFleetCCSmoke(t *testing.T) {
	fl, err := NewFleet(FleetConfig{
		Consumers:          48,
		ObjectsPerConsumer: 3,
		Objects:            128,
		SegsPerObject:      8,
		SegSize:            1000,
		BottleneckBPS:      50_000_000,
		Horizon:            30 * time.Second,
		Seed:               42,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := fl.Run()

	want := int64(48 * 3)
	if res.ObjectsCompleted != want || res.ObjectsFailed != 0 {
		t.Fatalf("completed %d failed %d, want %d/0", res.ObjectsCompleted, res.ObjectsFailed, want)
	}
	if res.DeadLetters != 0 {
		t.Fatalf("dead letters = %d, want 0 at moderate load", res.DeadLetters)
	}
	if res.JainIndex < 0.9 {
		t.Fatalf("Jain index %.3f < 0.9", res.JainIndex)
	}
	if res.GoodputBytes != want*8*1000 {
		t.Fatalf("goodput %d bytes, want %d", res.GoodputBytes, want*8*1000)
	}
	if res.P50 <= 0 || res.P99 < res.P50 {
		t.Fatalf("percentiles p50=%v p99=%v", res.P50, res.P99)
	}
	if res.GoodputBps <= 0 {
		t.Fatalf("goodput rate %.0f", res.GoodputBps)
	}
}

// Same seed, same config → bit-identical outcome, per-consumer stats
// included. The fleet is an experiment, not a lottery.
func TestFleetDeterministicBySeed(t *testing.T) {
	cfg := FleetConfig{
		Consumers:          24,
		ObjectsPerConsumer: 2,
		SegsPerObject:      6,
		BottleneckBPS:      10_000_000,
		LossProb:           0.02,
		IPLoad:             0.2,
		Horizon:            20 * time.Second,
		Seed:               7,
	}
	run := func() *FleetResult {
		fl, err := NewFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return fl.Run()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
	if a.Retransmits == 0 {
		t.Fatal("2% loss produced no retransmits — loss model not engaged")
	}
	c := cfg
	c.Seed = 8
	fl, err := NewFleet(c)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, fl.Run()) {
		t.Fatal("different seeds produced identical runs")
	}
}

// A flash crowd hammering a Zipf-hot catalog through one router must be
// absorbed by PIT aggregation and the content store: everyone completes,
// and the bottleneck carries far fewer bytes than consumers received.
func TestFleetFlashCrowdAggregates(t *testing.T) {
	fl, err := NewFleet(FleetConfig{
		Consumers:          8,
		FlashConsumers:     400,
		FlashAt:            2 * time.Second,
		FlashWindow:        20 * time.Millisecond,
		ObjectsPerConsumer: 1,
		Objects:            64,
		SegsPerObject:      8,
		SegSize:            1000,
		ZipfS:              1.5,
		BottleneckBPS:      20_000_000,
		CacheEntries:       1024,
		// A hot PIT entry is collectively refreshed by every pending
		// consumer's retransmissions, so punch-through needs deeper backoff
		// than the per-consumer default budgets for.
		MaxRetx: 10,
		Horizon: 30 * time.Second,
		Seed:    11,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := fl.Run()

	if res.ObjectsFailed != 0 || res.DeadLetters != 0 {
		t.Fatalf("flash crowd saw failures: %+v", res)
	}
	if res.ObjectsCompleted != 8+400 {
		t.Fatalf("completed %d objects, want %d", res.ObjectsCompleted, 8+400)
	}
	// 408 consumers received ~8KB each; the shared link must have carried
	// well under half of that (the rest served by cache/PIT fan-out).
	if res.BottleneckBytes >= res.GoodputBytes/2 {
		t.Fatalf("bottleneck carried %d of %d goodput bytes — no aggregation happened",
			res.BottleneckBytes, res.GoodputBytes)
	}
	if res.CacheEntriesEnd == 0 {
		t.Fatal("content store never populated")
	}
}

// NDN fetching and IP background traffic share the fabric: both make it
// across, and the IP load doesn't starve the fetches.
func TestFleetMixedIPAndNDN(t *testing.T) {
	fl, err := NewFleet(FleetConfig{
		Consumers:          16,
		ObjectsPerConsumer: 2,
		SegsPerObject:      4,
		BottleneckBPS:      20_000_000,
		IPLoad:             0.3,
		Horizon:            20 * time.Second,
		Seed:               3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := fl.Run()
	if res.IPDelivered == 0 {
		t.Fatal("no background IP packets crossed the fabric")
	}
	if res.ObjectsCompleted != 16*2 || res.ObjectsFailed != 0 {
		t.Fatalf("NDN fetches suffered under IP load: %+v", res)
	}
}

// Ten thousand consumers is a normal fleet run, not a special mode: the
// closed loops, PIT, and window control keep the run finishing with zero
// dead letters in bounded virtual time.
func TestFleetTenThousandConsumers(t *testing.T) {
	if testing.Short() {
		t.Skip("large fleet skipped in -short")
	}
	fl, err := NewFleet(FleetConfig{
		Consumers:          10_000,
		ObjectsPerConsumer: 1,
		Objects:            512,
		SegsPerObject:      4,
		SegSize:            600,
		RampWindow:         8 * time.Second,
		BottleneckBPS:      100_000_000,
		CacheEntries:       2048,
		Horizon:            60 * time.Second,
		Seed:               1001,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := fl.Run()
	if res.ObjectsCompleted != 10_000 || res.ObjectsFailed != 0 || res.DeadLetters != 0 {
		t.Fatalf("10k-consumer fleet: %+v", res)
	}
	if res.JainIndex < 0.9 {
		t.Fatalf("Jain index %.3f < 0.9 at 10k consumers", res.JainIndex)
	}
}

// Blind fixed-window fetching loses to the adaptive controller on the
// same congested fleet — the fleet-level version of the chaos acceptance
// test, and the shape E19 plots.
func TestFleetAdaptiveBeatsBlindUnderCongestion(t *testing.T) {
	base := FleetConfig{
		Consumers:          24,
		ObjectsPerConsumer: 3,
		Objects:            64,
		SegsPerObject:      8,
		SegSize:            1000,
		BottleneckBPS:      4_000_000, // tight: aggregate demand exceeds it
		BottleneckQueue:    10 * time.Millisecond,
		CacheEntries:       -1, // no cache: every byte crosses the bottleneck
		Horizon:            40 * time.Second,
		Seed:               21,
		MaxRetx:            8,
	}
	run := func(algo cc.Algo, initCwnd int) *FleetResult {
		cfg := base
		cfg.CC = cc.Config{Algo: algo, InitCwnd: initCwnd, MaxCwnd: 64,
			RTT: cc.RTTConfig{InitRTO: 100 * time.Millisecond, MinRTO: 20 * time.Millisecond}}
		fl, err := NewFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return fl.Run()
	}
	adaptive := run(cc.AlgoAIMD, 2)
	blind := run(cc.AlgoBlind, 16) // fixed window, fixed RTO + backoff
	for _, row := range []struct {
		algo string
		res  *FleetResult
	}{{"aimd", adaptive}, {"blind", blind}} {
		t.Logf("%-5s goodput %.0f bps, objects %d/%d, retx %d, cuts %d, jain %.3f, p50 %v, p99 %v",
			row.algo, row.res.GoodputBps, row.res.ObjectsCompleted, row.res.ObjectsCompleted+row.res.ObjectsFailed,
			row.res.Retransmits, row.res.CwndCuts, row.res.JainIndex, row.res.P50, row.res.P99)
	}

	if adaptive.ObjectsCompleted < blind.ObjectsCompleted {
		t.Fatalf("adaptive completed %d < blind %d", adaptive.ObjectsCompleted, blind.ObjectsCompleted)
	}
	if adaptive.Retransmits >= blind.Retransmits {
		t.Fatalf("adaptive retransmits %d ≥ blind %d", adaptive.Retransmits, blind.Retransmits)
	}
	if adaptive.CwndCuts == 0 {
		t.Fatal("congestion never cut the adaptive window")
	}
	if adaptive.JainIndex < 0.9 {
		t.Fatalf("adaptive Jain %.3f < 0.9", adaptive.JainIndex)
	}
}

func TestJainIndex(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 1},
		{[]float64{0, 0}, 1},
		{[]float64{5, 5, 5, 5}, 1},
		{[]float64{1, 0, 0, 0}, 0.25},
	} {
		if got := JainIndex(tc.xs); got < tc.want-1e-9 || got > tc.want+1e-9 {
			t.Errorf("JainIndex(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if j := JainIndex([]float64{3, 4, 5}); j <= 0.25 || j >= 1 {
		t.Errorf("uneven shares gave %v", j)
	}
}

func TestCompletionPercentile(t *testing.T) {
	ds := []time.Duration{4, 1, 3, 2}
	if p := CompletionPercentile(ds, 0.5); p != 2 {
		t.Errorf("p50 = %v", p)
	}
	if p := CompletionPercentile(ds, 0.99); p != 4 {
		t.Errorf("p99 = %v", p)
	}
	if p := CompletionPercentile(nil, 0.5); p != 0 {
		t.Errorf("empty percentile = %v", p)
	}
	if got := []time.Duration{4, 1, 3, 2}; !reflect.DeepEqual(ds, got) {
		t.Error("input mutated")
	}
}
