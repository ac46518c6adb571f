package churn

import (
	"testing"
)

// smallConfig scales the harness down to test size while keeping every
// phase live: install, storms, concurrent samplers, and the burst
// dataplane all run, so `go test -race ./internal/churn` exercises
// control-plane commits racing dataplane bursts and lookup samplers.
func smallConfig(seed int64) Config {
	return Config{
		Routes32:        2000,
		Routes128:       1000,
		Batch:           256,
		Storms:          2,
		StormOps:        1500,
		Seed:            seed,
		Samplers:        2,
		SamplesPerStorm: 200,
		Forward:         true,
		ForwardWorkers:  2,
	}
}

func TestChurnHarnessSmall(t *testing.T) {
	res := Run(smallConfig(42))
	if !res.OracleOK {
		t.Fatalf("oracle check failed: %s", res.OracleDiag)
	}
	if want := 2000 + 1000; res.Installed != want {
		t.Errorf("Installed = %d, want %d", res.Installed, want)
	}
	if res.StormOpsApplied != 2*1500 {
		t.Errorf("StormOpsApplied = %d, want %d", res.StormOpsApplied, 3000)
	}
	if res.Commits == 0 || res.CommitNs <= 0 {
		t.Errorf("no commit accounting: commits=%d ns=%d", res.Commits, res.CommitNs)
	}
	if res.Samples == 0 || res.StormP99 == 0 || res.QuiesceP99 == 0 {
		t.Errorf("latency sampling broken: samples=%d stormP99=%d quiesceP99=%d",
			res.Samples, res.StormP99, res.QuiesceP99)
	}
	if res.JitterRatio <= 0 {
		t.Errorf("JitterRatio = %v, want > 0", res.JitterRatio)
	}
	if res.Forwarded == 0 {
		t.Error("burst dataplane forwarded nothing during the storm phase")
	}
	if res.HeapHighWater == 0 {
		t.Error("heap high-water never sampled")
	}
}

// TestChurnDeterministicContents proves the harness is seeded: the same
// seed lands the same live set (oracle passes both times and installs
// match), so a jitter regression between runs is a code change, not luck.
func TestChurnDeterministicContents(t *testing.T) {
	if testing.Short() {
		t.Skip("second full run not worth it in short mode")
	}
	a := Run(smallConfig(7))
	b := Run(smallConfig(7))
	if !a.OracleOK || !b.OracleOK {
		t.Fatalf("oracle failed: %q / %q", a.OracleDiag, b.OracleDiag)
	}
	if a.Installed != b.Installed || a.StormOpsApplied != b.StormOpsApplied || a.Commits != b.Commits {
		t.Errorf("same seed diverged: installed %d/%d ops %d/%d commits %d/%d",
			a.Installed, b.Installed, a.StormOpsApplied, b.StormOpsApplied, a.Commits, b.Commits)
	}
}

// BenchmarkChurnJitter is E21 as a within-run number: the whole harness at
// 2 % of the 850k-route default per iteration (every phase live, the
// burst dataplane included), reporting storm-time p99 lookup latency over
// quiescent p99. A run whose oracle finds the tables desynchronized fails
// the benchmark rather than report a ratio.
func BenchmarkChurnJitter(b *testing.B) {
	cfg := Config{Routes32: 11_000, Routes128: 6_000, StormOps: 400, Seed: 21, Forward: true}
	ratio := 0.0
	for i := 0; i < b.N; i++ {
		res := Run(cfg)
		if !res.OracleOK {
			b.Fatalf("oracle check failed: %s", res.OracleDiag)
		}
		ratio += res.JitterRatio
	}
	b.ReportMetric(ratio/float64(b.N), "storm/quiesce-p99")
}

func TestGenerateDistinct(t *testing.T) {
	cfg := Config{Routes32: 5000, Routes128: 3000}
	cfg.defaults()
	r32, r128 := generate(&cfg)
	s32 := make(map[route32]bool)
	for _, r := range r32 {
		if s32[r] {
			t.Fatalf("duplicate 32-bit route %08x/%d", r.key, r.plen)
		}
		s32[r] = true
		if r.key&(1<<(32-r.plen)-1) != 0 {
			t.Fatalf("route %08x/%d has bits past its prefix length", r.key, r.plen)
		}
	}
	s128 := make(map[route128]bool)
	for _, r := range r128 {
		if s128[r] {
			t.Fatalf("duplicate 128-bit route %x/%d", r.key, r.plen)
		}
		s128[r] = true
		if masked := mask128(r.key, r.plen); masked != r.key {
			t.Fatalf("route %x/%d has bits past its prefix length", r.key, r.plen)
		}
	}
}

func TestMask128(t *testing.T) {
	k := [16]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	cases := []struct {
		plen int
		want [16]byte
	}{
		{0, [16]byte{}},
		{1, [16]byte{0x80}},
		{8, [16]byte{0xFF}},
		{12, [16]byte{0xFF, 0xF0}},
		{64, [16]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}},
		{128, k},
	}
	for _, c := range cases {
		if got := mask128(k, c.plen); got != c.want {
			t.Errorf("mask128(all-ones, %d) = %x, want %x", c.plen, got, c.want)
		}
	}
}
