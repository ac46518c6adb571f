// Package churn is the control-plane scale harness: it installs 850 000
// routes (IPv4-style 32-bit and IPv6-style 128-bit) through batched FIB
// transactions, then replays seeded add/withdraw storms against the live
// tables while lookup samplers — and optionally a full burst dataplane —
// hammer the same snapshots at full rate. It measures what the RCU design promises to keep flat:
//
//   - lookup latency during churn vs at quiescence (the jitter a reader
//     pays for a writer publishing snapshots under it),
//   - snapshot-publication cost (time inside Txn.Commit, one pointer
//     store per batch),
//   - the memory high-water mark (COW garbage from path copying is the
//     price of lock-free readers; it must be bounded, not cumulative).
//
// Everything is seeded and deterministic in *what* happens (which routes
// install, which ops each storm applies); only the measured durations
// vary run to run. The harness double-checks itself: after the storms it
// walks every table and compares against its own bookkeeping of the live
// set — a run that desynchronizes tables from intent reports OracleOK
// false and must fail whatever gate invoked it.
package churn

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dip/internal/fib"
	"dip/internal/node"
	"dip/internal/profiles"
	"dip/internal/router"
)

// Config sizes a harness run. Zero fields take the defaults noted.
type Config struct {
	// Routes32/Routes128 are how many distinct prefixes to install per
	// table (defaults 550_000 / 300_000).
	Routes32, Routes128 int
	// Batch is the number of operations per committed transaction
	// (default 4096): one snapshot publish per Batch routes.
	Batch int
	// Storms is the number of churn rounds (default 8); StormOps the
	// add/withdraw operations per round (default 20_000).
	Storms, StormOps int
	// Seed drives all route generation and storm composition.
	Seed int64
	// Samplers is the number of concurrent lookup-latency goroutines
	// running during storms (default 2); SamplesPerStorm the number of
	// timed lookups each takes per batch of samples (default 2000).
	Samplers, SamplesPerStorm int
	// Forward adds a burst dataplane: a node.Build router whose FIB32 is
	// the churning 32-bit table, serving submitted bursts at full rate on
	// ForwardWorkers forwarders (default GOMAXPROCS/2, min 1) while the
	// storms run.
	Forward        bool
	ForwardWorkers int
	// Log receives progress lines; nil discards.
	Log func(format string, args ...any)
}

func (c *Config) defaults() {
	if c.Routes32 == 0 {
		c.Routes32 = 550_000
	}
	if c.Routes128 == 0 {
		c.Routes128 = 300_000
	}
	if c.Batch == 0 {
		c.Batch = 4096
	}
	if c.Storms == 0 {
		c.Storms = 8
	}
	if c.StormOps == 0 {
		c.StormOps = 20_000
	}
	if c.Samplers == 0 {
		c.Samplers = 2
	}
	if c.SamplesPerStorm == 0 {
		c.SamplesPerStorm = 2000
	}
	if c.ForwardWorkers == 0 {
		c.ForwardWorkers = runtime.GOMAXPROCS(0) / 2
		if c.ForwardWorkers < 1 {
			c.ForwardWorkers = 1
		}
	}
}

// Result is what a run measured. All *Ns fields are wall nanoseconds.
type Result struct {
	// Installed is the number of distinct prefixes resident after
	// installation; InstallNs the wall time of the whole installation.
	Installed int
	InstallNs int64
	// Commits counts snapshot publishes (install + storms); CommitNs is
	// the cumulative time spent inside Commit — the publication cost the
	// batched Txn design amortizes.
	Commits     int64
	CommitNs    int64
	NsPerCommit float64
	// StormOpsApplied counts add/withdraw operations replayed; StormNs is
	// the wall time of the storm phase.
	StormOpsApplied int
	StormNs         int64
	// Lookup latency percentiles, nanoseconds: Quiesce* sampled with no
	// writer running, Storm* sampled while storms committed against the
	// same tables. JitterRatio = StormP99/QuiesceP99 — the number
	// BenchmarkChurnJitter reports and make benchguard gates.
	QuiesceP50, QuiesceP99 int64
	StormP50, StormP99     int64
	StormMax               int64
	JitterRatio            float64
	Samples                int
	// HeapHighWater is the max HeapAlloc observed at batch/storm
	// boundaries.
	HeapHighWater uint64
	// Forwarded counts packets the burst dataplane processed during the
	// storm phase (0 unless Config.Forward).
	Forwarded int64
	// OracleOK reports the post-run self-check: every table's contents
	// exactly match the harness's bookkeeping of what should be live.
	OracleOK   bool
	OracleDiag string
}

// route32 is one generated 32-bit (address or content-name) prefix,
// already masked to its length — distinct by construction.
type route32 struct {
	key  uint32
	plen int
}

type route128 struct {
	key  [16]byte
	plen int
}

func mask128(k [16]byte, plen int) [16]byte {
	for i := range k {
		before := i * 8
		switch {
		case before+8 <= plen:
			// whole byte inside the prefix: keep
		case before >= plen:
			k[i] = 0
		default:
			k[i] &= 0xFF << (8 - (plen - before))
		}
	}
	return k
}

// generate builds the two deterministic, collision-free route sets.
// Keys are multiplicative-hashed counters: distinct, hash-shaped, and
// reproducible from the counter alone; masking to the prefix length plus
// a dedupe map makes every entry a distinct (prefix, plen) pair, so the
// storm bookkeeping maps 1:1 onto table contents.
func generate(cfg *Config) ([]route32, []route128) {
	r32 := make([]route32, 0, cfg.Routes32)
	seen32 := make(map[route32]bool, cfg.Routes32)
	for i := uint32(1); len(r32) < cfg.Routes32; i++ {
		k := i * 2654435761
		plen := 16 + int(k>>28)%9 // /16../24
		k &^= 1<<(32-plen) - 1
		r := route32{key: k, plen: plen}
		if !seen32[r] {
			seen32[r] = true
			r32 = append(r32, r)
		}
	}
	r128 := make([]route128, 0, cfg.Routes128)
	seen128 := make(map[route128]bool, cfg.Routes128)
	for i := uint64(1); len(r128) < cfg.Routes128; i++ {
		var k [16]byte
		binary.BigEndian.PutUint64(k[:8], i*0x9E3779B97F4A7C15)
		binary.BigEndian.PutUint64(k[8:], i*0xC2B2AE3D27D4EB4F)
		plen := 32 + int(k[15])%33 // /32../64
		r := route128{key: mask128(k, plen), plen: plen}
		if !seen128[r] {
			seen128[r] = true
			r128 = append(r128, r)
		}
	}
	return r32, r128
}

// Run executes the harness.
func Run(cfg Config) Result {
	cfg.defaults()
	logf := func(format string, args ...any) {
		if cfg.Log != nil {
			cfg.Log(format, args...)
		}
	}
	res := Result{}
	var highWater uint64
	water := func() {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		if m.HeapAlloc > highWater {
			highWater = m.HeapAlloc
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	routes32, routes128 := generate(&cfg)

	t32, t128 := fib.New(), fib.New()
	var dp *node.Node
	if cfg.Forward {
		var err error
		dp, err = node.Build(node.Spec{Name: "churn-dp", Workers: cfg.ForwardWorkers, Batch: 64}, node.WallEnv(nil))
		if err != nil {
			panic("churn: dataplane: " + err.Error())
		}
		for p := 0; p < 8; p++ {
			dp.AttachPort(router.PortFunc(func([]byte) {}), false)
		}
		t32 = dp.State.FIB32
	}
	var commits, commitNs atomic.Int64
	commit := func(c interface{ Commit() }) {
		start := time.Now()
		c.Commit()
		commitNs.Add(time.Since(start).Nanoseconds())
		commits.Add(1)
	}
	nh := func(i int) fib.NextHop { return fib.NextHop{Port: i & 7} }

	// ---- install phase ----
	logf("installing %d+%d routes in batches of %d",
		len(routes32), len(routes128), cfg.Batch)
	installStart := time.Now()
	var k4 [4]byte
	for off := 0; off < len(routes32); off += cfg.Batch {
		x := t32.Txn()
		for i := off; i < off+cfg.Batch && i < len(routes32); i++ {
			binary.BigEndian.PutUint32(k4[:], routes32[i].key)
			x.Add(k4[:], routes32[i].plen, nh(i))
		}
		commit(x)
		if (off/cfg.Batch)%16 == 0 {
			water()
		}
	}
	for off := 0; off < len(routes128); off += cfg.Batch {
		x := t128.Txn()
		for i := off; i < off+cfg.Batch && i < len(routes128); i++ {
			x.Add(routes128[i].key[:], routes128[i].plen, nh(i))
		}
		commit(x)
		if (off/cfg.Batch)%16 == 0 {
			water()
		}
	}
	res.InstallNs = time.Since(installStart).Nanoseconds()
	water()
	res.Installed = countTable(t32) + countTable(t128)
	logf("installed %d resident routes in %v", res.Installed, time.Duration(res.InstallNs))

	// ---- quiescent lookup baseline ----
	quiesce := sampleLookups(rng.Int63(), t32, t128, routes32, routes128,
		cfg.Samplers*cfg.SamplesPerStorm)
	res.QuiesceP50, res.QuiesceP99 = percentile(quiesce, 50), percentile(quiesce, 99)

	// ---- storm phase: writer vs samplers (vs dataplane) ----
	// live[i] tracks whether entry i should currently be resident; the
	// storms flip entries through batched transactions.
	live32 := make([]bool, len(routes32))
	live128 := make([]bool, len(routes128))
	for i := range live32 {
		live32[i] = true
	}
	for i := range live128 {
		live128[i] = true
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	latCh := make(chan []int64, cfg.Samplers)
	for s := 0; s < cfg.Samplers; s++ {
		seed := rng.Int63()
		wg.Add(1)
		go func() {
			defer wg.Done()
			var all []int64
			for !stop.Load() {
				all = append(all, sampleLookups(seed, t32, t128,
					routes32, routes128, cfg.SamplesPerStorm)...)
				seed++
			}
			latCh <- all
		}()
	}

	var forwarded atomic.Int64
	var fwdWG sync.WaitGroup
	// The storms start once the dataplane has submitted its first burst,
	// so a short storm phase cannot finish before any packet was served.
	fwdLive := make(chan struct{})
	if cfg.Forward {
		fwdWG.Add(1)
		go func() {
			defer fwdWG.Done()
			frng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
			for first := true; !stop.Load(); first = false {
				burst := make([][]byte, 0, 64)
				for i := 0; i < 64; i++ {
					rt := routes32[frng.Intn(len(routes32))]
					var dst [4]byte
					binary.BigEndian.PutUint32(dst[:], rt.key)
					h := profiles.IPv4([4]byte{10, 0, 0, 1}, dst)
					pkt, err := h.AppendTo(make([]byte, 0, h.WireSize()))
					if err != nil {
						continue
					}
					burst = append(burst, pkt)
				}
				forwarded.Add(int64(dp.Ingress.SubmitBurst(burst, 0)))
				if first {
					close(fwdLive)
				}
			}
		}()
		<-fwdLive
	}

	stormStart := time.Now()
	srng := rand.New(rand.NewSource(cfg.Seed + 1))
	opsApplied := 0
	for storm := 0; storm < cfg.Storms; storm++ {
		remaining := cfg.StormOps
		for remaining > 0 {
			x32, x128 := t32.Txn(), t128.Txn()
			n := cfg.Batch
			if n > remaining {
				n = remaining
			}
			for i := 0; i < n; i++ {
				// Pick a table proportional to its size, then a random
				// entry in it, and flip its residency.
				which := srng.Intn(len(routes32) + len(routes128))
				switch {
				case which < len(routes32):
					j := srng.Intn(len(routes32))
					binary.BigEndian.PutUint32(k4[:], routes32[j].key)
					if live32[j] {
						x32.Remove(k4[:], routes32[j].plen)
					} else {
						x32.Add(k4[:], routes32[j].plen, nh(j))
					}
					live32[j] = !live32[j]
				default:
					j := srng.Intn(len(routes128))
					if live128[j] {
						x128.Remove(routes128[j].key[:], routes128[j].plen)
					} else {
						x128.Add(routes128[j].key[:], routes128[j].plen, nh(j))
					}
					live128[j] = !live128[j]
				}
			}
			commit(x32)
			commit(x128)
			opsApplied += n
			remaining -= n
		}
		water()
		logf("storm %d/%d done (%d ops total)", storm+1, cfg.Storms, opsApplied)
	}
	res.StormNs = time.Since(stormStart).Nanoseconds()
	res.StormOpsApplied = opsApplied

	stop.Store(true)
	wg.Wait()
	var all []int64
	for s := 0; s < cfg.Samplers; s++ {
		all = append(all, <-latCh...)
	}
	if cfg.Forward {
		fwdWG.Wait()
		dp.Close()
	}
	res.Forwarded = forwarded.Load()

	res.Samples = len(all)
	res.StormP50, res.StormP99 = percentile(all, 50), percentile(all, 99)
	res.StormMax = percentile(all, 100)
	if res.QuiesceP99 > 0 {
		res.JitterRatio = float64(res.StormP99) / float64(res.QuiesceP99)
	}
	res.Commits = commits.Load()
	res.CommitNs = commitNs.Load()
	if res.Commits > 0 {
		res.NsPerCommit = float64(res.CommitNs) / float64(res.Commits)
	}
	res.HeapHighWater = highWater

	// ---- oracle: tables must equal the bookkeeping exactly ----
	res.OracleOK, res.OracleDiag = verify(t32, t128,
		routes32, routes128, live32, live128)
	return res
}

// sampleLookups times count lookups alternating between the two tables and
// returns the per-lookup nanosecond latencies.
func sampleLookups(seed int64, t32, t128 *fib.Table,
	r32 []route32, r128 []route128, count int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, 0, count)
	for i := 0; i < count; i++ {
		if i%2 == 0 {
			k := r32[rng.Intn(len(r32))].key
			start := time.Now()
			t32.LookupUint32(k)
			out = append(out, time.Since(start).Nanoseconds())
		} else {
			k := r128[rng.Intn(len(r128))].key
			start := time.Now()
			t128.Lookup(k[:], 128)
			out = append(out, time.Since(start).Nanoseconds())
		}
	}
	return out
}

// verify walks every table both ways against the live bookkeeping: every
// live entry resident, nothing resident that is not live. Collision-free
// generation makes this exact.
func verify(t32, t128 *fib.Table,
	r32 []route32, r128 []route128,
	live32, live128 []bool) (bool, string) {
	want32 := make(map[route32]bool, len(r32))
	for i, r := range r32 {
		if live32[i] {
			want32[r] = true
		}
	}
	n32, diag := 0, ""
	t32.Walk(func(prefix []byte, plen int, _ fib.NextHop) bool {
		n32++
		r := route32{key: binary.BigEndian.Uint32(padTo(prefix, 4)), plen: plen}
		if !want32[r] {
			diag = fmt.Sprintf("t32 has dead/unknown prefix %08x/%d", r.key, plen)
			return false
		}
		return true
	})
	if diag != "" {
		return false, diag
	}
	if n32 != len(want32) {
		return false, fmt.Sprintf("t32 resident=%d want=%d", n32, len(want32))
	}
	want128 := make(map[route128]bool, len(r128))
	for i, r := range r128 {
		if live128[i] {
			want128[r] = true
		}
	}
	n128 := 0
	t128.Walk(func(prefix []byte, plen int, _ fib.NextHop) bool {
		n128++
		var r route128
		copy(r.key[:], padTo(prefix, 16))
		r.plen = plen
		if !want128[r] {
			diag = fmt.Sprintf("t128 has dead/unknown prefix %x/%d", r.key, plen)
			return false
		}
		return true
	})
	if diag != "" {
		return false, diag
	}
	if n128 != len(want128) {
		return false, fmt.Sprintf("t128 resident=%d want=%d", n128, len(want128))
	}
	return true, ""
}

func padTo(b []byte, n int) []byte {
	if len(b) >= n {
		return b[:n]
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

func countTable(t *fib.Table) int {
	n := 0
	t.Walk(func([]byte, int, fib.NextHop) bool { n++; return true })
	return n
}

func percentile(lats []int64, p int) int64 {
	if len(lats) == 0 {
		return 0
	}
	s := append([]int64(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if p >= 100 {
		return s[len(s)-1]
	}
	return s[len(s)*p/100]
}
