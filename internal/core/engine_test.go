package core

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testOp is a configurable operation module for engine tests.
type testOp struct {
	key   Key
	stage int
	fn    func(ctx *ExecContext, loc, bits uint) error
	calls atomic.Int64
}

func (o *testOp) Key() Key     { return o.key }
func (o *testOp) Name() string { return o.key.String() }
func (o *testOp) Stage() int   { return o.stage }
func (o *testOp) Execute(ctx *ExecContext, loc, bits uint) error {
	o.calls.Add(1)
	if o.fn != nil {
		return o.fn(ctx, loc, bits)
	}
	return nil
}

func buildPacket(t *testing.T, h *Header) View {
	t.Helper()
	b, err := h.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := ParseView(b)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestEngineSequentialDispatch(t *testing.T) {
	reg := NewRegistry()
	var order []Key
	var mu sync.Mutex
	mk := func(k Key) *testOp {
		return &testOp{key: k, stage: 1, fn: func(*ExecContext, uint, uint) error {
			mu.Lock()
			order = append(order, k)
			mu.Unlock()
			return nil
		}}
	}
	reg.MustRegister(mk(KeyFIB), mk(KeyParm), mk(KeyMAC))
	e := NewEngine(reg, Limits{})
	v := buildPacket(t, &Header{
		FNs: []FN{
			RouterFN(0, 8, KeyFIB),
			HostFN(0, 8, KeyVer), // must be skipped
			RouterFN(0, 8, KeyParm),
			RouterFN(0, 8, KeyMAC),
		},
		Locations: make([]byte, 1),
	})
	var ctx ExecContext
	ctx.Reset(v, 0)
	e.Process(&ctx)
	if ctx.Verdict != VerdictContinue {
		t.Errorf("verdict %v", ctx.Verdict)
	}
	want := []Key{KeyFIB, KeyParm, KeyMAC}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Errorf("execution order %v, want %v", order, want)
	}
}

func TestEngineHostTagSkipped(t *testing.T) {
	reg := NewRegistry()
	op := &testOp{key: KeyVer}
	reg.MustRegister(op)
	e := NewEngine(reg, Limits{})
	v := buildPacket(t, &Header{
		FNs:       []FN{HostFN(0, 8, KeyVer)},
		Locations: make([]byte, 1),
	})
	var ctx ExecContext
	ctx.Reset(v, 0)
	e.Process(&ctx)
	if op.calls.Load() != 0 {
		t.Error("host-tagged FN executed by router engine")
	}
}

func TestEngineDropAborts(t *testing.T) {
	reg := NewRegistry()
	dropper := &testOp{key: KeyFIB, fn: func(ctx *ExecContext, _, _ uint) error {
		ctx.Drop(DropNoRoute)
		return nil
	}}
	after := &testOp{key: KeyMAC}
	reg.MustRegister(dropper, after)
	e := NewEngine(reg, Limits{})
	v := buildPacket(t, &Header{
		FNs:       []FN{RouterFN(0, 8, KeyFIB), RouterFN(0, 8, KeyMAC)},
		Locations: make([]byte, 1),
	})
	var ctx ExecContext
	ctx.Reset(v, 0)
	e.Process(&ctx)
	if ctx.Verdict != VerdictDrop || ctx.Reason != DropNoRoute {
		t.Errorf("verdict %v/%v", ctx.Verdict, ctx.Reason)
	}
	if after.calls.Load() != 0 {
		t.Error("operation after drop executed")
	}
}

func TestEngineOpErrorDrops(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(&testOp{key: KeyFIB, fn: func(*ExecContext, uint, uint) error {
		return errors.New("boom")
	}})
	e := NewEngine(reg, Limits{})
	v := buildPacket(t, &Header{FNs: []FN{RouterFN(0, 8, KeyFIB)}, Locations: make([]byte, 1)})
	var ctx ExecContext
	ctx.Reset(v, 0)
	e.Process(&ctx)
	if ctx.Verdict != VerdictDrop || ctx.Reason != DropOpError {
		t.Errorf("verdict %v/%v", ctx.Verdict, ctx.Reason)
	}
}

func TestEngineUnknownKeyPolicies(t *testing.T) {
	reg := NewRegistry()
	after := &testOp{key: KeyMAC}
	reg.MustRegister(after)
	e := NewEngine(reg, Limits{})
	v := buildPacket(t, &Header{
		FNs:       []FN{RouterFN(0, 8, 99), RouterFN(0, 8, KeyMAC)},
		Locations: make([]byte, 1),
	})

	// Default: ignore and continue (§2.4).
	var ctx ExecContext
	ctx.Reset(v, 0)
	e.Process(&ctx)
	if ctx.Verdict != VerdictContinue || after.calls.Load() != 1 {
		t.Errorf("ignore policy: verdict %v calls %d", ctx.Verdict, after.calls.Load())
	}

	// Signal: drop and flag for FN-unsupported messaging.
	reg.SetPolicy(99, PolicySignal)
	ctx.Reset(v, 0)
	e.Process(&ctx)
	if ctx.Verdict != VerdictDrop || ctx.Reason != DropUnsupportedFN {
		t.Errorf("signal policy: verdict %v/%v", ctx.Verdict, ctx.Reason)
	}
	if !ctx.SignalUnsupported || ctx.UnsupportedKey != 99 {
		t.Errorf("signal fields: %v key %v", ctx.SignalUnsupported, ctx.UnsupportedKey)
	}
	if after.calls.Load() != 1 {
		t.Error("operation after signalled unsupported FN executed")
	}
}

func TestEngineKeyAboveMaxKeyIgnored(t *testing.T) {
	reg := NewRegistry()
	e := NewEngine(reg, Limits{})
	v := buildPacket(t, &Header{FNs: []FN{RouterFN(0, 8, 0x7FFF)}, Locations: make([]byte, 1)})
	var ctx ExecContext
	ctx.Reset(v, 0)
	e.Process(&ctx)
	if ctx.Verdict != VerdictContinue {
		t.Errorf("verdict %v", ctx.Verdict)
	}
}

func TestEngineOpBudget(t *testing.T) {
	reg := NewRegistry()
	op := &testOp{key: KeyFIB}
	reg.MustRegister(op)
	// packet has n router FNs after host host FNs, which do not count
	// against the budget.
	packet := func(host, n int) View {
		fns := make([]FN, host, host+n)
		for i := range fns {
			fns[i] = HostFN(0, 8, KeyVer)
		}
		for i := 0; i < n; i++ {
			fns = append(fns, RouterFN(0, 8, KeyFIB))
		}
		return buildPacket(t, &Header{FNs: fns, Locations: make([]byte, 1)})
	}
	var ctx ExecContext
	for _, limit := range []int{2, 3} {
		e := NewEngine(reg, Limits{MaxFNs: limit})
		op.calls.Store(0)
		ctx.Reset(packet(1, limit+1), 0)
		e.Process(&ctx)
		if ctx.Verdict != VerdictDrop || ctx.Reason != DropOpBudget {
			t.Errorf("limit %d, %d FNs: verdict %v/%v", limit, limit+1, ctx.Verdict, ctx.Reason)
		}
		if op.calls.Load() != 0 {
			t.Errorf("limit %d: ops executed despite budget violation", limit)
		}
		// Exactly at the limit passes.
		ctx.Reset(packet(1, limit), 0)
		e.Process(&ctx)
		if ctx.Verdict != VerdictContinue || op.calls.Load() != int64(limit) {
			t.Errorf("limit %d at-limit: verdict %v/%v after %d ops", limit, ctx.Verdict, ctx.Reason, op.calls.Load())
		}
	}
	// The default limit is the wire maximum, which FN_Num cannot exceed: the
	// fullest packet the wire can carry runs every FN.
	op.calls.Store(0)
	ctx.Reset(packet(0, MaxFNs), 0)
	NewEngine(reg, Limits{}).Process(&ctx)
	if ctx.Verdict != VerdictContinue || op.calls.Load() != MaxFNs {
		t.Errorf("default limit, %d FNs: verdict %v/%v after %d ops", MaxFNs, ctx.Verdict, ctx.Reason, op.calls.Load())
	}
}

func TestEngineDeadline(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(&testOp{key: KeyFIB, fn: func(*ExecContext, uint, uint) error {
		time.Sleep(2 * time.Millisecond)
		return nil
	}})
	e := NewEngine(reg, Limits{Deadline: time.Millisecond})
	v := buildPacket(t, &Header{
		FNs:       []FN{RouterFN(0, 8, KeyFIB), RouterFN(0, 8, KeyFIB)},
		Locations: make([]byte, 1),
	})
	var ctx ExecContext
	ctx.Reset(v, 0)
	e.Process(&ctx)
	if ctx.Verdict != VerdictDrop || ctx.Reason != DropDeadline {
		t.Errorf("verdict %v/%v", ctx.Verdict, ctx.Reason)
	}
}

func TestEngineStateBudget(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(&testOp{key: KeyPIT, fn: func(ctx *ExecContext, _, _ uint) error {
		ctx.ChargeState(64)
		return nil
	}})
	e := NewEngine(reg, Limits{MaxStateBytes: 100})
	v := buildPacket(t, &Header{
		FNs:       []FN{RouterFN(0, 8, KeyPIT), RouterFN(0, 8, KeyPIT)},
		Locations: make([]byte, 1),
	})
	var ctx ExecContext
	ctx.Reset(v, 0)
	e.Process(&ctx)
	if ctx.Verdict != VerdictDrop || ctx.Reason != DropStateBudget {
		t.Errorf("verdict %v/%v", ctx.Verdict, ctx.Reason)
	}
	// Without a limit, unlimited state is fine.
	e2 := NewEngine(reg, Limits{})
	ctx.Reset(v, 0)
	e2.Process(&ctx)
	if ctx.Verdict != VerdictContinue {
		t.Errorf("unlimited verdict %v", ctx.Verdict)
	}
}

func TestEngineParallelStages(t *testing.T) {
	reg := NewRegistry()
	var stage0Done atomic.Bool
	parm := &testOp{key: KeyParm, stage: 0, fn: func(ctx *ExecContext, _, _ uint) error {
		time.Sleep(time.Millisecond) // make ordering violations likely to show
		ctx.Crypto.HaveKey = true
		stage0Done.Store(true)
		return nil
	}}
	sawKey := atomic.Bool{}
	mac := &testOp{key: KeyMAC, stage: 1, fn: func(ctx *ExecContext, _, _ uint) error {
		if !stage0Done.Load() {
			t.Error("stage-1 op ran before stage-0 completed")
		}
		sawKey.Store(ctx.Crypto.HaveKey)
		return nil
	}}
	mark := &testOp{key: KeyMark, stage: 1}
	reg.MustRegister(parm, mac, mark)
	e := NewEngine(reg, Limits{})
	v := buildPacket(t, &Header{
		Parallel: true,
		FNs: []FN{
			RouterFN(0, 8, KeyMAC),
			RouterFN(0, 8, KeyParm),
			RouterFN(0, 8, KeyMark),
		},
		Locations: make([]byte, 1),
	})
	var ctx ExecContext
	ctx.Reset(v, 0)
	e.Process(&ctx)
	if ctx.Verdict != VerdictContinue {
		t.Errorf("verdict %v", ctx.Verdict)
	}
	if !sawKey.Load() {
		t.Error("crypto state from stage 0 not visible in stage 1")
	}
	if mac.calls.Load() != 1 || mark.calls.Load() != 1 || parm.calls.Load() != 1 {
		t.Error("not all ops executed exactly once")
	}
	if !ctx.Crypto.HaveKey {
		t.Error("crypto state not merged back into the parent context")
	}
}

func TestEngineParallelMergesVerdicts(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(
		&testOp{key: KeyFIB, stage: 1, fn: func(ctx *ExecContext, _, _ uint) error {
			ctx.AddEgress(3)
			return nil
		}},
		&testOp{key: KeyPIT, stage: 1, fn: func(ctx *ExecContext, _, _ uint) error {
			ctx.AddEgress(5)
			return nil
		}},
	)
	e := NewEngine(reg, Limits{})
	v := buildPacket(t, &Header{
		Parallel:  true,
		FNs:       []FN{RouterFN(0, 8, KeyFIB), RouterFN(0, 8, KeyPIT)},
		Locations: make([]byte, 1),
	})
	var ctx ExecContext
	ctx.Reset(v, 0)
	e.Process(&ctx)
	if ctx.Verdict != VerdictForward {
		t.Fatalf("verdict %v", ctx.Verdict)
	}
	ports := ctx.EgressPorts()
	if len(ports) != 2 {
		t.Fatalf("egress %v", ports)
	}
	seen := map[int]bool{ports[0]: true, ports[1]: true}
	if !seen[3] || !seen[5] {
		t.Errorf("egress %v", ports)
	}
}

func TestEngineParallelDropWins(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(
		&testOp{key: KeyFIB, stage: 1, fn: func(ctx *ExecContext, _, _ uint) error {
			ctx.AddEgress(1)
			return nil
		}},
		&testOp{key: KeyPass, stage: 1, fn: func(ctx *ExecContext, _, _ uint) error {
			ctx.Drop(DropGuard)
			return nil
		}},
	)
	e := NewEngine(reg, Limits{})
	v := buildPacket(t, &Header{
		Parallel:  true,
		FNs:       []FN{RouterFN(0, 8, KeyFIB), RouterFN(0, 8, KeyPass)},
		Locations: make([]byte, 1),
	})
	var ctx ExecContext
	ctx.Reset(v, 0)
	e.Process(&ctx)
	if ctx.Verdict != VerdictDrop || ctx.Reason != DropGuard {
		t.Errorf("verdict %v/%v", ctx.Verdict, ctx.Reason)
	}
}

func TestEngineParallelStateBudgetMerged(t *testing.T) {
	reg := NewRegistry()
	mkCharge := func(k Key) *testOp {
		return &testOp{key: k, stage: 1, fn: func(ctx *ExecContext, _, _ uint) error {
			ctx.ChargeState(60)
			return nil
		}}
	}
	reg.MustRegister(mkCharge(KeyFIB), mkCharge(KeyPIT))
	e := NewEngine(reg, Limits{MaxStateBytes: 100})
	v := buildPacket(t, &Header{
		Parallel:  true,
		FNs:       []FN{RouterFN(0, 8, KeyFIB), RouterFN(0, 8, KeyPIT)},
		Locations: make([]byte, 1),
	})
	var ctx ExecContext
	ctx.Reset(v, 0)
	e.Process(&ctx)
	// Each copy individually passes (60 ≤ 100) but the merged total (120)
	// must violate the budget.
	if ctx.Verdict != VerdictDrop || ctx.Reason != DropStateBudget {
		t.Errorf("verdict %v/%v", ctx.Verdict, ctx.Reason)
	}
}

type countingRecorder struct {
	mu    sync.Mutex
	ops   map[Key]int
	drops map[DropReason]int
}

func (r *countingRecorder) BeginPacket(*ExecContext) {}
func (r *countingRecorder) Fold(*Tally)              {}
func (r *countingRecorder) Period() uint64           { return 1 }
func (r *countingRecorder) EndPacket(ctx *ExecContext) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range ctx.Obs.Steps[:ctx.Obs.N] {
		r.ops[s.Key]++
	}
	if ctx.Verdict == VerdictDrop {
		r.drops[ctx.Reason]++
	}
}

func TestEngineRecorder(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(
		&testOp{key: KeyFIB},
		&testOp{key: KeyMAC, fn: func(ctx *ExecContext, _, _ uint) error {
			ctx.Drop(DropVerifyFailed)
			return nil
		}},
	)
	e := NewEngine(reg, Limits{})
	rec := &countingRecorder{ops: map[Key]int{}, drops: map[DropReason]int{}}
	e.SetRecorder(rec)
	v := buildPacket(t, &Header{
		FNs:       []FN{RouterFN(0, 8, KeyFIB), RouterFN(0, 8, KeyMAC)},
		Locations: make([]byte, 1),
	})
	var ctx ExecContext
	ctx.Reset(v, 0)
	e.Process(&ctx)
	if rec.ops[KeyFIB] != 1 || rec.ops[KeyMAC] != 1 {
		t.Errorf("op counts %v", rec.ops)
	}
	if rec.drops[DropVerifyFailed] != 1 {
		t.Errorf("drop counts %v", rec.drops)
	}
}

// claimingRecorder claims the packets whose ordinal its rate divides and
// keeps each packet's record as EndPacket saw it.
type claimingRecorder struct {
	every Every
	seen  atomic.Uint64
	ends  []Observation
}

func (r *claimingRecorder) BeginPacket(ctx *ExecContext) {
	if ctx.SampleEvery(r.every) {
		ctx.Obs.Claim(r, 0, 0)
	}
}
func (r *claimingRecorder) EndPacket(ctx *ExecContext) { r.ends = append(r.ends, ctx.Obs) }
func (r *claimingRecorder) Fold(t *Tally)              { r.seen.Add(t.Packets) }
func (r *claimingRecorder) Period() uint64             { return 1 }

// TestEngineTimesClaimedPacketsOnly pins the record's contract: every packet
// lists its executed FNs, but only a packet an observer claimed is Timed —
// its steps carry latencies and ops see MonoNow — while an unclaimed one
// takes no clock reading at all.
func TestEngineTimesClaimedPacketsOnly(t *testing.T) {
	reg := NewRegistry()
	var sawNow []int64
	reg.MustRegister(&testOp{key: KeyFIB, fn: func(ctx *ExecContext, _, _ uint) error {
		sawNow = append(sawNow, ctx.MonoNow)
		time.Sleep(time.Microsecond)
		return nil
	}})
	e := NewEngine(reg, Limits{})
	rec := &claimingRecorder{every: NewEvery(3)}
	e.SetRecorder(rec)
	v := buildPacket(t, &Header{FNs: []FN{RouterFN(0, 8, KeyFIB), RouterFN(0, 8, KeyFIB)}, Locations: make([]byte, 1)})
	var ctx ExecContext
	for ord := 1; ord <= 9; ord++ {
		ctx.Reset(v, 0)
		e.Process(&ctx)
		o := rec.ends[ord-1]
		if o.N != 2 || o.Steps[0].Key != KeyFIB || o.Steps[1].Key != KeyFIB {
			t.Fatalf("packet %d: steps %v", ord, o.Steps[:o.N])
		}
		if want := ord%3 == 0; o.Timed != want {
			t.Fatalf("packet %d: Timed = %v, want %v", ord, o.Timed, want)
		}
		for i, s := range o.Steps[:o.N] {
			if now := sawNow[2*(ord-1)+i]; o.Timed != (s.Ns > 0) || o.Timed != (now > 0) {
				t.Errorf("packet %d (timed %v) step %d: Ns=%d MonoNow=%v", ord, o.Timed, i, s.Ns, now)
			}
		}
	}
	if rec.seen.Load() != 9 {
		t.Errorf("seen %d of 9", rec.seen.Load())
	}
}

// TestEveryDividesMatchesModulo checks the division-free sampling decision
// against the % oracle: random rates up to 2^20 and every small one, powers
// of two or not, on ordinals that are small, near multiples of the rate,
// and near 2^64.
func TestEveryDividesMatchesModulo(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	check := func(n, x uint64) {
		if got, want := NewEvery(n).Divides(x), x%n == 0; got != want {
			t.Fatalf("NewEvery(%d).Divides(%d) = %v, %% says %v", n, x, got, want)
		}
	}
	rates := []uint64{1 << 20, 1<<20 - 1, 1000, 1024}
	for n := uint64(1); n <= 130; n++ {
		rates = append(rates, n)
	}
	for i := 0; i < 2000; i++ {
		rates = append(rates, 1+uint64(rng.Intn(1<<20)))
	}
	for _, n := range rates {
		top := ^uint64(0) / n * n // the largest multiple of n
		for d := uint64(0); d < 3; d++ {
			for _, x := range []uint64{d, n - d, n + d, top - d, top + d, ^uint64(0) - d} {
				check(n, x)
			}
		}
		for i := 0; i < 50; i++ {
			check(n, rng.Uint64())
			check(n, rng.Uint64()/n*n)
			check(n, uint64(rng.Intn(1<<24)))
		}
	}
	if e := (Every{}); !e.Divides(0) || !e.Divides(7) {
		t.Error("the zero Every should sample every packet")
	}
	if NewEvery(0).N() != 1 || (Every{}).N() != 1 {
		t.Error("NewEvery(0) should be 1-in-1")
	}
}

func TestContextEgressDedupAndCap(t *testing.T) {
	var ctx ExecContext
	ctx.Reset(View{b: make([]byte, BasicHeaderSize)}, 0)
	ctx.AddEgress(1)
	ctx.AddEgress(1)
	if ctx.NEgr != 1 {
		t.Errorf("dup egress not collapsed: %d", ctx.NEgr)
	}
	for p := 0; p < 20; p++ {
		ctx.AddEgress(p)
	}
	if ctx.NEgr != maxEgress {
		t.Errorf("egress overflow not capped: %d", ctx.NEgr)
	}
}

func TestVerdictPrecedence(t *testing.T) {
	var ctx ExecContext
	ctx.Reset(View{b: make([]byte, BasicHeaderSize)}, 0)
	ctx.AddEgress(1)
	if ctx.Verdict != VerdictForward {
		t.Fatal("forward not set")
	}
	ctx.Deliver()
	if ctx.Verdict != VerdictDeliver {
		t.Error("deliver must beat forward")
	}
	ctx.Drop(DropGuard)
	ctx.Drop(DropNoRoute)
	if ctx.Verdict != VerdictDrop || ctx.Reason != DropGuard {
		t.Error("first drop reason must win")
	}
	if DropGuard.String() != "guard" || VerdictDrop.String() != "drop" {
		t.Error("string methods")
	}
}

// The zero-allocation guarantee the GC-mitigation story rests on.
func TestProcessSequentialZeroAlloc(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(&testOp{key: KeyMatch32, fn: func(ctx *ExecContext, _, _ uint) error {
		ctx.AddEgress(2)
		return nil
	}})
	e := NewEngine(reg, Limits{})
	b, _ := (&Header{
		FNs:       []FN{RouterFN(0, 32, KeyMatch32), RouterFN(32, 32, KeySource)},
		Locations: make([]byte, 8),
	}).AppendTo(nil)
	var ctx ExecContext
	allocs := testing.AllocsPerRun(1000, func() {
		v, err := ParseView(b)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Reset(v, 0)
		e.Process(&ctx)
	})
	if allocs != 0 {
		t.Errorf("sequential forwarding allocates %.1f per packet", allocs)
	}
}

// The engine must be safe under concurrent Process calls from multiple
// forwarding goroutines sharing one registry (run with -race).
func TestEngineConcurrentForwarding(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(&testOp{key: KeyMatch32, fn: func(ctx *ExecContext, _, _ uint) error {
		ctx.AddEgress(1)
		return nil
	}})
	e := NewEngine(reg, Limits{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, _ := (&Header{
				FNs:       []FN{RouterFN(0, 32, KeyMatch32)},
				Locations: make([]byte, 4),
			}).AppendTo(nil)
			var ctx ExecContext
			for i := 0; i < 2000; i++ {
				v, err := ParseView(b)
				if err != nil {
					t.Error(err)
					return
				}
				ctx.Reset(v, 0)
				e.Process(&ctx)
				if ctx.Verdict != VerdictForward {
					t.Errorf("verdict %v", ctx.Verdict)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// SwapRegistry under live traffic must never expose a torn table.
func TestEngineSwapRegistryConcurrent(t *testing.T) {
	mk := func(port int) *Registry {
		r := NewRegistry()
		r.MustRegister(&testOp{key: KeyMatch32, fn: func(ctx *ExecContext, _, _ uint) error {
			ctx.AddEgress(port)
			return nil
		}})
		return r
	}
	a, bReg := mk(1), mk(2)
	e := NewEngine(a, Limits{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			e.SwapRegistry(bReg)
			e.SwapRegistry(a)
		}
	}()
	buf, _ := (&Header{
		FNs:       []FN{RouterFN(0, 32, KeyMatch32)},
		Locations: make([]byte, 4),
	}).AppendTo(nil)
	var ctx ExecContext
	for i := 0; i < 2000; i++ {
		v, _ := ParseView(buf)
		ctx.Reset(v, 0)
		e.Process(&ctx)
		if ctx.Verdict != VerdictForward {
			t.Fatalf("verdict %v", ctx.Verdict)
		}
		if p := ctx.EgressPorts()[0]; p != 1 && p != 2 {
			t.Fatalf("torn registry: port %d", p)
		}
	}
	<-done
}
