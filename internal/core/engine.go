package core

import (
	"sync"
	"sync/atomic"
	"time"
)

// Limits are the per-packet security limits of paper §2.4: "enforcing a
// hard limit for packet processing time and per-packet state consumption is
// enough to prevent such attacks". Zero values mean "wire maximum" for
// MaxFNs and "unlimited" for the others.
type Limits struct {
	// MaxFNs caps router-executed operations per packet.
	MaxFNs int
	// Deadline caps wall-clock processing time per packet.
	Deadline time.Duration
	// MaxStateBytes caps router state (PIT entries, cache insertions, …)
	// one packet may create.
	MaxStateBytes int
}

// monoBase anchors Now: one wall read at start-up, after which a reading is
// time.Since(monoBase), which touches only the monotonic clock instead of
// time.Now's wall+mono pair.
var (
	monoBase   = time.Now()
	monoBaseNs = monoBase.UnixNano()
)

// Now is the default node clock — a nil func() int64 clock means Now in
// every package: Unix-epoch ns, anchored to the wall clock at start-up and
// advanced by the monotonic clock, so a reading compares with wall
// timestamps yet never steps back. A simulation passes its virtual clock
// instead (node.SimEnv).
func Now() int64 { return monoBaseNs + int64(time.Since(monoBase)) }

// Recorder is the engine's one observation seam: a per-packet bracket
// around Algorithm 1 on the packets the stack can sample, and a fold of the
// counts every packet contributes. Period is the stack's sampling period,
// fixed when the recorder is built: the gcd of every 1-in-N rate in the
// chain. The engine brackets only packets whose ordinal Period divides —
// calling BeginPacket once before any FN of such a packet executes,
// appending every executed FN to ctx.Obs inline (no call per op), and
// calling EndPacket exactly once after the verdict is final, when ctx.Obs,
// ctx.Verdict, ctx.Reason and the egress set describe the whole packet.
// Samplers decide (ctx.SampleEvery) and capture what only the unmutated
// packet can tell in BeginPacket, Claim it, and Release it in EndPacket
// beside the steps. A packet that leaves BeginPacket claimed or marked
// Observation.Timed is timed: only its FNs pay the clock pair.
//
// Every packet, bracketed or not, is counted into its context's Tally with
// plain adds — the packet, each executed FN, its drop reason, and (the
// router's) its verdict — and Fold hands the tally over once per burst, or
// after each packet that carries no burst stamp. Fold must add only the
// non-zero counters, one atomic add each.
//
// Recorders compose by wrapping: an outer recorder forwards all three calls
// to its inner one and reports the gcd of its own and its inner's Period.
// The hooks must be safe for concurrent use and must not allocate — the
// observed path is held to the zero-alloc forwarding baseline. A nil
// Recorder disables recording with no timing overhead.
type Recorder interface {
	BeginPacket(ctx *ExecContext)
	EndPacket(ctx *ExecContext)
	Fold(t *Tally)
	Period() uint64
}

// Engine executes Algorithm 1 of the paper: iterate the packet's FNs,
// skip host-tagged ones, and dispatch the rest to the operation modules in
// the registry. The engine is stateless across packets and safe for
// concurrent use by multiple forwarding goroutines.
type Engine struct {
	reg    atomic.Pointer[Registry]
	limits Limits
	rec    Recorder
	host   bool
	period Every // rec's Period: the ordinals the engine brackets
}

// NewEngine builds a router-side engine over reg with the given limits: it
// executes FNs whose host tag is clear and skips host-tagged ones.
func NewEngine(reg *Registry, limits Limits) *Engine {
	if limits.MaxFNs <= 0 || limits.MaxFNs > MaxFNs {
		limits.MaxFNs = MaxFNs
	}
	e := &Engine{limits: limits}
	e.reg.Store(reg)
	return e
}

// NewHostEngine builds the dual of NewEngine for host stacks: it executes
// exactly the FNs tagged as host operations (F_ver and friends) and skips
// router operations.
func NewHostEngine(reg *Registry, limits Limits) *Engine {
	e := NewEngine(reg, limits)
	e.host = true
	return e
}

// SetRecorder installs the observer. Must be called before packets flow.
func (e *Engine) SetRecorder(r Recorder) {
	e.rec = r
	if r != nil {
		e.period = NewEvery(r.Period())
	}
}

// Fold hands ctx's tally to the recorder stack and clears it. The serving
// layer calls it at the end of each burst; Process calls it itself after a
// packet whose context carries no burst stamp. Without a recorder the tally
// stays empty and Fold does nothing.
func (e *Engine) Fold(ctx *ExecContext) {
	if e.rec != nil {
		e.rec.Fold(&ctx.Tally)
		ctx.Tally.reset()
	}
}

// Registry returns the engine's current dispatch table.
func (e *Engine) Registry() *Registry { return e.reg.Load() }

// SwapRegistry atomically replaces the dispatch table and returns the
// previous one. This is how operators "dynamically adjust security
// policies based on network conditions" (paper §2.4) — e.g. enabling
// F_pass on the fly upon detecting a content-poisoning attack — without
// pausing the data plane: in-flight packets finish on the registry they
// started with; subsequent packets see the new one.
func (e *Engine) SwapRegistry(reg *Registry) *Registry {
	return e.reg.Swap(reg)
}

// Process runs the packet in ctx through Algorithm 1. On return ctx.Verdict
// and ctx.EgressPorts() describe the packet's fate. Process never allocates
// on the sequential path.
func (e *Engine) Process(ctx *ExecContext) {
	if e.limits.MaxStateBytes > 0 {
		ctx.stateBudget = e.limits.MaxStateBytes
	}
	if e.limits.Deadline > 0 {
		ctx.Deadline = Now() + int64(e.limits.Deadline)
	}
	if e.rec != nil {
		ctx.Ordinal++
		ctx.Tally.Packets++
		// Only an ordinal the stack's period divides can be sampled by any
		// recorder in it; every other packet is just counted.
		if ctx.Obs.open = e.period.Divides(ctx.Ordinal); ctx.Obs.open {
			e.rec.BeginPacket(ctx)
			if ctx.Obs.Timed {
				ctx.Obs.Begin = Now()
			}
		}
	}
	// Algorithm 1 runs from the triples Load decoded, not from the bytes.
	fns := ctx.fns[:ctx.View.fnNum]
	// FN_Num is one byte: only a limit below the wire maximum needs a count.
	if e.limits.MaxFNs < MaxFNs && e.routerFNCount(fns) > e.limits.MaxFNs {
		ctx.Drop(DropOpBudget)
		e.finish(ctx)
		return
	}
	reg := e.reg.Load()
	if len(fns) > 1 && ctx.View.Parallel() {
		e.processParallel(reg, ctx, fns)
		e.finish(ctx)
		return
	}
	for _, fn := range fns {
		if fn.Host != e.host {
			continue // Algorithm 1 line 5–7: skip the other side's operations
		}
		if !e.execute(reg, ctx, fn) {
			break
		}
	}
	e.finish(ctx)
}

// execute dispatches one FN and reports whether processing should continue.
func (e *Engine) execute(reg *Registry, ctx *ExecContext, fn FN) bool {
	if e.limits.Deadline > 0 && Now() > ctx.Deadline {
		ctx.Drop(DropDeadline)
		return false
	}
	op := reg.Get(fn.Key)
	if op == nil {
		if reg.Policy(fn.Key) == PolicySignal {
			ctx.Drop(DropUnsupportedFN)
			ctx.SignalUnsupported = true
			ctx.UnsupportedKey = fn.Key
			return false
		}
		return true // PolicyIgnore, §2.4: "the router can simply ignore this FN"
	}
	// Now reads only the monotonic clock, but a pair per op is still most of
	// what observing costs: timed packets only.
	o := &ctx.Obs
	timed := e.rec != nil && o.Timed
	if timed {
		ctx.MonoNow = Now()
	}
	err := op.Execute(ctx, uint(fn.Loc), uint(fn.Len))
	if e.rec != nil {
		ctx.Tally.CountOp(fn.Key)
		if o.open {
			o.Steps[o.N] = Step{Key: fn.Key}
			if timed {
				o.Steps[o.N].Ns = Now() - ctx.MonoNow
			}
			o.N++
		}
	}
	if err != nil {
		ctx.Drop(DropOpError)
	}
	return ctx.Verdict != VerdictDrop
}

// processParallel honours the packet-parameter parallel flag: operations
// are grouped into stages (see Stager), stages run in order, and the
// operations inside one stage run concurrently on private context copies
// that are merged afterwards. The host asserts, by setting the flag, that
// same-stage operations touch disjoint operand bytes.
func (e *Engine) processParallel(reg *Registry, ctx *ExecContext, decoded []FN) {
	// Collect router FNs with their stages. MaxFNs ≤ 255 so a fixed array
	// keeps this allocation-free apart from goroutine spawning.
	var fns [MaxFNs]staged
	cnt := 0
	minStage, maxStage := 1<<30, -(1 << 30)
	for _, fn := range decoded {
		if fn.Host != e.host {
			continue
		}
		st := 1
		if op := reg.Get(fn.Key); op != nil {
			if s, ok := op.(Stager); ok {
				st = s.Stage()
			}
		}
		fns[cnt] = staged{fn, st}
		cnt++
		if st < minStage {
			minStage = st
		}
		if st > maxStage {
			maxStage = st
		}
	}
	// waveBuf is reused across stages; like fns it lives on the stack, so
	// selecting a stage's wave costs no heap traffic.
	var waveBuf [MaxFNs]staged
	for stage := minStage; stage <= maxStage && ctx.Verdict != VerdictDrop; stage++ {
		wn := 0
		for i := 0; i < cnt; i++ {
			if fns[i].stage == stage {
				waveBuf[wn] = fns[i]
				wn++
			}
		}
		switch wn {
		case 0:
			continue
		case 1:
			e.execute(reg, ctx, waveBuf[0].fn)
		default:
			e.runWave(reg, ctx, waveBuf[:wn])
		}
	}
}

// staged pairs an FN with its parallel-execution stage.
type staged struct {
	fn    FN
	stage int
}

// waveCtxs is a pooled scratch buffer of context copies for one parallel
// wave. Pooling it keeps steady-state parallel processing from allocating a
// fresh copy slice per wave; the slice grows to the widest wave seen and is
// scrubbed of packet references before going back to the pool.
type waveCtxs struct {
	copies []ExecContext
}

var wavePool = sync.Pool{New: func() any { return &waveCtxs{} }}

// runWave executes the wave's FNs concurrently on context copies, then
// merges verdicts (by precedence), egress sets, crypto state, state-budget
// consumption, each copy's tallied FN and — in wave order, so the record is
// deterministic — its observed steps back into ctx.
func (e *Engine) runWave(reg *Registry, ctx *ExecContext, wave []staged) {
	wc := wavePool.Get().(*waveCtxs)
	if cap(wc.copies) < len(wave) {
		wc.copies = make([]ExecContext, len(wave))
	}
	copies := wc.copies[:len(wave)]
	var wg sync.WaitGroup
	wg.Add(len(wave))
	for i := range wave {
		copies[i] = *ctx
		copies[i].Obs.N = 0
		if e.rec != nil {
			copies[i].Tally.reset() // a copy tallies only its own FN
		}
		// Pass the copy pointer and FN by value so the goroutine closure
		// does not capture wave, whose backing array is the caller's stack.
		go func(c *ExecContext, fn FN) {
			defer wg.Done()
			e.execute(reg, c, fn)
		}(&copies[i], wave[i].fn)
	}
	wg.Wait()
	consumed := 0
	for i := range copies {
		c := &copies[i]
		if c.Verdict == VerdictDrop && ctx.Verdict != VerdictDrop {
			ctx.Verdict = VerdictDrop
			ctx.Reason = c.Reason
			ctx.SignalUnsupported = c.SignalUnsupported
			ctx.UnsupportedKey = c.UnsupportedKey
		}
		if c.Verdict == VerdictDeliver {
			ctx.Deliver()
		}
		if c.Verdict == VerdictAbsorb {
			ctx.Absorb()
		}
		for j := 0; j < c.NEgr; j++ {
			ctx.AddEgress(c.Egress[j])
		}
		if c.Crypto.HaveKey && !ctx.Crypto.HaveKey {
			ctx.Crypto = c.Crypto
		}
		if c.Passed {
			ctx.Passed = true
		}
		if c.Cached != nil && ctx.Cached == nil {
			ctx.Cached, ctx.CachedName = c.Cached, c.CachedName
		}
		if c.HasSource && !ctx.HasSource {
			ctx.SourceLoc, ctx.SourceLen, ctx.HasSource = c.SourceLoc, c.SourceLen, true
		}
		if ctx.stateBudget >= 0 {
			consumed += ctx.stateBudget - c.stateBudget
		}
		ctx.Obs.N += copy(ctx.Obs.Steps[ctx.Obs.N:], c.Obs.Steps[:c.Obs.N])
		if e.rec != nil {
			ctx.Tally.add(&c.Tally)
		}
	}
	if ctx.stateBudget >= 0 {
		ctx.stateBudget -= consumed
		if ctx.stateBudget < 0 {
			ctx.Drop(DropStateBudget)
		}
	}
	for i := range copies {
		// Drop packet references before pooling.
		copies[i].View, copies[i].Cached, copies[i].Reply = View{}, nil, nil
	}
	wavePool.Put(wc)
}

func (e *Engine) routerFNCount(fns []FN) int {
	n := 0
	for _, fn := range fns {
		if fn.Host == e.host {
			n++
		}
	}
	return n
}

// finish ends the packet's observation, when there is a recorder. Called
// exactly once per Process invocation; small enough to inline, so the
// recorder-less path pays no call.
func (e *Engine) finish(ctx *ExecContext) {
	if e.rec != nil {
		e.observed(ctx)
	}
}

// observed tallies a drop's reason, closes the packet's observation bracket
// when it has one, and folds a context that carries no burst stamp.
func (e *Engine) observed(ctx *ExecContext) {
	if ctx.Verdict == VerdictDrop {
		ctx.Tally.Drops[ctx.Reason]++
	}
	if ctx.Obs.open {
		e.rec.EndPacket(ctx)
	}
	if !ctx.stamped {
		e.Fold(ctx)
	}
}
