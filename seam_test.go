package dip

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"
	"testing"

	"dip/internal/core"
	"dip/internal/host"
	"dip/internal/ops"
	"dip/internal/profiles"
	"dip/internal/workload"
)

// countedOp is the seam tests' independent witness: it logs its key every
// time the engine dispatches it, before delegating to the real operation.
// The FNs of one parallel wave log from their own goroutines, hence the lock.
type countedOp struct {
	core.Operation
	log *[]core.Key
}

var countedMu sync.Mutex

func (o countedOp) Execute(ctx *core.ExecContext, loc, bits uint) error {
	countedMu.Lock()
	*o.log = append(*o.log, o.Key())
	countedMu.Unlock()
	return o.Operation.Execute(ctx, loc, bits)
}

type spanLog []JourneySpan

func (l *spanLog) AddSpan(sp JourneySpan) { *l = append(*l, sp) }

// seamTrace is one seeded five-protocol trace (IP-32/128, NDN interests
// with their data, OPT, NDN+OPT) plus a packet whose operand is malformed
// and one with no route.
func seamTrace(t *testing.T) (pkts [][]byte, secret *SecretValue) {
	t.Helper()
	secret, err := NewSecret("seam", bytes.Repeat([]byte{0x42}, 16))
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewSecret("dst", bytes.Repeat([]byte{0xD0}, 16))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(MAC2EM, []HopConfig{{Secret: secret}}, dst)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Generate(workload.Spec{
		Weights: map[workload.Protocol]float64{
			workload.ProtoIPv4: 4, workload.ProtoIPv6: 2, workload.ProtoNDN: 2,
			workload.ProtoOPT: 1, workload.ProtoNDNOPT: 1,
		},
		Names: 256, ZipfS: 1.1, Ports: 4, Session: sess, Seed: 14,
	}, 2500)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tr.Packets {
		pkts = append(pkts, p.Buf)
	}
	noRoute, err := BuildPacket(IPv4Profile([4]byte{1, 1, 1, 1}, [4]byte{99, 9, 9, 9}), nil)
	if err != nil {
		t.Fatal(err)
	}
	short := &Header{FNs: []FN{core.RouterFN(0, 16, core.KeyMatch32)}, Locations: make([]byte, 4)}
	malformed, err := BuildPacket(short, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Early in the trace, so the record and span checks at sampling 1 see them.
	pkts = append([][]byte{noRoute, malformed}, pkts...)
	return pkts, secret
}

// mixState is a node's tables for the workload generator's five-protocol
// mix: a content store of the given size, OPT enabled, and one route per
// address family, each to its own port (1, 2, 3).
func mixState(secret *SecretValue, cache int) *NodeState {
	st := NewNodeState()
	st.EnableCache(cache)
	st.EnableOPT(secret, MAC2EM, [16]byte{}, 0)
	st.FIB32.AddUint32(uint32(workload.AddrPrefixByte)<<24, 8, NextHop{Port: 1})
	p6 := make([]byte, 16)
	p6[0] = workload.Addr6PrefixByte
	st.FIB128.Add(p6, 8, NextHop{Port: 2})
	st.NameFIB.AddUint32(workload.NamePrefix, 8, NextHop{Port: 3})
	return st
}

// metricsEvery is telemetry.Metrics' own timing rate, restated here so the
// oracle below stays independent of the code it checks.
const metricsEvery = 64

// TestObserverStackTransparent pins "counts exact, latency sampled" and that
// wrapping changes nothing an inner observer sees: Metrics alone, under a
// trace recorder, and under a journey tap (a second, span-emitting trace
// recorder) over that count the same ops and
// drops — each equal to an independent count of dispatched FNs — at
// sampling 1 and 1024; per op, Σhist == Timed == the ops dispatched on the
// packets whose ordinal some installed observer's rate divides (all of them
// at sampling 1); and every trace record and span lists exactly the FNs its
// packet executed, each with a non-zero latency.
func TestObserverStackTransparent(t *testing.T) {
	pkts, secret := seamTrace(t)
	stacks := []string{"metrics", "trace>metrics", "tap>trace>metrics"}
	for _, every := range []int{1, 1024} {
		var first string
		for depth, name := range stacks {
			st := mixState(secret, 64)
			var log []core.Key
			reg := core.NewRegistry()
			real := NewRouterRegistry(st.OpsConfig())
			for _, k := range real.Keys() {
				reg.MustRegister(countedOp{real.Get(k), &log})
			}
			m := &Metrics{}
			var tr *TraceRecorder
			var spans spanLog
			var rec Recorder = m
			if depth >= 1 {
				tr = NewTraceRecorder(m, every, len(pkts))
				rec = tr
			}
			if depth == 2 {
				rec = NewRouterJourneyTap("R", &spans, tr, every, nil)
			}
			e := core.NewEngine(reg, Limits{})
			e.SetRecorder(rec)

			wantOps, wantTimed := map[Key]int64{}, map[Key]int64{}
			wantDrops := map[DropReason]int64{}
			executed := make([][]core.Key, len(pkts))
			var ctx ExecContext
			for i, p := range pkts {
				v, err := ParsePacket(append([]byte(nil), p...))
				if err != nil {
					t.Fatal(err)
				}
				v.DecHopLimit()
				ctx.Reset(v, i%4)
				log = log[:0]
				e.Process(&ctx)
				executed[i] = append([]core.Key(nil), log...)
				// ctx is fresh, so packet i carries ordinal i+1.
				ord := i + 1
				timed := ord%metricsEvery == 0 || depth >= 1 && ord%every == 0
				for _, k := range log {
					wantOps[k]++
					if timed {
						wantTimed[k]++
					}
				}
				if ctx.Verdict == VerdictDrop {
					wantDrops[ctx.Reason]++
				}
			}

			snap := m.Snapshot()
			gotOps, gotTimed := map[Key]int64{}, map[Key]int64{}
			for _, op := range snap.Ops {
				gotOps[op.Key] = op.Count
				if op.Timed > 0 {
					gotTimed[op.Key] = op.Timed
				}
				var hist int64
				for _, c := range op.Hist {
					hist += c
				}
				if hist != op.Timed {
					t.Errorf("%s every=%d %v: Σhist=%d, timed=%d", name, every, op.Key, hist, op.Timed)
				}
				if op.Timed > 0 && op.TotalNs <= 0 {
					t.Errorf("%s every=%d %v: %d timed executions sum to %dns", name, every, op.Key, op.Timed, op.TotalNs)
				}
			}
			if !maps.Equal(gotOps, wantOps) {
				t.Errorf("%s every=%d: op counts %v, dispatched %v", name, every, gotOps, wantOps)
			}
			if !maps.Equal(gotTimed, wantTimed) {
				t.Errorf("%s every=%d: timed %v, dispatched on sampled packets %v", name, every, gotTimed, wantTimed)
			}
			if !maps.Equal(snap.Drops, wantDrops) {
				t.Errorf("%s every=%d: drops %v, want %v", name, every, snap.Drops, wantDrops)
			}
			for _, r := range []DropReason{core.DropNoRoute, core.DropOpError, core.DropPITMiss} {
				if wantDrops[r] == 0 {
					t.Errorf("%s every=%d: trace never drops for %v; the comparison is vacuous", name, every, r)
				}
			}
			// Every stack saw the same packets do the same things.
			sum := fmt.Sprint(wantOps, wantDrops)
			if first == "" {
				first = sum
			} else if sum != first {
				t.Errorf("%s every=%d: outcome %s differs from %s's %s", name, every, sum, stacks[0], first)
			}

			n := uint64(len(pkts))
			if tr != nil {
				if tr.Seen() != n || tr.Sampled() != n/uint64(every) {
					t.Errorf("%s every=%d: trace seen %d sampled %d of %d", name, every, tr.Seen(), tr.Sampled(), n)
				}
			}
			if depth == 2 && uint64(len(spans)) != n/uint64(every) {
				t.Errorf("%s every=%d: %d spans of %d packets", name, every, len(spans), n)
			}
			// Sampled record j is the packet with ordinal (j+1)·every.
			if tr != nil {
				recs := tr.Snapshot()
				if len(recs) != len(pkts)/every {
					t.Fatalf("%s every=%d: %d trace records for %d packets", name, every, len(recs), len(pkts))
				}
				for j, r := range recs {
					i := (j+1)*every - 1
					if got := stepKeys(t, r.Steps[:r.NSteps]); !slices.Equal(got, executed[i]) || r.Truncated != 0 {
						t.Fatalf("%s every=%d packet %d: record steps %v (+%d), executed %v", name, every, i, got, r.Truncated, executed[i])
					}
				}
			}
			for j, sp := range spans {
				i := (j+1)*every - 1
				if got := stepKeys(t, sp.Steps[:sp.NSteps]); !slices.Equal(got, executed[i]) {
					t.Fatalf("%s every=%d packet %d: span steps %v, executed %v", name, every, i, got, executed[i])
				}
			}
		}
	}
}

// stepKeys lists the steps' keys and fails the test on an untimed step: what
// a sampler copies out always carries per-FN latencies.
func stepKeys(t *testing.T, steps []core.Step) []core.Key {
	t.Helper()
	keys := make([]core.Key, 0, len(steps))
	for _, s := range steps {
		if s.Ns <= 0 {
			t.Errorf("sampled step %v has latency %dns", s.Key, s.Ns)
		}
		keys = append(keys, s.Key)
	}
	return keys
}

// TestZeroAllocFullStackBurstPath pins the burst dataplane under the
// deepest observer stack anything builds — a journey tap (span-emitting
// trace recorder) over a trace recorder over metrics, as the benchmark
// stacks them — in pump mode and with one forwarder: no allocation per
// burst, and both samplers take exactly 1-in-N however they nest, each
// charging its seen-counter from the burst stamp.
func TestZeroAllocFullStackBurstPath(t *testing.T) {
	for _, workers := range []int{0, 1} {
		state := NewNodeState()
		state.FIB32.AddUint32(0, 0, Local)
		m := &Metrics{}
		tr := NewTraceRecorder(m, 8, 64)
		sink := NewJourneyEmitter(64)
		tap := NewRouterJourneyTap("R", sink, tr, 16, nil)
		delivered := make(chan struct{}, 64)
		r := NewRouter(state.OpsConfig(), RouterOptions{
			Metrics:       m,
			Trace:         tr,
			LocalDelivery: func([]byte, int) { delivered <- struct{}{} },
		})
		r.SetRecorder(tap)
		in := r.ServeGuarded(ServeConfig{Workers: workers, Batch: 64, HighDepth: 128, LowDepth: 128})
		pkts := make([][]byte, 64)
		for i := range pkts {
			p, err := BuildPacket(IPv4Profile([4]byte{10, 0, byte(i), 1}, [4]byte{2, 2, 2, 2}), nil)
			if err != nil {
				t.Fatal(err)
			}
			pkts[i] = p
		}
		bursts := uint64(0)
		run := func() {
			for _, p := range pkts {
				p[3] = 64
			}
			if n := in.SubmitBurst(pkts, 0); n != 64 {
				t.Fatalf("workers=%d: accepted %d/64", workers, n)
			}
			if workers == 0 {
				in.Pump()
			}
			for range pkts {
				<-delivered
			}
			bursts++
		}
		run()
		if n := testing.AllocsPerRun(100, run); n != 0 {
			t.Errorf("workers=%d: full-stack burst path allocates %.1f/burst, want 0", workers, n)
		}
		in.Close()
		n := 64 * bursts
		if tr.Seen() != n || tr.Sampled() != n/8 {
			t.Errorf("workers=%d: trace seen %d sampled %d of %d at 1-in-8", workers, tr.Seen(), tr.Sampled(), n)
		}
		if tap.Seen() != n || sink.Added() != n/16 {
			t.Errorf("workers=%d: tap seen %d, %d spans of %d at 1-in-16", workers, tap.Seen(), sink.Added(), n)
		}
	}
}

// burstOracle is what an independent replay says a packet sequence does on
// one router: the FNs dispatched (each packet that reached the engine, in
// order), the drop reasons and the verdicts.
type burstOracle struct {
	ops      map[Key]int64
	drops    map[DropReason]int64
	verdicts [core.NumVerdicts]int64
	executed [][]core.Key
}

// replayOracle runs pkts one at a time through the router pipeline rebuilt
// from core alone — Load, the hop limit, an unobserved engine over the
// counted registry of a fresh mixState — and counts what happens, with no
// recorder, tally or telemetry code involved.
func replayOracle(t *testing.T, pkts [][]byte, secret *SecretValue) burstOracle {
	t.Helper()
	o := burstOracle{ops: map[Key]int64{}, drops: map[DropReason]int64{}}
	var log []core.Key
	reg := core.NewRegistry()
	real := NewRouterRegistry(mixState(secret, 64).OpsConfig())
	for _, k := range real.Keys() {
		reg.MustRegister(countedOp{real.Get(k), &log})
	}
	e := core.NewEngine(reg, Limits{})
	var ctx ExecContext
	for _, p := range pkts {
		switch {
		case ctx.Load(append([]byte(nil), p...), 0) != nil:
			ctx.Verdict, ctx.Reason = VerdictDrop, core.DropMalformed
		case !ctx.View.DecHopLimit():
			ctx.Verdict, ctx.Reason = VerdictDrop, core.DropHopLimit
		default:
			log = log[:0]
			e.Process(&ctx)
			o.executed = append(o.executed, append([]core.Key(nil), log...))
			for _, k := range log {
				o.ops[k]++
			}
		}
		o.verdicts[ctx.Verdict]++
		if ctx.Verdict == VerdictDrop {
			o.drops[ctx.Reason]++
		}
	}
	return o
}

// timedBy lists, per op, the executions on packets whose engine ordinal
// one of the rates divides (a rate of 0 takes nothing).
func (o burstOracle) timedBy(rates ...int) map[Key]int64 {
	timed := map[Key]int64{}
	for i, keys := range o.executed {
		for _, r := range rates {
			if r > 0 && (i+1)%r == 0 {
				for _, k := range keys {
					timed[k]++
				}
				break
			}
		}
	}
	return timed
}

// burstEdgeTrace is seamTrace with the burst path's edge cases placed on
// 64-packet burst boundaries: burst 1 ends in a packet that does not parse,
// burst 2 in one whose hop limit is spent, burst 3 carries a parallel-flag
// packet (its F_32_match and F_source run as one wave of context copies),
// and the trace ends in a partial burst whose last packet does not parse.
func burstEdgeTrace(t *testing.T) (pkts [][]byte, secret *SecretValue) {
	t.Helper()
	mix, secret := seamTrace(t)
	garbage := []byte{0x01, 0x02, 0x03}
	dst := [4]byte{workload.AddrPrefixByte, 0, 0, 9}
	spent := IPv4Profile([4]byte{1, 1, 1, 1}, dst)
	spent.HopLimit = 0
	wave := IPv4Profile([4]byte{1, 1, 1, 1}, dst)
	wave.Parallel = true
	var edge [2][]byte
	for i, h := range []*Header{spent, wave} {
		p, err := BuildPacket(h, nil)
		if err != nil {
			t.Fatal(err)
		}
		edge[i] = p
	}
	pkts = append(pkts, mix[:63]...)
	pkts = append(pkts, garbage)
	pkts = append(pkts, mix[63:126]...)
	pkts = append(pkts, edge[0])
	pkts = append(pkts, mix[126:130]...)
	pkts = append(pkts, edge[1])
	pkts = append(pkts, mix[130:]...)
	if len(pkts)%64 == 0 {
		pkts = pkts[:len(pkts)-1]
	}
	return append(pkts, garbage), secret
}

// submitBursts feeds pkts (as copies) to a one-forwarder ingress in 64-packet
// SubmitBursts, each processed as one burst before the next goes in, and
// calls close (which closes the ingress) right after submitting the last.
func submitBursts(t *testing.T, in *Ingress, close func(), pkts [][]byte) {
	t.Helper()
	for i := 0; i < len(pkts); i += 64 {
		chunk := make([][]byte, 0, 64)
		for _, p := range pkts[i:min(i+64, len(pkts))] {
			chunk = append(chunk, append([]byte(nil), p...))
		}
		if n := in.SubmitBurst(chunk, 0); n != len(chunk) {
			t.Fatalf("burst at %d: accepted %d of %d", i, n, len(chunk))
		}
		if i+64 >= len(pkts) {
			break
		}
		for in.Processed() < int64(i+len(chunk)) {
			runtime.Gosched()
		}
	}
	close()
}

// TestBurstCountsMatchDispatch extends the independent dispatch count to the
// burst path: ServeGuarded with one forwarder at Batch 64, over the seeded
// five-protocol mix and burstEdgeTrace's edge cases, under every recorder
// stack a router is built with — the benchmark's (Metrics and a trace
// recorder in RouterOptions, a journey tap installed over them), node.Build
// with and without TraceEvery, and Metrics alone — at the benchmark's rates
// and at rates whose stack period is 2. Once the ingress is closed, Metrics
// must hold exactly the oracle's per-op counts, drop reasons and verdict
// totals, and time exactly the executions on the ordinals some installed
// rate divides; each sampler must have seen every packet that reached the
// engine and sampled 1 in its rate of them, and the tap must have emitted
// as many spans.
func TestBurstCountsMatchDispatch(t *testing.T) {
	pkts, secret := burstEdgeTrace(t)
	want := replayOracle(t, pkts, secret)
	engineN := uint64(len(want.executed))
	for _, r := range []core.DropReason{core.DropMalformed, core.DropHopLimit, core.DropNoRoute, core.DropPITMiss} {
		if want.drops[r] == 0 {
			t.Fatalf("the trace never drops for %v; the comparison is vacuous", r)
		}
	}
	type stack struct {
		name            string
		every, tapEvery int
		m               *Metrics
		tr, tap         *TraceRecorder
		spans           func() uint64
		r               *Router
		in              *Ingress
		close           func()
	}
	var stacks []stack
	for _, rates := range [][2]int{{1024, 1024}, {6, 10}} {
		m := &Metrics{}
		tr := NewTraceRecorder(m, rates[0], 4096)
		sink := NewJourneyEmitter(4096)
		tap := NewRouterJourneyTap("R", sink, tr, rates[1], nil)
		r := NewRouter(mixState(secret, 64).OpsConfig(), RouterOptions{Metrics: m, Trace: tr})
		r.SetRecorder(tap)
		stacks = append(stacks, stack{name: fmt.Sprintf("bench %d/%d", rates[0], rates[1]), every: rates[0], tapEvery: rates[1],
			m: m, tr: tr, tap: tap, spans: sink.Added, r: r, in: r.ServeGuarded(ServeConfig{Workers: 1, Batch: 64})})
	}
	m := &Metrics{}
	r := NewRouter(mixState(secret, 64).OpsConfig(), RouterOptions{Metrics: m})
	stacks = append(stacks, stack{name: "metrics", m: m, r: r, in: r.ServeGuarded(ServeConfig{Workers: 1, Batch: 64})})
	for _, every := range []int{0, 6} {
		ring := 0
		if every > 0 {
			ring = 4096
		}
		n, err := BuildNode(NodeSpec{
			Name:      "seam",
			Secret:    bytes.Repeat([]byte{0x42}, 16),
			Cache:     64,
			Routes32:  []NodeRoute{{Prefix: []byte{workload.AddrPrefixByte, 0, 0, 0}, Len: 8, Port: 1}},
			Routes128: []NodeRoute{{Prefix: append([]byte{workload.Addr6PrefixByte}, make([]byte, 15)...), Len: 8, Port: 2}},
			Names:     []NodeRoute{{Prefix: binary.BigEndian.AppendUint32(nil, workload.NamePrefix), Len: 8, Port: 3}},
			Workers:   1, Batch: 64, TraceEvery: every, TraceRing: ring,
		}, WallEnv(nil))
		if err != nil {
			t.Fatal(err)
		}
		s := stack{name: fmt.Sprintf("node trace-every=%d", every), every: every, m: n.Metrics, r: n.Router, in: n.Ingress, close: n.Close}
		if every > 0 {
			s.tr = n.MetricsSource().Trace
		}
		stacks = append(stacks, s)
	}
	for _, s := range stacks {
		for p := 0; p < 4; p++ {
			s.r.AttachPort(PortFunc(func([]byte) {}))
		}
		if s.close == nil {
			s.close = s.in.Close
		}
		submitBursts(t, s.in, s.close, pkts)
		snap := s.m.Snapshot()
		gotOps, gotTimed := map[Key]int64{}, map[Key]int64{}
		for _, op := range snap.Ops {
			gotOps[op.Key] = op.Count
			if op.Timed > 0 {
				gotTimed[op.Key] = op.Timed
			}
		}
		if !maps.Equal(gotOps, want.ops) {
			t.Errorf("%s: op counts %v, dispatched %v", s.name, gotOps, want.ops)
		}
		if wantTimed := want.timedBy(metricsEvery, s.every, s.tapEvery); !maps.Equal(gotTimed, wantTimed) {
			t.Errorf("%s: timed %v, dispatched on sampled ordinals %v", s.name, gotTimed, wantTimed)
		}
		if !maps.Equal(snap.Drops, want.drops) {
			t.Errorf("%s: drops %v, want %v", s.name, snap.Drops, want.drops)
		}
		got := [core.NumVerdicts]int64{snap.NoAction, snap.Absorbed, snap.Forwarded, snap.Delivered, snap.Dropped}
		if got != want.verdicts || snap.Received != int64(len(pkts)) {
			t.Errorf("%s: verdicts %v of %d, want %v of %d", s.name, got, snap.Received, want.verdicts, len(pkts))
		}
		if s.tr != nil && (s.tr.Seen() != engineN || s.tr.Sampled() != engineN/uint64(s.every)) {
			t.Errorf("%s: trace seen %d sampled %d of %d at 1-in-%d", s.name, s.tr.Seen(), s.tr.Sampled(), engineN, s.every)
		}
		if s.tap != nil && (s.tap.Seen() != engineN || s.spans() != engineN/uint64(s.tapEvery)) {
			t.Errorf("%s: tap seen %d, %d spans of %d at 1-in-%d", s.name, s.tap.Seen(), s.spans(), engineN, s.tapEvery)
		}
	}
}

// TestHostCountsMatchDispatch is the same check for a host stack with the
// Metrics recorder cmd/diphost installs: its engine folds after every
// packet, so every F_ver the host engine dispatches, and every drop it
// decides, is counted by the time HandlePacket returns.
func TestHostCountsMatchDispatch(t *testing.T) {
	pkts, _ := burstEdgeTrace(t)
	var log []core.Key
	reg := core.NewRegistry()
	real := ops.NewHostRegistry(ops.Config{Sessions: host.NewSessionMap()})
	for _, k := range real.Keys() {
		reg.MustRegister(countedOp{real.Get(k), &log})
	}
	ref := core.NewHostEngine(reg, Limits{})
	wantOps, wantDrops := map[Key]int64{}, map[DropReason]int64{}
	h, m := NewHost(), &Metrics{}
	h.SetRecorder(m)
	var ctx ExecContext
	for i, p := range pkts {
		rx := h.HandlePacket(append([]byte(nil), p...))
		if ctx.Load(append([]byte(nil), p...), 0) != nil {
			continue
		}
		if _, ok := profiles.ParseFNUnsupported(ctx.View); ok {
			continue // the host reads the notice; no FN runs
		}
		log = log[:0]
		ref.Process(&ctx)
		for _, k := range log {
			wantOps[k]++
		}
		if ctx.Verdict == VerdictDrop {
			wantDrops[ctx.Reason]++
		}
		snap := m.Snapshot()
		var got int64
		for _, op := range snap.Ops {
			got += op.Count
			if op.Timed > op.Count {
				t.Errorf("packet %d: %v timed %d of %d executions", i, op.Key, op.Timed, op.Count)
			}
		}
		if got != sumValues(wantOps) {
			t.Fatalf("packet %d (%v, %d FNs): %d executions counted by HandlePacket's return, dispatched %d", i, rx.Kind, len(log), got, sumValues(wantOps))
		}
	}
	snap := m.Snapshot()
	gotOps := map[Key]int64{}
	for _, op := range snap.Ops {
		gotOps[op.Key] = op.Count
	}
	if len(wantOps) == 0 || !maps.Equal(gotOps, wantOps) {
		t.Errorf("host op counts %v, dispatched %v", gotOps, wantOps)
	}
	if !maps.Equal(snap.Drops, wantDrops) {
		t.Errorf("host drops %v, want %v", snap.Drops, wantDrops)
	}
}

func sumValues[K comparable](m map[K]int64) (n int64) {
	for _, v := range m {
		n += v
	}
	return n
}
