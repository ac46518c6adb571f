package dip

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"testing"

	"dip/internal/core"
	"dip/internal/workload"
)

// countedOp is the seam tests' independent witness: it logs its key every
// time the engine dispatches it, before delegating to the real operation.
type countedOp struct {
	core.Operation
	log *[]core.Key
}

func (o countedOp) Execute(ctx *core.ExecContext, loc, bits uint) error {
	*o.log = append(*o.log, o.Key())
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
