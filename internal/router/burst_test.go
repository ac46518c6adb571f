package router

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dip/internal/fib"
	"dip/internal/guard"
	"dip/internal/host"
	"dip/internal/ops"
	"dip/internal/profiles"
)

// flowPkt builds a locally-delivered packet belonging to flow f with
// per-flow sequence number seq encoded in the payload. Distinct flows get
// distinct IPv4 sources, hence distinct FN-locations regions, hence
// distinct flow-dispatch keys.
func flowPkt(t testing.TB, f, seq int) []byte {
	t.Helper()
	var payload [8]byte
	binary.BigEndian.PutUint32(payload[:4], uint32(f))
	binary.BigEndian.PutUint32(payload[4:], uint32(seq))
	src := [4]byte{10, byte(f >> 8), byte(f), 7}
	b, err := host.BuildPacket(profiles.IPv4(src, [4]byte{2, 2, 2, 2}), payload[:])
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// flowSeqOf decodes flowPkt's payload from a delivered packet.
func flowSeqOf(pkt []byte) (f, seq int) {
	p := pkt[len(pkt)-8:]
	return int(binary.BigEndian.Uint32(p[:4])), int(binary.BigEndian.Uint32(p[4:]))
}

// goid extracts the current goroutine's id from the stack header — good
// enough to assert "same goroutine" in tests (never use this in real code).
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		n, _ := strconv.ParseInt(string(b[:i]), 10, 64)
		return n
	}
	return -1
}

// TestFlowPinningOrderProperty is the flow-pinning invariant pinned as a
// property test: for any interleaving of submitted flows, packets of the
// same flow are processed in submission order and all by the same
// forwarder goroutine. The processed order per flow is compared against a
// sequential oracle (the same packets through a plain HandlePacket
// router), across batch sizes 1, 3, 64 and 256.
func TestFlowPinningOrderProperty(t *testing.T) {
	const (
		flows      = 32
		perFlow    = 40
		submitters = 4
	)
	for _, batch := range []int{1, 3, 64, 256} {
		t.Run("batch="+strconv.Itoa(batch), func(t *testing.T) {
			// Oracle: the same per-flow packet sequence through a sequential
			// router records the order batching must preserve per flow.
			oracle := make(map[int][]int, flows)
			{
				cfg := baseCfg(t)
				cfg.FIB32.AddUint32(0, 0, fib.Local)
				r := New(ops.NewRouterRegistry(cfg), Config{
					LocalDelivery: func(pkt []byte, _ int) {
						f, seq := flowSeqOf(pkt)
						oracle[f] = append(oracle[f], seq)
					},
				})
				for f := 0; f < flows; f++ {
					for seq := 0; seq < perFlow; seq++ {
						r.HandlePacket(flowPkt(t, f, seq), 0)
					}
				}
			}

			cfg := baseCfg(t)
			cfg.FIB32.AddUint32(0, 0, fib.Local)
			var (
				mu    sync.Mutex
				got   = make(map[int][]int, flows)
				byGor = make(map[int]map[int64]bool, flows)
			)
			r := New(ops.NewRouterRegistry(cfg), Config{
				LocalDelivery: func(pkt []byte, _ int) {
					f, seq := flowSeqOf(pkt)
					g := goid()
					mu.Lock()
					got[f] = append(got[f], seq)
					if byGor[f] == nil {
						byGor[f] = map[int64]bool{}
					}
					byGor[f][g] = true
					mu.Unlock()
				},
			})
			in := r.ServeGuarded(ServeConfig{
				Workers:   4,
				Batch:     batch,
				HighDepth: 256,
				LowDepth:  256,
			})

			// Each submitter owns a disjoint set of flows and submits each
			// flow's packets in sequence order, interleaving its flows in a
			// seeded-random order — any cross-flow interleaving is legal, only
			// per-flow order is promised.
			var wg sync.WaitGroup
			for s := 0; s < submitters; s++ {
				s := s
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(1000*batch + s)))
					next := make([]int, flows/submitters) // next seq per owned flow
					remaining := len(next) * perFlow
					for remaining > 0 {
						i := rng.Intn(len(next))
						if next[i] == perFlow {
							continue
						}
						f := s*(flows/submitters) + i
						p := flowPkt(t, f, next[i])
						for !in.Submit(p, 0) {
							runtime.Gosched() // backpressure: retry, never reorder
						}
						next[i]++
						remaining--
					}
				}()
			}
			wg.Wait()
			in.Close() // drains all queues before returning

			for f := 0; f < flows; f++ {
				if len(got[f]) != perFlow {
					t.Fatalf("flow %d: delivered %d/%d packets", f, len(got[f]), perFlow)
				}
				for i := range got[f] {
					if got[f][i] != oracle[f][i] {
						t.Fatalf("flow %d diverges from sequential oracle at %d: got %v",
							f, i, got[f][:i+1])
					}
				}
				if len(byGor[f]) != 1 {
					t.Fatalf("flow %d processed by %d goroutines, want exactly 1", f, len(byGor[f]))
				}
			}
		})
	}
}

// TestBurstSubmitCloseStress drives concurrent Submit and SubmitBurst
// against concurrent double-Close, exercising the closed-bit/in-flight
// lifecycle around the burst queues. Run under -race (make check does).
// The accounting invariant checked at the end: every packet a submitter
// was told was accepted is processed before Close returns — none lost,
// none processed twice.
func TestBurstSubmitCloseStress(t *testing.T) {
	for iter := 0; iter < 10; iter++ {
		cfg := baseCfg(t)
		cfg.FIB32.AddUint32(0, 0, fib.Local)
		r := New(ops.NewRouterRegistry(cfg), Config{LocalDelivery: func([]byte, int) {}})
		in := r.ServeGuarded(ServeConfig{
			Workers:   4,
			Batch:     16,
			HighDepth: 32,
			LowDepth:  32,
		})
		var accepted atomic.Int64
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				burst := make([][]byte, 8)
				for i := 0; i < 60; i++ {
					if i%2 == 0 {
						for j := range burst {
							burst[j] = flowPkt(t, g*4096+i*8+j, i)
						}
						accepted.Add(int64(in.SubmitBurst(burst, g)))
					} else if in.Submit(flowPkt(t, g*4096+i, i), g) {
						accepted.Add(1)
					}
				}
			}()
		}
		wg.Add(2)
		for c := 0; c < 2; c++ {
			go func() { // concurrent double Close mid-traffic
				defer wg.Done()
				<-start
				in.Close()
			}()
		}
		close(start)
		wg.Wait()
		in.Close() // idempotent after the concurrent pair
		if in.Submit(flowPkt(t, 1, 1), 0) {
			t.Fatal("submit after close accepted")
		}
		if in.SubmitBurst([][]byte{flowPkt(t, 1, 2)}, 0) != 0 {
			t.Fatal("burst submit after close accepted")
		}
		if got, want := in.Processed(), accepted.Load(); got != want {
			t.Fatalf("iter %d: processed %d packets, accepted %d", iter, got, want)
		}
	}
}

// TestBurstControlPreemption pins the preemption granularity of
// run-to-completion batching: a control packet arriving while a bulk
// burst is executing does not interrupt the burst (run-to-completion is
// the contract) but is the very next packet processed when the burst
// ends, ahead of all queued bulk. Deterministic pump mode makes the
// expected total order exact.
func TestBurstControlPreemption(t *testing.T) {
	cfg := baseCfg(t)
	cfg.FIB32.AddUint32(0, 0, fib.Local)
	var order []byte
	var in *Ingress
	r := New(ops.NewRouterRegistry(cfg), Config{
		LocalDelivery: func(p []byte, _ int) {
			tag := p[len(p)-1]
			order = append(order, tag)
			if tag == 3 { // control traffic arrives mid-burst
				if !in.Submit(localPkt(t, 0xC7), 1) {
					t.Fatal("control submit refused")
				}
			}
		},
	})
	in = r.ServeGuarded(ServeConfig{
		Workers:   0,
		Batch:     8,
		HighDepth: 8,
		LowDepth:  64,
		Classify:  tagClass,
	})
	defer in.Close()
	for i := 0; i < 24; i++ {
		if !in.Submit(localPkt(t, byte(i)), 0) {
			t.Fatalf("bulk submit %d refused", i)
		}
	}
	if n := in.Pump(); n != 25 {
		t.Fatalf("pumped %d packets, want 25", n)
	}
	// Burst 1 runs bulk 0–7 to completion (the control packet arrives
	// during tag 3); the control packet then preempts all remaining bulk.
	want := make([]byte, 0, 25)
	for i := 0; i < 8; i++ {
		want = append(want, byte(i))
	}
	want = append(want, 0xC7)
	for i := 8; i < 24; i++ {
		want = append(want, byte(i))
	}
	if !bytes.Equal(order, want) {
		t.Fatalf("delivery order\n got %v\nwant %v", order, want)
	}
}

// TestFlowDispatchPinning checks the dispatch table directly: stable
// assignment for one flow (including across hop-limit rewrites, which
// live outside the FN locations), full spread across forwarders for many
// flows, and graceful handling of non-DIP bytes.
func TestFlowDispatchPinning(t *testing.T) {
	cfg := baseCfg(t)
	cfg.FIB32.AddUint32(0, 0, fib.Local)
	r := New(ops.NewRouterRegistry(cfg), Config{LocalDelivery: func([]byte, int) {}})
	in := r.ServeGuarded(ServeConfig{Workers: 4, Batch: 64})
	defer in.Close()

	p := flowPkt(t, 7, 0)
	fw := in.forwarderOf(p)
	p[3] = 1 // hop-limit rewrite must not migrate the flow
	if got := in.forwarderOf(p); got != fw {
		t.Fatalf("hop-limit rewrite moved flow: %d -> %d", fw, got)
	}
	if got := in.forwarderOf(flowPkt(t, 7, 99)); got != fw {
		t.Fatalf("same flow, different payload dispatched to %d, want %d", got, fw)
	}

	seen := map[int]bool{}
	for f := 0; f < 1024; f++ {
		fw := in.forwarderOf(flowPkt(t, f, 0))
		if fw < 0 || fw >= 4 {
			t.Fatalf("flow %d dispatched to out-of-range forwarder %d", f, fw)
		}
		seen[fw] = true
	}
	if len(seen) != 4 {
		t.Fatalf("1024 flows landed on %d/4 forwarders", len(seen))
	}

	// Non-DIP bytes must dispatch somewhere stable without panicking.
	for _, garbage := range [][]byte{nil, {0x45}, bytes.Repeat([]byte{0xAB}, 64)} {
		a, b := in.forwarderOf(garbage), in.forwarderOf(garbage)
		if a != b || a < 0 || a >= 4 {
			t.Fatalf("garbage dispatch unstable: %d vs %d", a, b)
		}
	}
}

// TestSubmitBurstAdmissionControlNotStarved pins the burst-admission
// contract: a mixed burst is charged per same-class run, so exhausting
// the bulk budget rejects bulk packets but every control packet
// interleaved with them is still admitted and delivered.
func TestSubmitBurstAdmissionControlNotStarved(t *testing.T) {
	cfg := baseCfg(t)
	cfg.FIB32.AddUint32(0, 0, fib.Local)
	var control, bulk int
	r := New(ops.NewRouterRegistry(cfg), Config{
		LocalDelivery: func(p []byte, _ int) {
			if tagClass(p) == guard.ClassControl {
				control++
			} else {
				bulk++
			}
		},
	})
	var now time.Duration
	policy := guard.Policy{}
	policy.PerClass[guard.ClassBulk] = guard.Rate{PerSec: 1, Burst: 4}
	adm := guard.NewAdmission(policy, func() int64 { return int64(now) })
	in := r.ServeGuarded(ServeConfig{
		Workers:   0,
		Batch:     64,
		HighDepth: 64,
		LowDepth:  64,
		Classify:  tagClass,
		Admission: adm,
	})
	defer in.Close()

	// 16 bulk with 4 control interleaved; the bulk bucket only holds 4.
	burst := make([][]byte, 0, 20)
	for i := 0; i < 20; i++ {
		tag := byte(i)
		if i%5 == 2 {
			tag = 0xC0 + byte(i)
		}
		burst = append(burst, localPkt(t, tag))
	}
	if got := in.SubmitBurst(burst, 0); got != 8 {
		t.Fatalf("accepted %d packets, want 8 (4 bulk budget + 4 control)", got)
	}
	if n := in.Pump(); n != 8 {
		t.Fatalf("pumped %d, want 8", n)
	}
	if control != 4 || bulk != 4 {
		t.Fatalf("delivered control=%d bulk=%d, want 4 and 4", control, bulk)
	}
	if h := in.Health(); h.AdmitRejected != 12 {
		t.Fatalf("AdmitRejected=%d, want 12", h.AdmitRejected)
	}
}
