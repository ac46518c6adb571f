package router

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"dip/internal/core"
	"dip/internal/fib"
	"dip/internal/guard"
	"dip/internal/ops"
	"dip/internal/profiles"
	"dip/internal/telemetry"
)

func TestIngressProcessesAll(t *testing.T) {
	cfg := baseCfg(t)
	cfg.FIB32.AddUint32(0x0A000000, 8, fib.NextHop{Port: 0})
	r := New(ops.NewRouterRegistry(cfg), Config{})
	var forwarded atomic.Int64
	r.AttachPort(PortFunc(func([]byte) { forwarded.Add(1) }))

	in := r.ServeGuarded(ServeConfig{Workers: 4, HighDepth: 256, LowDepth: 256})
	const total = 2000
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < total/4; i++ {
				p := pkt(t, profiles.IPv4([4]byte{1, 1, 1, 1}, [4]byte{10, 0, 0, 9}), nil)
				for !in.Submit(p, 1) {
					// Queue full: retry (backpressure in a test).
				}
			}
		}()
	}
	wg.Wait()
	in.Close()
	// Every packet was retried until accepted, so every one must have been
	// forwarded (rejected submissions counted as drops but were resubmitted).
	if got := forwarded.Load(); got != total {
		t.Fatalf("forwarded = %d, want %d", got, total)
	}
}

func TestIngressTailDropAndClose(t *testing.T) {
	cfg := baseCfg(t)
	r := New(ops.NewRouterRegistry(cfg), Config{})
	in := r.ServeGuarded(ServeConfig{Workers: 1, HighDepth: 1, LowDepth: 1})
	in.Close()
	if in.Submit([]byte{1}, 0) {
		t.Error("submit after close accepted")
	}
	in.Close() // idempotent

	// A fresh ingress with a tiny queue and a blocked worker sheds load.
	block := make(chan struct{})
	cfg2 := baseCfg(t)
	r2 := New(ops.NewRouterRegistry(cfg2), Config{
		LocalDelivery: func([]byte, int) { <-block },
	})
	cfg2.FIB32.AddUint32(0, 0, fib.Local)
	in2 := r2.ServeGuarded(ServeConfig{Workers: 1, HighDepth: 1, LowDepth: 1})
	defer in2.Close()
	p := func() []byte {
		return pkt(t, profiles.IPv4([4]byte{1, 1, 1, 1}, [4]byte{2, 2, 2, 2}), nil)
	}
	in2.Submit(p(), 0) // occupies the worker
	in2.Submit(p(), 0) // fills the queue
	dropped := false
	for i := 0; i < 100; i++ {
		if !in2.Submit(p(), 0) {
			dropped = true
			break
		}
	}
	close(block)
	if !dropped {
		t.Error("overload never shed")
	}
	if in2.Dropped() == 0 {
		t.Error("drop counter not advanced")
	}
}

// TestSingleQueueHandOff covers the one-queue shortcut — one forwarder and
// pump mode answer "queue 0" without hashing the packet — from the outside:
// whatever is submitted, packet by packet or in bursts, still meets its
// fate. Non-DIP bytes are counted malformed, a poison packet lands in
// quarantine and costs only itself, and within each class packets are
// processed in the order they were submitted.
func TestSingleQueueHandOff(t *testing.T) {
	for _, workers := range []int{1, 0} {
		cfg := baseCfg(t)
		cfg.FIB32.AddUint32(0, 0, fib.Local)
		m := &telemetry.Metrics{}
		var order [guard.NumClasses][]byte // delivered tags per class; one consumer, so no lock
		r := New(ops.NewRouterRegistry(cfg), Config{
			Metrics: m,
			LocalDelivery: func(p []byte, _ int) {
				tag := p[len(p)-1]
				if tag == 0xEE {
					panic("poison payload")
				}
				order[tagClass(p)] = append(order[tagClass(p)], tag)
			},
		})
		in := r.ServeGuarded(ServeConfig{Workers: workers, Batch: 8, HighDepth: 256, LowDepth: 256, Classify: tagClass})
		garbage := [][]byte{nil, {0x45}, bytes.Repeat([]byte{0xAB}, 64)}
		for _, g := range garbage {
			if fw := in.forwarderOf(g); fw != 0 {
				t.Fatalf("workers=%d: garbage dispatched to forwarder %d of one", workers, fw)
			}
		}
		// Tags 0x01… are bulk, 0xC0… control; garbage and poison ride between.
		var want [guard.NumClasses][]byte
		var burst [][]byte
		for i := 0; i < 40; i++ {
			tag := byte(1 + i)
			if i%3 == 0 {
				tag = byte(0xC0 + i/3)
			}
			want[tagClass([]byte{tag})] = append(want[tagClass([]byte{tag})], tag)
			burst = append(burst, localPkt(t, tag))
			switch i {
			case 7, 19, 31:
				burst = append(burst, garbage[i%3])
			case 11:
				burst = append(burst, localPkt(t, 0xEE))
			}
		}
		half := len(burst) / 2
		for _, p := range burst[:half] {
			if !in.Submit(p, 0) {
				t.Fatalf("workers=%d: Submit refused", workers)
			}
		}
		if n := in.SubmitBurst(burst[half:], 0); n != len(burst)-half {
			t.Fatalf("workers=%d: SubmitBurst accepted %d/%d", workers, n, len(burst)-half)
		}
		in.Close() // drains: forwarder exit, or an inline Pump
		for c := range want {
			if !bytes.Equal(order[c], want[c]) {
				t.Errorf("workers=%d class %d: processed order % x, want % x", workers, c, order[c], want[c])
			}
		}
		if got := in.Processed(); got != int64(len(burst)) {
			t.Errorf("workers=%d: processed %d, want %d", workers, got, len(burst))
		}
		if got := m.Snapshot().Drops[core.DropMalformed]; got != int64(len(garbage)) {
			t.Errorf("workers=%d: %d malformed drops, want %d", workers, got, len(garbage))
		}
		if q := in.Quarantine().Snapshot(); len(q) != 1 || q[0].Panic != "poison payload" {
			t.Errorf("workers=%d: quarantine %+v, want the one poison packet", workers, q)
		}
	}
}

// TestPoisonInBurstCostsItself: a burst runs behind one recover, and a
// poison packet anywhere in it — first, in the middle, last, or two in a
// row — is quarantined with its in-port while every other packet of the
// burst is handled exactly once, in submission order.
func TestPoisonInBurstCostsItself(t *testing.T) {
	const n, gateTag = 64, 0xBF
	for _, poison := range [][]int{{0}, {n / 2}, {n - 1}, {20, 21}} {
		for _, workers := range []int{1, 0} {
			isPoison := map[byte]bool{}
			for _, i := range poison {
				isPoison[byte(i)] = true
			}
			cfg := baseCfg(t)
			cfg.FIB32.AddUint32(0, 0, fib.Local)
			gate, parked := make(chan struct{}), make(chan struct{})
			var got []byte // one consumer; read after Close
			r := New(ops.NewRouterRegistry(cfg), Config{
				LocalDelivery: func(p []byte, _ int) {
					switch tag := p[len(p)-1]; {
					case tag == gateTag:
						close(parked)
						<-gate
					case isPoison[tag]:
						panic("poison")
					default:
						got = append(got, tag)
					}
				},
			})
			in := r.ServeGuarded(ServeConfig{Workers: workers, Batch: n, HighDepth: n, LowDepth: n})
			submitted := int64(n)
			if workers == 1 {
				// Park the forwarder on a burst of its own, so the n packets
				// below queue up behind it and leave as one burst.
				in.Submit(localPkt(t, gateTag), 0)
				<-parked
				submitted++
			}
			var want []byte
			for i := 0; i < n; i++ {
				if !in.Submit(localPkt(t, byte(i)), 1+i%5) {
					t.Fatalf("poison %v workers=%d: Submit %d refused", poison, workers, i)
				}
				if !isPoison[byte(i)] {
					want = append(want, byte(i))
				}
			}
			if workers == 1 {
				close(gate)
			} else if got := in.Pump(); got != n {
				t.Fatalf("poison %v: pumped %d, want %d", poison, got, n)
			}
			in.Close()
			if !bytes.Equal(got, want) {
				t.Errorf("poison %v workers=%d: handled % x, want % x", poison, workers, got, want)
			}
			if p := in.Processed(); p != submitted {
				t.Errorf("poison %v workers=%d: processed %d, want %d", poison, workers, p, submitted)
			}
			q := in.Quarantine().Snapshot()
			if len(q) != len(poison) {
				t.Fatalf("poison %v workers=%d: %d captures", poison, workers, len(q))
			}
			for j, c := range q {
				if i := poison[j]; c.Packet[len(c.Packet)-1] != byte(i) || c.InPort != 1+i%5 || c.Panic != "poison" {
					t.Errorf("poison %v workers=%d: capture %d is tag %#x from port %d (%q), want %#x from port %d",
						poison, workers, j, c.Packet[len(c.Packet)-1], c.InPort, c.Panic, i, 1+i%5)
				}
			}
		}
	}
}
