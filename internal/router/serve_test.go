package router

import (
	"sync"
	"sync/atomic"
	"testing"

	"dip/internal/fib"
	"dip/internal/ops"
	"dip/internal/profiles"
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
