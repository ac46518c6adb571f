package router

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dip/internal/fib"
	"dip/internal/guard"
	"dip/internal/ops"
	"dip/internal/profiles"
	"dip/internal/telemetry"
)

// localPkt builds a packet that routes to local delivery, with a trailing
// tag byte the tests use to identify and classify it.
func localPkt(t *testing.T, tag byte) []byte {
	t.Helper()
	return pkt(t, profiles.IPv4([4]byte{1, 1, 1, 1}, [4]byte{2, 2, 2, 2}), []byte{tag})
}

func tagClass(p []byte) guard.Class {
	if len(p) > 0 && p[len(p)-1] >= 0xC0 {
		return guard.ClassControl
	}
	return guard.ClassBulk
}

func TestIngressSubmitCloseRace(t *testing.T) {
	// Submit from many goroutines while Close runs concurrently; the packed
	// state counter must prevent any send on a closed channel. Double Close
	// and submit-after-close ride along. Run under -race.
	for iter := 0; iter < 20; iter++ {
		cfg := baseCfg(t)
		cfg.FIB32.AddUint32(0, 0, fib.Local)
		r := New(ops.NewRouterRegistry(cfg), Config{LocalDelivery: func([]byte, int) {}})
		in := r.ServeGuarded(ServeConfig{Workers: 2, HighDepth: 4, LowDepth: 4})
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 200; i++ {
					in.Submit(localPkt(t, byte(i)), 0)
				}
			}()
		}
		wg.Add(2)
		for c := 0; c < 2; c++ {
			go func() { // concurrent double Close
				defer wg.Done()
				<-start
				in.Close()
			}()
		}
		close(start)
		wg.Wait()
		if in.Submit(localPkt(t, 0), 0) {
			t.Fatal("submit after close accepted")
		}
		in.Close() // idempotent after the concurrent pair
	}
}

func TestWorkerSurvivesPanic(t *testing.T) {
	// A poison packet must cost exactly itself: the worker recovers, the
	// bytes land in quarantine, and later packets still flow.
	cfg := baseCfg(t)
	cfg.FIB32.AddUint32(0, 0, fib.Local)
	var delivered atomic.Int64
	r := New(ops.NewRouterRegistry(cfg), Config{
		Metrics: &telemetry.Metrics{},
		LocalDelivery: func(pkt []byte, _ int) {
			if len(pkt) > 0 && pkt[len(pkt)-1] == 0xEE {
				panic("poison payload")
			}
			delivered.Add(1)
		},
	})
	in := r.ServeGuarded(ServeConfig{Workers: 1, HighDepth: 8, LowDepth: 8})
	poison := localPkt(t, 0xEE)
	if !in.Submit(append([]byte(nil), poison...), 3) {
		t.Fatal("poison submit refused")
	}
	for i := 0; i < 10; i++ {
		for !in.Submit(localPkt(t, 1), 0) {
		}
	}
	in.Close()
	if got := delivered.Load(); got != 10 {
		t.Errorf("delivered %d packets after the panic, want 10", got)
	}
	q := in.Quarantine().Snapshot()
	if len(q) != 1 {
		t.Fatalf("quarantine holds %d captures, want 1", len(q))
	}
	c := q[0]
	if c.InPort != 3 || c.Panic != "poison payload" {
		t.Errorf("capture = inport %d panic %q", c.InPort, c.Panic)
	}
	// The pipeline mutates headers in place before the panic, so compare
	// length and the untouched payload tag rather than the full bytes.
	if len(c.Packet) != len(poison) || c.Packet[len(c.Packet)-1] != 0xEE {
		t.Errorf("captured bytes are not the poison packet: % x", c.Packet)
	}
	if c.Stack == "" {
		t.Error("capture has no stack")
	}
	h := in.Health()
	if h.Quarantined != 1 {
		t.Errorf("Health.Quarantined = %d, want 1", h.Quarantined)
	}
}

func TestPumpServesControlFirst(t *testing.T) {
	cfg := baseCfg(t)
	cfg.FIB32.AddUint32(0, 0, fib.Local)
	var order []byte
	r := New(ops.NewRouterRegistry(cfg), Config{
		LocalDelivery: func(pkt []byte, _ int) { order = append(order, pkt[len(pkt)-1]) },
	})
	in := r.ServeGuarded(ServeConfig{Workers: 0, HighDepth: 8, LowDepth: 8, Classify: tagClass})
	defer in.Close()
	// Interleave bulk (tags < 0xC0) and control (tags >= 0xC0) submissions.
	for _, tag := range []byte{0x01, 0xC1, 0x02, 0xC2, 0x03} {
		if !in.Submit(localPkt(t, tag), 0) {
			t.Fatalf("submit %#x refused", tag)
		}
	}
	if n := in.Pump(); n != 5 {
		t.Fatalf("Pump processed %d, want 5", n)
	}
	want := []byte{0xC1, 0xC2, 0x01, 0x02, 0x03}
	if !bytes.Equal(order, want) {
		t.Errorf("service order % x, want control first: % x", order, want)
	}
}

func TestIngressAdmissionAndHealth(t *testing.T) {
	cfg := baseCfg(t)
	cfg.FIB32.AddUint32(0, 0, fib.Local)
	m := &telemetry.Metrics{}
	r := New(ops.NewRouterRegistry(cfg), Config{Metrics: m, LocalDelivery: func([]byte, int) {}})
	now := time.Duration(0)
	clock := func() int64 { return int64(now) }
	adm := guard.NewAdmission(guard.Policy{PerPort: guard.Rate{PerSec: 1, Burst: 2}}, clock)
	in := r.ServeGuarded(ServeConfig{
		Workers: 0, HighDepth: 2, LowDepth: 2,
		Admission: adm, Classify: tagClass, Clock: clock,
	})
	defer in.Close()

	if h, ok := r.Health(); !ok || h.LowCap != 2 {
		t.Fatalf("router Health = %+v ok=%v", h, ok)
	}
	// Two admitted (burst), then admission rejects.
	for i := 0; i < 5; i++ {
		in.Submit(localPkt(t, byte(i)), 7)
	}
	h := in.Health()
	if h.AdmitRejected != 3 || h.LowDepth != 2 {
		t.Errorf("after flood: %+v", h)
	}
	if adm.RejectedOnPort(7) != 3 {
		t.Errorf("RejectedOnPort(7) = %d, want 3", adm.RejectedOnPort(7))
	}
	// A different port still gets its own burst, but the queue is full now:
	// those submissions shed, not reject.
	for i := 0; i < 2; i++ {
		in.Submit(localPkt(t, byte(i)), 8)
	}
	h = in.Health()
	if h.ShedLow != 2 || h.ShedHigh != 0 {
		t.Errorf("shed counters: %+v", h)
	}
	if in.Dropped() != 2 {
		t.Errorf("Dropped = %d, want 2", in.Dropped())
	}
	in.Pump()
	h = in.Health()
	if h.Processed != 2 || h.LowDepth != 0 {
		t.Errorf("after pump: %+v", h)
	}
	snap := m.Snapshot()
	if snap.Events[telemetry.EventAdmitReject] != 3 || snap.Events[telemetry.EventShedLow] != 2 {
		t.Errorf("telemetry events: admit-reject=%d shed-low=%d",
			snap.Events[telemetry.EventAdmitReject], snap.Events[telemetry.EventShedLow])
	}
}

func TestHealthDetectsStalledWorker(t *testing.T) {
	cfg := baseCfg(t)
	cfg.FIB32.AddUint32(0, 0, fib.Local)
	var clk atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	r := New(ops.NewRouterRegistry(cfg), Config{
		LocalDelivery: func(pkt []byte, _ int) {
			if pkt[len(pkt)-1] == 0x55 {
				close(started)
				<-release
			}
		},
	})
	in := r.ServeGuarded(ServeConfig{
		Workers: 1,
		Clock:   clk.Load,
	})
	if !in.Submit(localPkt(t, 0x55), 0) {
		t.Fatal("submit refused")
	}
	<-started
	if h := in.Health(); h.Stalled != 0 {
		t.Errorf("stalled before threshold: %+v", h)
	}
	clk.Store(int64(2 * time.Second)) // past the one-second stall threshold
	if h := in.Health(); h.Stalled != 1 {
		t.Errorf("stall not detected: %+v", h)
	}
	close(release)
	in.Close()
	if h := in.Health(); h.Stalled != 0 {
		t.Errorf("stall persists after worker finished: %+v", h)
	}
	if _, ok := r.Health(); ok {
		t.Error("router still reports an ingress after Close")
	}
}
