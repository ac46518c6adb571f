package pit

import (
	"errors"
	"testing"
	"time"
)

type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() int64              { return int64(c.t) }
func (c *fakeClock) advance(d time.Duration) { c.t += d }

func newTestPIT(opts ...Option[uint32]) (*Table[uint32], *fakeClock) {
	c := &fakeClock{t: 1000 * time.Second}
	opts = append(opts, WithClock[uint32](c.now))
	return New[uint32](opts...), c
}

func TestInterestThenData(t *testing.T) {
	p, _ := newTestPIT()
	created, err := p.AddInterest(7, 3)
	if err != nil || !created {
		t.Fatalf("created=%v err=%v", created, err)
	}
	ports, ok := p.Consume(nil, 7)
	if !ok || len(ports) != 1 || ports[0] != 3 {
		t.Errorf("Consume = %v %v", ports, ok)
	}
	// Entry is gone after consumption.
	if _, ok := p.Consume(nil, 7); ok {
		t.Error("second Consume succeeded")
	}
	if p.Len() != 0 {
		t.Errorf("Len = %d", p.Len())
	}
}

func TestDataWithoutInterestDiscarded(t *testing.T) {
	p, _ := newTestPIT()
	if _, ok := p.Consume(nil, 42); ok {
		t.Error("data without pending interest matched")
	}
}

func TestInterestAggregation(t *testing.T) {
	p, _ := newTestPIT()
	p.AddInterest(7, 1)
	created, err := p.AddInterest(7, 2)
	if err != nil || created {
		t.Errorf("aggregated interest reported created=%v err=%v", created, err)
	}
	// Same port again must not duplicate.
	p.AddInterest(7, 2)
	ports, ok := p.Consume(nil, 7)
	if !ok || len(ports) != 2 {
		t.Fatalf("ports = %v", ports)
	}
	seen := map[int]bool{ports[0]: true, ports[1]: true}
	if !seen[1] || !seen[2] {
		t.Errorf("ports = %v", ports)
	}
}

func TestAggregationCap(t *testing.T) {
	p, _ := newTestPIT()
	for port := 0; port < MaxPortsPerEntry+4; port++ {
		p.AddInterest(1, port)
	}
	ports, _ := p.Consume(nil, 1)
	if len(ports) != MaxPortsPerEntry {
		t.Errorf("got %d ports, want %d", len(ports), MaxPortsPerEntry)
	}
}

func TestExpiry(t *testing.T) {
	p, clock := newTestPIT(WithTTL[uint32](time.Second))
	p.AddInterest(7, 1)
	clock.advance(2 * time.Second)
	if p.Pending(7) {
		t.Error("expired entry still pending")
	}
	if _, ok := p.Consume(nil, 7); ok {
		t.Error("expired entry consumed")
	}
	// A fresh interest after expiry is a new entry.
	created, _ := p.AddInterest(7, 2)
	if !created {
		t.Error("interest after expiry did not create")
	}
}

func TestExpirySweep(t *testing.T) {
	p, clock := newTestPIT(WithTTL[uint32](time.Second))
	p.AddInterest(1, 1)
	p.AddInterest(2, 1)
	clock.advance(500 * time.Millisecond)
	p.AddInterest(3, 1)
	clock.advance(700 * time.Millisecond) // 1 and 2 dead, 3 alive
	if n := p.Expire(); n != 2 {
		t.Errorf("Expire removed %d, want 2", n)
	}
	if p.Len() != 1 || !p.Pending(3) {
		t.Errorf("Len=%d pending3=%v", p.Len(), p.Pending(3))
	}
}

func TestCapacity(t *testing.T) {
	p, _ := newTestPIT(WithCapacity[uint32](2))
	p.AddInterest(1, 1)
	p.AddInterest(2, 1)
	if _, err := p.AddInterest(3, 1); !errors.Is(err, ErrFull) {
		t.Errorf("err = %v, want ErrFull", err)
	}
	// Aggregation onto existing entries still works at capacity.
	if _, err := p.AddInterest(1, 2); err != nil {
		t.Errorf("aggregation at capacity failed: %v", err)
	}
}

func TestInterestRefreshesTTL(t *testing.T) {
	p, clock := newTestPIT(WithTTL[uint32](time.Second))
	p.AddInterest(7, 1)
	clock.advance(800 * time.Millisecond)
	p.AddInterest(7, 2) // refresh
	clock.advance(800 * time.Millisecond)
	if !p.Pending(7) {
		t.Error("refreshed entry expired early")
	}
}

func TestConsumeAppendsToDst(t *testing.T) {
	p, _ := newTestPIT()
	p.AddInterest(7, 4)
	buf := make([]int, 0, 8)
	ports, ok := p.Consume(buf, 7)
	if !ok || len(ports) != 1 || ports[0] != 4 {
		t.Fatalf("ports = %v", ports)
	}
	if &ports[0] != &buf[:1][0] {
		t.Error("Consume did not reuse caller buffer")
	}
}

func TestConsumeZeroAlloc(t *testing.T) {
	p, _ := newTestPIT()
	buf := make([]int, 0, 8)
	allocs := testing.AllocsPerRun(500, func() {
		buf, _ = p.Consume(buf[:0], 99)
	})
	if allocs != 0 {
		t.Errorf("miss path allocates %.1f", allocs)
	}
}

func BenchmarkAddConsume(b *testing.B) {
	p := New[uint32](WithCapacity[uint32](1 << 20))
	var buf [MaxPortsPerEntry]int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		name := uint32(i)
		p.AddInterest(name, 3)
		p.Consume(buf[:0], name)
	}
}

// WithCapacity bounds the number of simultaneous entries (default 65536).
// The bound is global and exact regardless of the shard count.
func WithCapacity[K comparable](n int) Option[K] {
	return func(t *Table[K]) { t.cap = int64(n) }
}
