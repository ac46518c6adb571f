package pit

import (
	"testing"
	"time"

	"dip/internal/netsim"
)

// Table-driven PIT semantics under the packet pathologies fault-injected
// links produce: duplicate data (no double-satisfy), reordered data
// (arriving before any interest, or after expiry), and expiry sweeping
// (no stale-entry leak).
func TestPITUnderDuplicateAndReorderedData(t *testing.T) {
	type step struct {
		op       string // "interest", "data", "advance", "sweep"
		name     uint32
		port     int
		d        time.Duration // advance
		wantNew  bool          // interest: expect created
		wantOK   bool          // data: expect a live entry consumed
		wantPort []int         // data: expected request ports
		wantLen  int           // sweep/advance: expected live Len afterwards
	}
	cases := []struct {
		label string
		ttl   time.Duration
		steps []step
	}{
		{
			label: "duplicate data satisfies once",
			ttl:   time.Second,
			steps: []step{
				{op: "interest", name: 1, port: 2, wantNew: true},
				{op: "data", name: 1, wantOK: true, wantPort: []int{2}},
				{op: "data", name: 1, wantOK: false}, // the duplicate
			},
		},
		{
			label: "reordered data with no pending interest is a miss",
			ttl:   time.Second,
			steps: []step{
				{op: "data", name: 9, wantOK: false},
				{op: "interest", name: 9, port: 1, wantNew: true},
				{op: "data", name: 9, wantOK: true, wantPort: []int{1}},
			},
		},
		{
			label: "aggregated interests all satisfied by one data, duplicates by none",
			ttl:   time.Second,
			steps: []step{
				{op: "interest", name: 5, port: 0, wantNew: true},
				{op: "interest", name: 5, port: 3, wantNew: false},
				{op: "interest", name: 5, port: 3, wantNew: false}, // duplicate interest, same port
				{op: "data", name: 5, wantOK: true, wantPort: []int{0, 3}},
				{op: "data", name: 5, wantOK: false},
			},
		},
		{
			label: "data after TTL is a miss and re-expressed interest recreates",
			ttl:   10 * time.Millisecond,
			steps: []step{
				{op: "interest", name: 7, port: 4, wantNew: true},
				{op: "advance", d: 20 * time.Millisecond},
				{op: "data", name: 7, wantOK: false}, // too late: entry dead
				{op: "interest", name: 7, port: 4, wantNew: true},
				{op: "data", name: 7, wantOK: true, wantPort: []int{4}},
			},
		},
		{
			label: "sweep removes expired entries only",
			ttl:   10 * time.Millisecond,
			steps: []step{
				{op: "interest", name: 1, port: 0, wantNew: true},
				{op: "interest", name: 2, port: 1, wantNew: true},
				{op: "advance", d: 20 * time.Millisecond},
				{op: "interest", name: 3, port: 2, wantNew: true},
				{op: "sweep", wantLen: 1}, // 1 and 2 dead, 3 live
				{op: "data", name: 3, wantOK: true, wantPort: []int{2}},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			var now time.Duration
			tab := New[uint32](WithTTL[uint32](tc.ttl), WithClock[uint32](func() int64 { return int64(now) }))
			for i, s := range tc.steps {
				switch s.op {
				case "interest":
					created, err := tab.AddInterest(s.name, s.port)
					if err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
					if created != s.wantNew {
						t.Fatalf("step %d: created=%v, want %v", i, created, s.wantNew)
					}
				case "data":
					ports, ok := tab.Consume(nil, s.name)
					if ok != s.wantOK {
						t.Fatalf("step %d: consume ok=%v, want %v", i, ok, s.wantOK)
					}
					if len(ports) != len(s.wantPort) {
						t.Fatalf("step %d: ports %v, want %v", i, ports, s.wantPort)
					}
					for j := range ports {
						if ports[j] != s.wantPort[j] {
							t.Fatalf("step %d: ports %v, want %v", i, ports, s.wantPort)
						}
					}
				case "advance":
					now += s.d
				case "sweep":
					tab.Expire()
					if tab.Len() != s.wantLen {
						t.Fatalf("step %d: len=%d after sweep, want %d", i, tab.Len(), s.wantLen)
					}
				}
			}
			// No stale-entry leak: after expiring everything, a final sweep
			// leaves the table empty.
			now += time.Hour
			tab.Expire()
			if tab.Len() != 0 {
				t.Errorf("stale entries leaked: len=%d", tab.Len())
			}
		})
	}
}

func TestSweepEveryOnSimulator(t *testing.T) {
	sim := netsim.New()
	// Drive the PIT clock from virtual time so expiry is deterministic.
	tab := New[uint32](
		WithTTL[uint32](30*time.Millisecond),
		WithClock[uint32](func() int64 { return int64(sim.Now()) }),
	)
	var sweeps []int
	cancel := tab.SweepEvery(sim, 25*time.Millisecond, func(n int) { sweeps = append(sweeps, n) })

	tab.AddInterest(1, 0)
	tab.AddInterest(2, 1)
	sim.Schedule(40*time.Millisecond, func() { tab.AddInterest(3, 2) })

	sim.RunUntil(60 * time.Millisecond)
	// Sweep at 25ms: nothing expired. Sweep at 50ms: entries 1 and 2 (TTL
	// 30ms) are dead; entry 3 (added at 40ms) survives.
	if len(sweeps) != 1 || sweeps[0] != 2 {
		t.Errorf("sweep removals %v, want [2]", sweeps)
	}
	if tab.Len() != 1 || !tab.Pending(3) {
		t.Errorf("len=%d pending(3)=%v", tab.Len(), tab.Pending(3))
	}
	if tab.ExpiredTotal() != 2 {
		t.Errorf("ExpiredTotal=%d", tab.ExpiredTotal())
	}

	// Cancel stops the chain: the queue drains instead of ticking forever.
	cancel()
	sim.RunUntil(time.Second)
	if sim.Pending() != 0 {
		t.Errorf("%d events still queued after cancel", sim.Pending())
	}
	if len(sweeps) != 1 {
		t.Errorf("sweeps after cancel: %v", sweeps)
	}
}
