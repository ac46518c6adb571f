package cs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// newSyncTiered builds a store with a synchronous (Readers 0) cold tier for
// deterministic tests: spills and reads happen inline.
func newSyncTiered(t *testing.T, hotCap, slots int, cfg ColdConfig) *Store[uint32] {
	t.Helper()
	cfg.Slots = slots
	ts := New[uint32](hotCap)
	if err := ts.OpenCold(cfg); err != nil {
		t.Fatalf("OpenCold: %v", err)
	}
	t.Cleanup(func() { ts.Close() })
	return ts
}

func TestArenaRoundTrip(t *testing.T) {
	a, err := newArena("", 4, 64)
	if err != nil {
		t.Fatalf("newArena: %v", err)
	}
	defer a.Close()
	slot, ok := a.Alloc()
	if !ok {
		t.Fatal("Alloc failed on empty arena")
	}
	payload := []byte("the cold payload")
	if err := a.WriteSlot(slot, 0xDEAD, payload); err != nil {
		t.Fatalf("WriteSlot: %v", err)
	}
	got, err := a.ReadSlot(nil, slot, 0xDEAD)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("ReadSlot = %q, %v", got, err)
	}
	// Wrong key hash must be rejected: a stale index entry pointing at a
	// recycled slot cannot return the wrong object.
	if _, err := a.ReadSlot(nil, slot, 0xBEEF); err == nil {
		t.Fatal("ReadSlot accepted a key-hash mismatch")
	}
	// A never-written slot fails the magic check.
	s2, _ := a.Alloc()
	if _, err := a.ReadSlot(nil, s2, 0); err == nil {
		t.Fatal("ReadSlot accepted an unwritten slot")
	}
}

func TestArenaAllocExhaustion(t *testing.T) {
	a, err := newArena("", 3, 16)
	if err != nil {
		t.Fatalf("newArena: %v", err)
	}
	defer a.Close()
	seen := map[int]bool{}
	for i := 0; i < 3; i++ {
		s, ok := a.Alloc()
		if !ok || seen[s] {
			t.Fatalf("Alloc %d = (%d, %v), seen=%v", i, s, ok, seen)
		}
		seen[s] = true
	}
	if _, ok := a.Alloc(); ok {
		t.Fatal("Alloc succeeded on a full arena")
	}
	a.Free(1)
	if a.Used() != 2 {
		t.Fatalf("Used = %d after free", a.Used())
	}
	if s, ok := a.Alloc(); !ok || s != 1 {
		t.Fatalf("re-Alloc = (%d, %v), want (1, true)", s, ok)
	}
}

// TestSpillAdmission pins insert-on-second-hit: an entry evicted without
// ever being read stays out of the cold tier; a touched entry spills.
func TestSpillAdmission(t *testing.T) {
	ts := newSyncTiered(t, 2, 8, ColdConfig{})
	ts.Put(1, []byte("touched"))
	ts.Get(1) // second hit: admits on eviction
	ts.Put(2, []byte("one-hit wonder"))
	// Fill past capacity so both 1 and 2 are pushed out.
	ts.Put(3, []byte("x"))
	ts.Put(4, []byte("y"))
	st := ts.Stats()
	if st.Spilled != 1 || st.AdmitFiltered != 1 {
		t.Fatalf("Spilled=%d AdmitFiltered=%d, want 1 and 1", st.Spilled, st.AdmitFiltered)
	}
	if !ts.ColdContains(1) {
		t.Fatal("touched entry missing from cold tier")
	}
	if ts.ColdContains(2) {
		t.Fatal("one-hit entry admitted to cold tier")
	}
}

// TestColdReadReinjects pins the full cold-hit cycle in synchronous mode:
// request → pread → callback with the original bytes and clock readings.
func TestColdReadReinjects(t *testing.T) {
	clock := int64(0)
	ts := newSyncTiered(t, 1, 8, ColdConfig{
		Now: func() int64 { clock += 50; return clock },
	})
	var gotKey uint32
	var gotData []byte
	var gotStart, gotEnd int64
	ts.SetReinject(func(k uint32, data []byte, start, end int64) {
		gotKey, gotData, gotStart, gotEnd = k, data, start, end
	})
	ts.Put(7, []byte("cold content"))
	ts.Get(7)
	ts.Put(8, []byte("evictor")) // pushes 7 to the cold tier
	if _, ok := ts.Get(7); ok {
		t.Fatal("7 still hot after eviction")
	}
	if !ts.ColdContains(7) {
		t.Fatal("7 not in cold tier")
	}
	if !ts.RequestCold(7) {
		t.Fatal("RequestCold refused")
	}
	if gotKey != 7 || !bytes.Equal(gotData, []byte("cold content")) {
		t.Fatalf("reinject got key=%d data=%q", gotKey, gotData)
	}
	if gotEnd <= gotStart {
		t.Fatalf("reinject timestamps start=%d end=%d", gotStart, gotEnd)
	}
	st := ts.Stats()
	if st.Reinjected != 1 || st.ColdReadCount != 1 {
		t.Fatalf("Reinjected=%d ColdReadCount=%d", st.Reinjected, st.ColdReadCount)
	}
	var histTotal uint64
	for _, c := range st.ColdReadHist {
		histTotal += c
	}
	if histTotal != 1 {
		t.Fatalf("histogram holds %d samples, want 1", histTotal)
	}
}

// TestColdPromotion: with no reinject callback, a completed cold read
// promotes the payload straight back into the hot tier.
func TestColdPromotion(t *testing.T) {
	ts := newSyncTiered(t, 1, 8, ColdConfig{})
	ts.Put(1, []byte("content"))
	ts.Get(1)
	ts.Put(2, []byte("evictor"))
	if !ts.RequestCold(1) {
		t.Fatal("RequestCold refused")
	}
	got, ok := ts.Get(1)
	if !ok || !bytes.Equal(got, []byte("content")) {
		t.Fatalf("promotion failed: %q, %v", got, ok)
	}
	// The cold copy is byte-identical, so promotion (which evicted key 2
	// and may re-spill) must not have freed or rewritten key 1's slot.
	if !ts.ColdContains(1) {
		t.Fatal("cold copy dropped by promotion")
	}
}

// TestPutInvalidatesStaleCold: re-inserting a key with different bytes
// frees the outdated cold slot; re-inserting identical bytes keeps it.
func TestPutInvalidatesStaleCold(t *testing.T) {
	ts := newSyncTiered(t, 1, 8, ColdConfig{})
	ts.Put(1, []byte("version A"))
	ts.Get(1)
	ts.Put(2, []byte("evictor")) // spills version A
	if !ts.ColdContains(1) {
		t.Fatal("setup: 1 not cold")
	}
	used := ts.Stats().ColdSlotsUsed
	ts.Put(1, []byte("version A")) // identical: slot kept
	if ts.Stats().ColdSlotsUsed != used {
		t.Fatal("identical re-insert churned the arena")
	}
	ts.Put(1, []byte("version B")) // changed: stale slot freed
	ts.cold.misses.Store(0)
	if ts.ColdContains(1) {
		t.Fatal("stale cold copy survived a content change")
	}
	if ts.Stats().ColdSlotsUsed >= used {
		t.Fatalf("stale slot not freed: used=%d", ts.Stats().ColdSlotsUsed)
	}
}

func TestRemoveBothTiers(t *testing.T) {
	ts := newSyncTiered(t, 1, 8, ColdConfig{})
	ts.Put(1, []byte("a"))
	ts.Get(1)
	ts.Put(2, []byte("b")) // 1 spills cold, 2 is hot
	if !ts.Remove(1) {
		t.Fatal("Remove(1) found nothing")
	}
	if !ts.Remove(2) {
		t.Fatal("Remove(2) found nothing")
	}
	if ts.ColdLen() != 0 || ts.Len() != 0 || ts.Stats().ColdSlotsUsed != 0 {
		t.Fatalf("state after removes: hot=%d cold=%d slots=%d", ts.Len(), ts.ColdLen(), ts.Stats().ColdSlotsUsed)
	}
}

// TestPendingDedupe: a second RequestCold while a read is gated in flight
// must not start a second read — the in-flight one satisfies both.
func TestPendingDedupe(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	ts := New[uint32](1)
	err := ts.OpenCold(ColdConfig{
		Slots:   8,
		Readers: 1,
		ReadGate: func() {
			started <- struct{}{}
			<-release
		},
	})
	if err != nil {
		t.Fatalf("OpenCold: %v", err)
	}
	defer ts.Close()
	done := make(chan uint32, 8)
	ts.SetReinject(func(k uint32, _ []byte, _, _ int64) { done <- k })
	ts.Put(1, []byte("cold"))
	ts.Get(1)
	ts.Put(2, []byte("evictor"))
	// The spill rides the async queue; wait for the worker to index it.
	for i := 0; ts.Stats().Spilled == 0; i++ {
		if i > 2000 {
			t.Fatal("spill never completed")
		}
		time.Sleep(time.Millisecond)
	}
	if !ts.RequestCold(1) {
		t.Fatal("first RequestCold refused")
	}
	<-started // reader is parked inside the gate
	for i := 0; i < 3; i++ {
		if !ts.RequestCold(1) {
			t.Fatal("duplicate RequestCold refused — should dedupe to true")
		}
	}
	if got := ts.Stats().PendingReads; got != 1 {
		t.Fatalf("PendingReads = %d while deduped, want 1", got)
	}
	close(release)
	if k := <-done; k != 1 {
		t.Fatalf("reinject delivered %d", k)
	}
	select {
	case k := <-done:
		t.Fatalf("duplicate read completed for %d", k)
	default:
	}
	if got := ts.Stats().Reinjected; got != 1 {
		t.Fatalf("Reinjected = %d, want 1", got)
	}
}

// TestCorruptSlotDropped: a slot whose bytes rot fails verification; the
// read errors out and the poisoned entry is evicted from the cold index.
func TestCorruptSlotDropped(t *testing.T) {
	ts := newSyncTiered(t, 1, 8, ColdConfig{})
	ts.Put(1, []byte("will rot"))
	ts.Get(1)
	ts.Put(2, []byte("evictor"))
	ts.cold.mu.Lock()
	slot := ts.cold.index[1].slot
	ts.cold.mu.Unlock()
	// Flip payload bytes behind the checksum's back.
	if _, err := ts.cold.arena.f.WriteAt([]byte{0xFF, 0xFF}, int64(slot)*ts.cold.arena.stride+SlotHeaderSize); err != nil {
		t.Fatalf("corrupt write: %v", err)
	}
	called := false
	ts.SetReinject(func(uint32, []byte, int64, int64) { called = true })
	if !ts.RequestCold(1) {
		t.Fatal("RequestCold refused")
	}
	if called {
		t.Fatal("corrupted payload was delivered")
	}
	st := ts.Stats()
	if st.ReadErrors != 1 {
		t.Fatalf("ReadErrors = %d", st.ReadErrors)
	}
	ts.cold.misses.Store(0)
	if ts.ColdContains(1) {
		t.Fatal("poisoned slot still indexed")
	}
	if st2 := ts.Stats(); st2.PendingReads != 0 {
		t.Fatalf("pending not cleared: %d", st2.PendingReads)
	}
}

// TestTieredStressRace drives concurrent Put/Get/ColdContains/
// RequestCold/Remove across both tiers; run under -race this is the
// lock-discipline check for the whole hierarchy.
func TestTieredStressRace(t *testing.T) {
	ts := New[uint32](64, WithShards[uint32](4))
	hot := ts
	if err := ts.OpenCold(ColdConfig{Slots: 256, Readers: 2, SlotSize: 64}); err != nil {
		t.Fatalf("OpenCold: %v", err)
	}
	ts.SetReinject(func(k uint32, data []byte, _, _ int64) { ts.Put(k, data) })
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			payload := []byte(fmt.Sprintf("payload-%d", w))
			for i := 0; i < 2000; i++ {
				k := uint32((w*311 + i) % 400)
				switch i % 5 {
				case 0, 1:
					ts.Put(k, payload)
				case 2:
					if _, ok := ts.Get(k); !ok && ts.ColdContains(k) {
						ts.RequestCold(k)
					}
				case 3:
					ts.Get(k)
				case 4:
					if i%97 == 0 {
						ts.Remove(k)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := ts.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if hot.Len() > 64 {
		t.Fatalf("hot tier over capacity: %d", hot.Len())
	}
}

// TestHotHitZeroAllocs pins the acceptance criterion that a hot-tier hit
// allocates nothing — the forwarding fast path must not pressure the GC.
func TestHotHitZeroAllocs(t *testing.T) {
	ts := newSyncTiered(t, 64, 8, ColdConfig{})
	for i := uint32(0); i < 64; i++ {
		ts.Put(i, []byte("hot payload"))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := ts.Get(17); !ok {
			t.Fatal("hot miss")
		}
	})
	if allocs != 0 {
		t.Fatalf("hot-tier hit allocates %v times, want 0", allocs)
	}
}

// BenchmarkTieredHotHit and BenchmarkTieredColdCycle give the two tiers'
// raw costs side by side. The hot hit is E20's within-run pair: a
// 4096-entry hot tier (4 shards) over a catalog of half its size and of
// 16× its size, preloaded with a touch per object so eviction admits the
// overflow cold, then one resident name read through Get. The never-
// block contract is that the second row does not move.
func BenchmarkTieredHotHit(b *testing.B) {
	const hotCap = 4096
	payload := make([]byte, 256)
	for _, catalog := range []int{hotCap / 2, 16 * hotCap} {
		ts := New[uint32](hotCap, WithShards[uint32](4))
		if err := ts.OpenCold(ColdConfig{Slots: catalog + hotCap, SlotSize: 512}); err != nil {
			b.Fatalf("OpenCold: %v", err)
		}
		for i := uint32(0); i < uint32(catalog); i++ {
			ts.Put(0xE2000000+i, payload)
			ts.Get(0xE2000000 + i)
		}
		const name = 0xE2000000
		ts.Put(name, payload)
		b.Run(fmt.Sprintf("catalog%d", catalog), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := ts.Get(name); !ok {
					b.Fatal("hot miss")
				}
			}
		})
		ts.Close()
	}
}

func BenchmarkTieredColdCycle(b *testing.B) {
	ts := New[uint32](1)
	if err := ts.OpenCold(ColdConfig{Slots: 4096, SlotSize: 256}); err != nil {
		b.Fatalf("OpenCold: %v", err)
	}
	defer ts.Close()
	payload := make([]byte, 256)
	for i := uint32(0); i < 2048; i++ {
		ts.Put(i, payload)
		ts.Get(i) // touch so eviction admits it cold
	}
	sink := 0
	ts.SetReinject(func(_ uint32, data []byte, _, _ int64) { sink += len(data) })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint32(i) & 2047
		if ts.ColdContains(k) {
			ts.RequestCold(k)
		}
	}
	_ = sink
}
