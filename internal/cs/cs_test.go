package cs

import (
	"bytes"
	"container/list"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"dip/internal/nhash"
)

func TestPutGet(t *testing.T) {
	s := New[string](4)
	s.Put("a", []byte("alpha"))
	got, ok := s.Get("a")
	if !ok || !bytes.Equal(got, []byte("alpha")) {
		t.Errorf("Get = %q %v", got, ok)
	}
	if _, ok := s.Get("b"); ok {
		t.Error("hit on absent key")
	}
	if s.Len() != 1 || s.Bytes() != 5 {
		t.Errorf("Len=%d Bytes=%d", s.Len(), s.Bytes())
	}
}

func TestPutCopies(t *testing.T) {
	s := New[string](4)
	buf := []byte("data")
	s.Put("k", buf)
	buf[0] = 'X'
	got, _ := s.Get("k")
	if !bytes.Equal(got, []byte("data")) {
		t.Error("store aliased caller buffer")
	}
}

func TestLRUEviction(t *testing.T) {
	s := New[int](2)
	s.Put(1, []byte("one"))
	s.Put(2, []byte("two"))
	s.Get(1) // make 1 most recent
	s.Put(3, []byte("three"))
	if _, ok := s.Get(2); ok {
		t.Error("LRU entry 2 not evicted")
	}
	if _, ok := s.Get(1); !ok {
		t.Error("recently used entry 1 evicted")
	}
	if _, ok := s.Get(3); !ok {
		t.Error("new entry 3 missing")
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestUpdateRefreshes(t *testing.T) {
	s := New[int](2)
	s.Put(1, []byte("one"))
	s.Put(2, []byte("two"))
	s.Put(1, []byte("ONE!")) // refresh + resize
	s.Put(3, []byte("three"))
	if _, ok := s.Get(2); ok {
		t.Error("entry 2 should have been evicted")
	}
	got, ok := s.Get(1)
	if !ok || !bytes.Equal(got, []byte("ONE!")) {
		t.Errorf("Get(1) = %q %v", got, ok)
	}
	if s.Bytes() != 4+5 {
		t.Errorf("Bytes = %d", s.Bytes())
	}
}

func TestRemove(t *testing.T) {
	s := New[int](4)
	s.Put(1, []byte("one"))
	if !s.Remove(1) {
		t.Error("Remove failed")
	}
	if s.Remove(1) {
		t.Error("double Remove")
	}
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Errorf("Len=%d Bytes=%d", s.Len(), s.Bytes())
	}
}

func TestDisabledCache(t *testing.T) {
	s := New[int](0)
	s.Put(1, []byte("x"))
	if _, ok := s.Get(1); ok {
		t.Error("disabled cache stored data")
	}
}

func TestConcurrent(t *testing.T) {
	s := New[int](128)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Put(i%200, []byte{byte(w)})
				s.Get(i % 200)
				if i%50 == 0 {
					s.Remove(i % 200)
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() > 128 {
		t.Errorf("capacity exceeded: %d", s.Len())
	}
}

// TestShardedCapacityExact pins the remainder-distribution contract: the
// per-shard bounds sum to exactly the requested capacity, whatever the
// shard count — never the truncated capacity/n*n, never more.
func TestShardedCapacityExact(t *testing.T) {
	cases := []struct {
		capacity, shards int
		wantShards       int
	}{
		{10, 4, 4},  // the motivating bug: 10/4*4 = 8 entries held, 2 lost
		{7, 4, 4},   // remainder 3 spread over the leading shards
		{8, 4, 4},   // exact division: every shard equal
		{1, 4, 1},   // shard count clamps so no shard holds zero
		{3, 8, 2},   // clamp to capacity/n >= 1
		{129, 8, 8}, // big remainder-1 case
		{64, 1, 1},  // single shard unchanged
		{0, 4, 4},   // disabled cache keeps requested shards, zero cap
	}
	for _, tc := range cases {
		s := New[int](tc.capacity, WithShards[int](tc.shards))
		if got := len(s.shards); got != tc.wantShards {
			t.Errorf("New(%d, WithShards(%d)): shards = %d, want %d", tc.capacity, tc.shards, got, tc.wantShards)
		}
		total := 0
		for i := range s.shards {
			total += s.shards[i].cap
		}
		want := tc.capacity
		if want < 0 {
			want = 0
		}
		if total != want {
			t.Errorf("New(%d, WithShards(%d)): shard caps sum to %d, want %d", tc.capacity, tc.shards, total, want)
		}
		// Overfill and confirm the live bound matches the contract too.
		if tc.capacity > 0 {
			for i := 0; i < tc.capacity*3; i++ {
				s.Put(i, []byte("x"))
			}
			if s.Len() > tc.capacity {
				t.Errorf("New(%d, WithShards(%d)): holds %d entries, exceeds requested capacity", tc.capacity, tc.shards, s.Len())
			}
		}
	}
}

func BenchmarkPutGet(b *testing.B) {
	s := New[uint32](4096)
	payload := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := uint32(i) % 8192
		s.Put(k, payload)
		s.Get(k)
	}
}

// BenchmarkGetHitSingleShard measures the default-store hit path, which
// skips the key hash entirely (mask==0 routes every key to shard 0).
// Compare against BenchmarkGetHitSharded to see the hash cost the fast
// path removes.
func BenchmarkGetHitSingleShard(b *testing.B) {
	s := New[uint32](1024)
	for i := uint32(0); i < 1024; i++ {
		s.Put(i, []byte("payload"))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(uint32(i) & 1023)
	}
}

// BenchmarkGetHitSharded is the same hit pattern through a sharded store,
// where every lookup must hash the key to pick its shard.
func BenchmarkGetHitSharded(b *testing.B) {
	s := New[uint32](1024, WithShards[uint32](8))
	for i := uint32(0); i < 1024; i++ {
		s.Put(i, []byte("payload"))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(uint32(i) & 1023)
	}
}

// model is the container/list store the slab replaced, kept as the oracle:
// one list element, one item and one map entry per cached object, the same
// shard split and the same hook contract.
type model[K comparable] struct {
	shards  []modelShard[K]
	mask    uint64
	onEvict func(k K, data []byte, touched bool)
}

type modelShard[K comparable] struct {
	cap, bytes int
	ll         *list.List
	index      map[K]*list.Element
}

type modelItem[K comparable] struct {
	key  K
	data []byte
	hits uint32
}

func newModel[K comparable](capacity, shards int) *model[K] {
	n := nhash.Pow2(shards)
	for capacity > 0 && n > 1 && capacity/n < 1 {
		n /= 2
	}
	m := &model[K]{shards: make([]modelShard[K], n), mask: uint64(n - 1)}
	for i := range m.shards {
		c := 0
		if capacity > 0 {
			if c = capacity / n; i < capacity%n {
				c++
			}
		}
		m.shards[i] = modelShard[K]{cap: c, ll: list.New(), index: make(map[K]*list.Element)}
	}
	return m
}

func (m *model[K]) shardOf(k K) *modelShard[K] {
	if m.mask == 0 {
		return &m.shards[0]
	}
	return &m.shards[nhash.Of(k)&m.mask]
}

func (m *model[K]) Put(k K, data []byte) {
	sh := m.shardOf(k)
	if sh.cap <= 0 {
		return
	}
	if el, ok := sh.index[k]; ok {
		it := el.Value.(*modelItem[K])
		sh.bytes += len(data) - len(it.data)
		it.data = append(it.data[:0], data...)
		it.hits++
		sh.ll.MoveToFront(el)
		return
	}
	cp := append([]byte(nil), data...)
	sh.index[k] = sh.ll.PushFront(&modelItem[K]{key: k, data: cp})
	sh.bytes += len(cp)
	for sh.ll.Len() > sh.cap {
		it := sh.ll.Back().Value.(*modelItem[K])
		sh.remove(sh.ll.Back())
		if m.onEvict != nil {
			m.onEvict(it.key, it.data, it.hits > 0)
		}
	}
}

func (m *model[K]) Get(k K) ([]byte, bool) {
	sh := m.shardOf(k)
	el, ok := sh.index[k]
	if !ok {
		return nil, false
	}
	sh.ll.MoveToFront(el)
	it := el.Value.(*modelItem[K])
	it.hits++
	return it.data, true
}

func (m *model[K]) Remove(k K) bool {
	sh := m.shardOf(k)
	el, ok := sh.index[k]
	if ok {
		sh.remove(el)
	}
	return ok
}

func (sh *modelShard[K]) remove(el *list.Element) {
	it := el.Value.(*modelItem[K])
	sh.ll.Remove(el)
	delete(sh.index, it.key)
	sh.bytes -= len(it.data)
}

func (m *model[K]) LenBytes() (n, b int) {
	for i := range m.shards {
		n += m.shards[i].ll.Len()
		b += m.shards[i].bytes
	}
	return n, b
}

// TestMatchesListModel drives the slab store and the list model with the
// same seeded Put/Get/Remove sequence and requires the same observable
// behaviour at every step: hits and returned bytes, Len and Bytes, and —
// through the hook — which entry each eviction pushes out, in what order,
// with what payload and touched flag. The cold input is a store with a cold
// tier attached (never cold-hit: no RequestCold) whose evictions are observed
// on their way to the spill; the model then also tracks which cold copies
// exist, since Remove reports either tier.
func TestMatchesListModel(t *testing.T) {
	type eviction struct {
		k       uint32
		data    string
		touched bool
	}
	for _, shards := range []int{1, 8} {
		for _, capacity := range []int{0, 1, 7, 8192} {
			for _, input := range []string{"hookfalse", "hooktrue", "cold"} {
				t.Run(fmt.Sprintf("shards%d/cap%d/%s", shards, capacity, input), func(t *testing.T) {
					keys, steps := uint32(3*capacity+5), 20*capacity+5000
					s, m := New[uint32](capacity, WithShards[uint32](shards)), newModel[uint32](capacity, shards)
					var got, want []eviction
					var coldCopy map[uint32]string // the model's cold tier (cold input only)
					if input != "hookfalse" {
						spill := func(uint32, []byte, bool) {}
						if input == "cold" {
							if err := s.OpenCold(ColdConfig{Slots: int(keys), SlotSize: 64}); err != nil {
								t.Fatal(err)
							}
							t.Cleanup(func() { s.Close() })
							spill, coldCopy = s.onEvict, map[uint32]string{}
						}
						s.onEvict = func(k uint32, d []byte, touched bool) {
							got = append(got, eviction{k, string(d), touched})
							spill(k, d, touched)
						}
						m.onEvict = func(k uint32, d []byte, touched bool) {
							want = append(want, eviction{k, string(d), touched})
							if touched && coldCopy != nil {
								coldCopy[k] = string(d)
							}
						}
					}
					rng := rand.New(rand.NewSource(int64(shards*100003 + capacity*7 + 1)))
					payload := make([]byte, 40)
					for i := 0; i < steps; i++ {
						k := rng.Uint32() % keys
						switch op := rng.Intn(10); {
						case op < 5:
							gd, gok := s.Get(k)
							wd, wok := m.Get(k)
							if gok != wok || !bytes.Equal(gd, wd) {
								t.Fatalf("step %d Get(%d) = %q %v, model %q %v", i, k, gd, gok, wd, wok)
							}
						case op < 9:
							rng.Read(payload)
							d := payload[:rng.Intn(len(payload)+1)]
							if c, ok := coldCopy[k]; ok && c != string(d) {
								delete(coldCopy, k)
							}
							s.Put(k, d)
							m.Put(k, d)
						default:
							w := m.Remove(k)
							if _, ok := coldCopy[k]; ok {
								delete(coldCopy, k)
								w = true
							}
							if g := s.Remove(k); g != w {
								t.Fatalf("step %d Remove(%d) = %v, model %v", i, k, g, w)
							}
						}
						if n, b := m.LenBytes(); s.Len() != n || s.Bytes() != b {
							t.Fatalf("step %d: Len/Bytes = %d/%d, model %d/%d", i, s.Len(), s.Bytes(), n, b)
						}
						if len(got) != len(want) || (len(got) > 0 && got[len(got)-1] != want[len(want)-1]) {
							t.Fatalf("step %d: evictions diverge: %d vs model %d, last %+v vs %+v", i, len(got), len(want), got[len(got)-1:], want[len(want)-1:])
						}
						if s.ColdLen() != len(coldCopy) {
							t.Fatalf("step %d: ColdLen = %d, model %d", i, s.ColdLen(), len(coldCopy))
						}
					}
					if capacity > 1 && input != "hookfalse" && len(want) < capacity/2 {
						t.Fatalf("only %d evictions at capacity %d: the sequence does not exercise eviction", len(want), capacity)
					}
					if capacity > 1 && input == "cold" && s.Stats().Spilled == 0 {
						t.Fatal("no eviction reached the cold tier")
					}
				})
			}
		}
	}
}

// TestAllocs pins the slab's allocation contract: a hit allocates nothing; a
// Put of a new key into a full store allocates nothing when the entry it
// pushes out was never hit (its buffer takes the new payload) and exactly the
// payload copy when it was (the list store paid an element and an item on top).
func TestAllocs(t *testing.T) {
	const capacity = 1024
	s := New[uint32](capacity)
	payload := make([]byte, 64)
	for i := uint32(0); i < capacity; i++ {
		s.Put(i, payload)
	}
	k := uint32(capacity)
	if n := testing.AllocsPerRun(2*capacity, func() { s.Put(k, payload); k++ }); n != 0 {
		t.Errorf("Put over an untouched entry allocates %.1f, want 0", n)
	}
	j := k // one warm-up run + capacity-1 counted: every entry is hit once
	if n := testing.AllocsPerRun(capacity-1, func() { j--; s.Get(j) }); n != 0 {
		t.Errorf("Get hit allocates %.1f, want 0", n)
	}
	if n := testing.AllocsPerRun(capacity/2, func() { s.Put(k, payload); k++ }); n != 1 {
		t.Errorf("Put over a touched entry allocates %.1f, want 1 (the payload copy)", n)
	}
	if s.Len() != capacity {
		t.Errorf("Len = %d after churn, want %d", s.Len(), capacity)
	}
}

// TestGetSliceOutlivesEntry: a payload buffer anyone outside the store has
// seen belongs to one key for good. What Get returned stays intact after the
// entry is evicted and its slot is taken by other keys (only a Put of the same
// key rewrites it), and so does what the eviction hook was handed; only the
// buffer of an entry nobody ever asked for moves on to the next key.
func TestGetSliceOutlivesEntry(t *testing.T) {
	s := New[int](2)
	s.Put(1, []byte("one"))
	held, _ := s.Get(1)
	for k := 2; k < 10; k++ {
		s.Put(k, []byte("XXXXXXXX"))
	}
	if _, ok := s.Get(1); ok {
		t.Fatal("entry 1 survived eight newer keys in a two-entry store")
	}
	if string(held) != "one" {
		t.Errorf("slice from Get was rewritten to %q after its entry was evicted", held)
	}

	h := New[int](1)
	var handed [][]byte
	h.onEvict = func(_ int, d []byte, _ bool) { handed = append(handed, d) }
	for k := 0; k < 10; k++ {
		h.Put(k, []byte{byte(k), byte(k)})
	}
	for k, d := range handed {
		if !bytes.Equal(d, []byte{byte(k), byte(k)}) {
			t.Errorf("payload handed to onEvict for key %d now reads %v", k, d)
		}
	}
	if len(handed) != 9 {
		t.Errorf("onEvict saw %d evictions, want 9", len(handed))
	}
}

// zipfKeys draws n keys from a Zipf(1.1) popularity over 65 536 names, the
// content-store working set of the benchmark's NDN traffic.
func zipfKeys(n int) []uint32 {
	z := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, 1<<16-1)
	keys := make([]uint32, n)
	for i := range keys {
		keys[i] = uint32(z.Uint64())
	}
	return keys
}

// BenchmarkStore is the store at the benchmark's shape — 8192 entries under
// 65 536 Zipf(1.1) names: GetHit looks up names known to be cached, PutEvict
// inserts names known to be absent into a full store (one eviction each).
func BenchmarkStore(b *testing.B) {
	const capacity = 8192
	payload := make([]byte, 256)
	keys := zipfKeys(1 << 16)
	b.Run("GetHit", func(b *testing.B) {
		s := New[uint32](capacity)
		for _, k := range keys {
			s.Put(k, payload)
		}
		var hot []uint32
		for _, k := range keys {
			if _, ok := s.Get(k); ok {
				hot = append(hot, k)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Get(hot[i%len(hot)])
		}
	})
	b.Run("PutEvict", func(b *testing.B) {
		s := New[uint32](capacity)
		for _, k := range keys {
			s.Put(k, payload)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Put(uint32(1<<16+i), payload)
		}
	})
}

// ColdLen returns the cold-index entry count (0 without a cold tier).
func (s *Store[K]) ColdLen() int {
	if s.cold == nil {
		return 0
	}
	s.cold.mu.Lock()
	defer s.cold.mu.Unlock()
	return len(s.cold.index)
}
