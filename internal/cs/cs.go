// Package cs implements an LRU content store, the caching extension the
// paper sketches in footnote 2: "for the forwarding devices that support
// caching, the FIB matching module can be slightly modified to first match
// the local content store and then match the FIB".
//
// There is one store type. Its RAM tier can be split into power-of-two
// shards keyed by name hash (WithShards), each with its own lock, LRU order
// and capacity slice, so concurrent forwarding workers only contend when
// their names hash together; eviction is then LRU per shard and roughly LRU
// globally. The default is one shard (exact LRU). OpenCold (cold.go) puts a
// file-backed cold tier under the RAM tier, the way NDN-DPDK keeps memory
// and disk entries in one CS table.
package cs

import (
	"sync"

	"dip/internal/nhash"
)

// Store is a bounded LRU cache from content keys to payloads, with an
// optional cold tier. It is safe for concurrent use.
type Store[K comparable] struct {
	shards []csShard[K]
	mask   uint64
	// cold is the disk tier; nil (a RAM-only store) until OpenCold.
	cold *coldTier[K]
	// onEvict, when set (by OpenCold, to the cold tier's spill), receives
	// entries pushed out by the capacity bound. Ownership of data transfers
	// to the handler — the store holds no reference after the call — and
	// touched reports whether the entry was ever hit after insertion (the
	// insert-on-second-hit admission signal). Called with the shard lock
	// held; handlers must not call back into the RAM tier.
	onEvict func(k K, data []byte, touched bool)
}

// csShard is one lock domain. Entries live in one slab, linked by index (the
// NDN-DPDK table shape): slots[0] roots a circular recency ring (next: most,
// prev: least recently used), free a chain of vacated slots (0: none).
type csShard[K comparable] struct {
	mu    sync.Mutex
	cap   int
	bytes int
	slots []slot[K]
	free  int32
	index map[K]int32
}

type slot[K comparable] struct {
	key        K
	prev, next int32
	// touched: hit after insertion (a Get or a Put refresh). Untouched, the
	// entry was cached once and never asked for again, and nobody outside
	// the store has seen data.
	touched bool
	data    []byte
}

// Option configures a Store.
type Option[K comparable] func(*Store[K])

// WithShards splits the RAM tier over n lock domains (rounded down to a power
// of two; also capped so every shard keeps at least one entry; default 1).
// The capacity divides across shards with the remainder spread one entry at
// a time over the leading shards, so the per-shard bounds sum to exactly the
// requested capacity — never more, never less. Eviction is LRU per shard.
func WithShards[K comparable](n int) Option[K] {
	return func(s *Store[K]) { s.shards = make([]csShard[K], nhash.Pow2(n)) }
}

// New returns a RAM-only store holding at most capacity entries, in one shard
// (exact global LRU) unless WithShards says otherwise. capacity ≤ 0 is
// treated as a disabled cache that stores nothing.
func New[K comparable](capacity int, opts ...Option[K]) *Store[K] {
	s := &Store[K]{}
	for _, o := range opts {
		o(s)
	}
	n, base, rem := max(len(s.shards), 1), 0, 0
	if capacity > 0 {
		for n > 1 && capacity/n < 1 {
			n /= 2
		}
		base, rem = capacity/n, capacity%n
	}
	s.shards, s.mask = make([]csShard[K], n), uint64(n-1)
	for i := range s.shards {
		c := base
		if i < rem {
			c++
		}
		s.shards[i] = csShard[K]{cap: c, slots: make([]slot[K], 1), index: make(map[K]int32)}
	}
	return s
}

func (s *Store[K]) shardOf(k K) *csShard[K] {
	// The default store has one shard (mask 0): every key lands on shard 0,
	// so hashing the key would be pure overhead on the hot hit path.
	if s.mask == 0 {
		return &s.shards[0]
	}
	return &s.shards[nhash.Of(k)&s.mask]
}

// unlink takes slot i out of the recency ring; pushFront puts it at its head.
func (sh *csShard[K]) unlink(i int32) {
	e := &sh.slots[i]
	sh.slots[e.prev].next, sh.slots[e.next].prev = e.next, e.prev
}

func (sh *csShard[K]) pushFront(i int32) {
	first := sh.slots[0].next
	sh.slots[i].prev, sh.slots[i].next = 0, first
	sh.slots[first].prev, sh.slots[0].next = i, i
}

// touch marks slot i hit and makes it the most recently used.
func (sh *csShard[K]) touch(i int32) *slot[K] {
	if sh.slots[0].next != i {
		sh.unlink(i)
		sh.pushFront(i)
	}
	sh.slots[i].touched = true
	return &sh.slots[i]
}

// Put caches data under k, copying it so the caller's buffer stays free for
// reuse. Existing entries are refreshed and moved to the front; a new key in
// a full shard pushes the least recently used entry out: to onEvict if set,
// else an untouched victim's buffer (no Get returned it) takes the new payload.
// A cold copy of k whose bytes differ from data is dropped.
func (s *Store[K]) Put(k K, data []byte) {
	if s.cold != nil {
		s.cold.invalidate(k, data)
	}
	sh := s.shardOf(k)
	if sh.cap <= 0 {
		return
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if i, ok := sh.index[k]; ok {
		e := sh.touch(i)
		sh.bytes += len(data) - len(e.data)
		e.data = append(e.data[:0], data...)
		return
	}
	var buf []byte
	if len(sh.index) >= sh.cap {
		i := sh.slots[0].prev
		old := sh.slots[i]
		sh.remove(i) // accounts old.data before ownership moves to the hook
		if s.onEvict != nil {
			s.onEvict(old.key, old.data, old.touched)
		} else if !old.touched {
			buf = old.data[:0]
		}
	}
	i := sh.free
	if i != 0 {
		sh.free = sh.slots[i].next
	} else {
		i = int32(len(sh.slots))
		sh.slots = append(sh.slots, slot[K]{})
	}
	sh.slots[i] = slot[K]{key: k, data: append(buf, data...)}
	sh.pushFront(i)
	sh.index[k] = i
	sh.bytes += len(data)
}

// Get returns the payload the RAM tier holds for k and refreshes its recency;
// it never touches the disk (see ColdContains). The slice is the entry's own
// buffer: copy before modifying; only a Put of k rewrites it.
func (s *Store[K]) Get(k K) ([]byte, bool) {
	sh := s.shardOf(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	i, ok := sh.index[k]
	if !ok {
		return nil, false
	}
	if s.cold != nil {
		s.cold.hotHits.Add(1)
	}
	return sh.touch(i).data, true
}

// Remove drops k from both tiers, reporting whether either held it: the
// operator's purge of a poisoned object before the F_pass defence is
// swapped in (§2.4, security_test.go). No program calls it.
func (s *Store[K]) Remove(k K) bool {
	sh := s.shardOf(k)
	sh.mu.Lock()
	i, ok := sh.index[k]
	if ok {
		sh.remove(i)
	}
	sh.mu.Unlock()
	if s.cold != nil && s.cold.remove(k) {
		return true
	}
	return ok
}

// Len returns the number of entries in the RAM tier.
func (s *Store[K]) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.index)
		sh.mu.Unlock()
	}
	return n
}

// Bytes returns the payload bytes the RAM tier holds.
func (s *Store[K]) Bytes() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.bytes
		sh.mu.Unlock()
	}
	return n
}

// remove vacates slot i (ring, index, payload reference) onto the free chain.
func (sh *csShard[K]) remove(i int32) {
	e := &sh.slots[i]
	sh.unlink(i)
	delete(sh.index, e.key)
	sh.bytes -= len(e.data)
	*e = slot[K]{next: sh.free}
	sh.free = i
}
