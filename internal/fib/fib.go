// Package fib implements the forwarding information base for DIP routers:
// an address table (longest-prefix match over 32- or 128-bit keys, backing
// F_32_match, F_128_match and F_FIB on 32-bit content-name IDs).
//
// Tables follow the RCU snapshot discipline: the live trie hangs off an
// atomic.Pointer and is immutable once published. Lookups load the pointer
// and walk the snapshot — no locks, no fences beyond the load-acquire, no
// allocation, and no contended cache line shared between readers. Mutations
// serialize on a writer mutex, clone only the nodes along the affected path
// (copy-on-write in internal/lpm), and publish the new root atomically;
// readers that loaded the old snapshot finish on a consistent view. Batched
// route churn goes through Txn/Commit, which publishes once for any number
// of updates. See DESIGN.md §8 for the full concurrency model.
package fib

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dip/internal/lpm"
)

// NextHop describes where a matched packet leaves the router.
type NextHop struct {
	// Port is the egress port index. PortLocal (negative) means the
	// destination is this node and the packet should be delivered locally.
	Port int
}

// PortLocal marks local delivery in a NextHop.
const PortLocal = -2

// Local is the next hop meaning "deliver to this node".
var Local = NextHop{Port: PortLocal}

// Table is an LPM forwarding table over bit-string keys. Lookups are
// lock-free (they read the current immutable snapshot); mutators serialize
// on an internal mutex and publish copy-on-write snapshots.
type Table struct {
	mu    sync.Mutex // serializes mutators; lookups never take it
	trie  atomic.Pointer[lpm.BitTrie[NextHop]]
	epoch atomic.Uint32
}

// New returns an empty table.
func New() *Table {
	t := &Table{}
	t.trie.Store(lpm.NewBitTrie[NextHop]())
	return t
}

// Add installs (or replaces) a route for the first plen bits of prefix.
func (t *Table) Add(prefix []byte, plen int, nh NextHop) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	nt, _, err := t.trie.Load().InsertCOW(prefix, plen, nh)
	if err != nil {
		return err
	}
	t.trie.Store(nt)
	t.epoch.Add(1)
	return nil
}

// AddUint32 installs a route keyed by the first plen bits of a 32-bit value,
// the form F_FIB uses for content-name IDs.
func (t *Table) AddUint32(key uint32, plen int, nh NextHop) error {
	if plen < 0 || plen > 32 {
		return fmt.Errorf("fib: prefix length %d out of [0,32]", plen)
	}
	var k [4]byte
	k[0], k[1], k[2], k[3] = byte(key>>24), byte(key>>16), byte(key>>8), byte(key)
	return t.Add(k[:], plen, nh)
}

// Epoch returns the table's snapshot epoch: a counter bumped every time a
// new snapshot is published (and only then — no-op commits leave it
// untouched). F_tel stamps it into hop records so a postcard pins exactly
// which forwarding state forwarded the packet; a mid-flight change in the
// carried epoch is route churn caught in the act.
func (t *Table) Epoch() uint32 { return t.epoch.Load() }

// Lookup returns the longest-prefix match for the first bits of key.
// It never allocates and never blocks: any number of lookups proceed
// concurrently with each other and with route churn.
func (t *Table) Lookup(key []byte, bits int) (NextHop, bool) {
	nh, _, ok := t.trie.Load().Lookup(key, bits)
	return nh, ok
}

// LookupUint32 is Lookup for 32-bit keys without forcing the caller to
// build a slice (a stack array suffices and does not escape).
func (t *Table) LookupUint32(key uint32) (NextHop, bool) {
	var k [4]byte
	k[0], k[1], k[2], k[3] = byte(key>>24), byte(key>>16), byte(key>>8), byte(key)
	return t.Lookup(k[:], 32)
}

// Len returns the number of installed routes.
func (t *Table) Len() int {
	return t.trie.Load().Len()
}

// Walk visits every route in the current snapshot. fn sees a consistent
// point-in-time view; routes added or removed during the walk may or may
// not appear.
func (t *Table) Walk(fn func(prefix []byte, plen int, nh NextHop) bool) {
	t.trie.Load().Walk(fn)
}

// Txn is a batched update to a Table: any number of Adds and Removes built
// on a private copy-on-write trie, published to readers atomically by a
// single Commit. The transaction holds the table's writer lock from Txn()
// until Commit, so Commit is mandatory; lookups are never blocked. This is
// the route-churn API: one BGP-style batch of updates costs one pointer
// publish instead of one per route.
//
// No-op transactions publish nothing: Add skips routes that are already
// installed with the same next hop, Remove of an absent route stages
// nothing, and Commit only stores when the staged trie differs (pointer
// inequality) from the snapshot the transaction opened on. A periodic
// refresh cycle that re-installs the same routes therefore never
// invalidates reader caches.
type Txn struct {
	t    *Table
	orig *lpm.BitTrie[NextHop]
	trie *lpm.BitTrie[NextHop]
	done bool
}

// Txn opens a batched update. The caller must finish it with Commit (other
// writers block until then; readers do not).
func (t *Table) Txn() *Txn {
	t.mu.Lock()
	cur := t.trie.Load()
	return &Txn{t: t, orig: cur, trie: cur}
}

// Add stages a route. Staged updates are invisible to lookups until Commit.
// Re-adding an identical route (same prefix, length and next hop) stages
// nothing, so refresh-style batches stay no-ops.
func (x *Txn) Add(prefix []byte, plen int, nh NextHop) error {
	if cur, ok := x.trie.Get(prefix, plen); ok && cur == nh {
		return nil
	}
	nt, _, err := x.trie.InsertCOW(prefix, plen, nh)
	if err != nil {
		return err
	}
	x.trie = nt
	return nil
}

// Remove stages a route withdrawal. Removing an absent route stages
// nothing (DeleteCOW returns the receiver unchanged).
func (x *Txn) Remove(prefix []byte, plen int) bool {
	nt, removed := x.trie.DeleteCOW(prefix, plen)
	if removed {
		x.trie = nt
	}
	return removed
}

// Changed reports whether the transaction has staged any effective update
// so far (a Commit now would publish a new snapshot).
func (x *Txn) Changed() bool { return x.trie != x.orig }

// Commit publishes every staged update at once and releases the writer
// lock. Lookups switch from the old snapshot to the new one at a single
// atomic pointer store. A transaction that staged nothing effective
// publishes nothing: the snapshot pointer — and every reader cache keyed
// on it — stays untouched.
func (x *Txn) Commit() {
	if x.done {
		return
	}
	x.done = true
	if x.trie != x.orig {
		x.t.trie.Store(x.trie)
		x.t.epoch.Add(1)
	}
	x.t.mu.Unlock()
}
