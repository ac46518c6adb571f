package fib

import (
	"testing"
)

// TestTxnNoOpPublishesNothing pins the no-op-transaction contract: a batch
// of ineffective updates (removes of absent routes, re-adds of identical
// routes) must leave the published snapshot pointer untouched, so idle
// refresh cycles never invalidate reader caches. Before the fix, Remove
// republished x.trie even when nothing was removed and Commit stored
// unconditionally, so this test fails on the old code.
func TestTxnNoOpPublishesNothing(t *testing.T) {
	tb := New()
	tb.AddUint32(0x0A000000, 8, NextHop{Port: 1})
	tb.AddUint32(0x14000000, 8, Local)
	snap := tb.trie.Load()

	x := tb.Txn()
	if x.Remove([]byte{99, 0, 0, 0}, 8) {
		t.Error("removed an absent route")
	}
	if err := x.AddUint32(0x0A000000, 8, NextHop{Port: 1}); err != nil {
		t.Fatal(err)
	}
	if err := x.AddUint32(0x14000000, 8, Local); err != nil {
		t.Fatal(err)
	}
	if x.Changed() {
		t.Error("no-op transaction reports Changed")
	}
	x.Commit()

	if got := tb.trie.Load(); got != snap {
		t.Error("no-op Commit published a new snapshot")
	}
	// An effective transaction must still publish.
	x = tb.Txn()
	if err := x.AddUint32(0x1E000000, 8, NextHop{Port: 2}); err != nil {
		t.Fatal(err)
	}
	if !x.Changed() {
		t.Error("effective transaction reports unchanged")
	}
	x.Commit()
	if got := tb.trie.Load(); got == snap {
		t.Error("effective Commit did not publish")
	}
}

// TestTableNoOpSinglePublishes pins the same discipline for the
// non-transactional mutators.
func TestTableNoOpSinglePublishes(t *testing.T) {
	tb := New()
	tb.AddUint32(0x0A000000, 8, NextHop{Port: 1})
	snap := tb.trie.Load()
	if tb.Remove([]byte{99, 0, 0, 0}, 8) {
		t.Error("removed an absent route")
	}
	if got := tb.trie.Load(); got != snap {
		t.Error("no-op Remove published a new snapshot")
	}
}
