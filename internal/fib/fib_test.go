package fib

import (
	"fmt"
	"sync"
	"testing"
)

func TestTableAddLookup(t *testing.T) {
	tb := New()
	if err := tb.Add([]byte{10, 0, 0, 0}, 8, NextHop{Port: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Add([]byte{10, 1, 0, 0}, 16, NextHop{Port: 2}); err != nil {
		t.Fatal(err)
	}
	nh, ok := tb.Lookup([]byte{10, 1, 2, 3}, 32)
	if !ok || nh.Port != 2 {
		t.Errorf("got %+v %v", nh, ok)
	}
	nh, ok = tb.Lookup([]byte{10, 200, 0, 1}, 32)
	if !ok || nh.Port != 1 {
		t.Errorf("got %+v %v", nh, ok)
	}
	if _, ok := tb.Lookup([]byte{11, 0, 0, 1}, 32); ok {
		t.Error("spurious match")
	}
	if tb.Len() != 2 {
		t.Errorf("Len = %d", tb.Len())
	}
}

func TestTableUint32Helpers(t *testing.T) {
	tb := New()
	if err := tb.AddUint32(0xCAFE0000, 16, NextHop{Port: 3}); err != nil {
		t.Fatal(err)
	}
	nh, ok := tb.LookupUint32(0xCAFE1234)
	if !ok || nh.Port != 3 {
		t.Errorf("got %+v %v", nh, ok)
	}
	if _, ok := tb.LookupUint32(0xBEEF0000); ok {
		t.Error("spurious match")
	}
	if err := tb.AddUint32(0, 40, Local); err == nil {
		t.Error("plen > 32 accepted")
	}
}

func TestTableRemoveWalk(t *testing.T) {
	tb := New()
	tb.Add([]byte{10, 0, 0, 0}, 8, NextHop{Port: 1})
	tb.Add([]byte{20, 0, 0, 0}, 8, Local)
	if !tb.Remove([]byte{10, 0, 0, 0}, 8) {
		t.Error("remove failed")
	}
	if tb.Remove([]byte{10, 0, 0, 0}, 8) {
		t.Error("double remove")
	}
	count := 0
	tb.Walk(func(prefix []byte, plen int, nh NextHop) bool {
		count++
		if nh.Port != PortLocal {
			t.Errorf("unexpected route %+v", nh)
		}
		return true
	})
	if count != 1 {
		t.Errorf("walked %d routes", count)
	}
}

func TestTableLookupNoAlloc(t *testing.T) {
	tb := New()
	tb.AddUint32(0xAA000000, 8, NextHop{Port: 1})
	allocs := testing.AllocsPerRun(1000, func() {
		tb.LookupUint32(0xAA123456)
	})
	if allocs != 0 {
		t.Errorf("LookupUint32 allocates %.1f", allocs)
	}
}

func TestTableConcurrent(t *testing.T) {
	tb := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tb.AddUint32(uint32(w)<<24|uint32(i), 32, NextHop{Port: w})
				tb.LookupUint32(uint32(w) << 24)
			}
		}(w)
	}
	wg.Wait()
	if tb.Len() != 800 {
		t.Errorf("Len = %d", tb.Len())
	}
}

// Remove withdraws the exact route (prefix, plen).
func (t *Table) Remove(prefix []byte, plen int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	nt, removed := t.trie.Load().DeleteCOW(prefix, plen)
	if removed {
		t.trie.Store(nt)
		t.epoch.Add(1)
	}
	return removed
}

// AddUint32 stages a route keyed by the first plen bits of a 32-bit value.
func (x *Txn) AddUint32(key uint32, plen int, nh NextHop) error {
	if plen < 0 || plen > 32 {
		return fmt.Errorf("fib: prefix length %d out of [0,32]", plen)
	}
	var k [4]byte
	k[0], k[1], k[2], k[3] = byte(key>>24), byte(key>>16), byte(key>>8), byte(key)
	return x.Add(k[:], plen, nh)
}
