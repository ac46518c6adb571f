package fib

import (
	"math/rand"
	"sync"
	"testing"

	"dip/internal/lpm"
)

// rwmuTable is the pre-RCU design: one RWMutex in front of a shared trie.
// It exists only as the benchmark baseline for the snapshot discipline.
type rwmuTable struct {
	mu   sync.RWMutex
	trie *lpm.BitTrie[NextHop]
}

func newRWMuTable() *rwmuTable {
	return &rwmuTable{trie: lpm.NewBitTrie[NextHop]()}
}

func (t *rwmuTable) AddUint32(key uint32, plen int, nh NextHop) {
	var k [4]byte
	k[0], k[1], k[2], k[3] = byte(key>>24), byte(key>>16), byte(key>>8), byte(key)
	t.mu.Lock()
	t.trie, _, _ = t.trie.InsertCOW(k[:], plen, nh)
	t.mu.Unlock()
}

func (t *rwmuTable) LookupUint32(key uint32) (NextHop, bool) {
	var k [4]byte
	k[0], k[1], k[2], k[3] = byte(key>>24), byte(key>>16), byte(key>>8), byte(key)
	t.mu.RLock()
	nh, _, ok := t.trie.Lookup(k[:], 32)
	t.mu.RUnlock()
	return nh, ok
}

const benchRoutes = 10000

func benchKeys() []uint32 {
	rng := rand.New(rand.NewSource(7))
	keys := make([]uint32, benchRoutes)
	for i := range keys {
		keys[i] = rng.Uint32()
	}
	return keys
}

// BenchmarkFIBLookupParallel compares concurrent lookup throughput of the
// RCU snapshot table against the classic RWMutex design it replaced. With
// GOMAXPROCS ≥ 4 the RCU variant must scale near-linearly while the RWMutex
// baseline serializes on the reader count's cache line.
func BenchmarkFIBLookupParallel(b *testing.B) {
	keys := benchKeys()

	b.Run("rcu", func(b *testing.B) {
		t := New()
		for i, k := range keys {
			t.AddUint32(k, 32, NextHop{Port: i & 7})
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				t.LookupUint32(keys[i%benchRoutes])
				i++
			}
		})
	})

	b.Run("rwmutex", func(b *testing.B) {
		t := newRWMuTable()
		for i, k := range keys {
			t.AddUint32(k, 32, NextHop{Port: i & 7})
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				t.LookupUint32(keys[i%benchRoutes])
				i++
			}
		})
	})
}

// BenchmarkFIBLookupSequential pins the single-threaded cost of a snapshot
// lookup (one atomic load plus the trie walk).
func BenchmarkFIBLookupSequential(b *testing.B) {
	keys := benchKeys()
	t := New()
	for i, k := range keys {
		t.AddUint32(k, 32, NextHop{Port: i & 7})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.LookupUint32(keys[i%benchRoutes])
	}
}

// BenchmarkFIBTxnCommit measures batched route churn: one publish per batch
// of 100 updates, concurrent lookups never blocked.
func BenchmarkFIBTxnCommit(b *testing.B) {
	keys := benchKeys()
	t := New()
	for i, k := range keys {
		t.AddUint32(k, 32, NextHop{Port: i & 7})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := t.Txn()
		for j := 0; j < 100; j++ {
			x.AddUint32(keys[(i*100+j)%benchRoutes], 32, NextHop{Port: j & 7})
		}
		x.Commit()
	}
}
