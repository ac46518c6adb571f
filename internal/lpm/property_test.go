package lpm

import (
	"fmt"
	"math/rand"
	"testing"
)

// oracleKey identifies one (prefix, plen) route in the reference model.
type oracleKey struct {
	prefix [MaxKeyBits / 8]byte
	plen   int
}

// oracle is the obviously-correct LPM reference: a flat map of routes,
// looked up by scanning every prefix length from longest to shortest.
type oracle struct {
	routes map[oracleKey]int
}

func newOracle() *oracle { return &oracle{routes: map[oracleKey]int{}} }

func propMaskKey(key []byte, plen int) (k oracleKey) {
	k.plen = plen
	copy(k.prefix[:], key)
	// Zero bits beyond plen so equal prefixes compare equal.
	for i := plen; i < MaxKeyBits; i++ {
		k.prefix[i>>3] &^= 0x80 >> (uint(i) & 7)
	}
	return k
}

func (o *oracle) insert(key []byte, plen, v int) bool {
	k := propMaskKey(key, plen)
	_, existed := o.routes[k]
	o.routes[k] = v
	return !existed
}

func (o *oracle) delete(key []byte, plen int) bool {
	k := propMaskKey(key, plen)
	_, existed := o.routes[k]
	delete(o.routes, k)
	return existed
}

func (o *oracle) lookup(key []byte, keylen int) (v, plen int, ok bool) {
	for l := keylen; l >= 0; l-- {
		if got, hit := o.routes[propMaskKey(key, l)]; hit {
			return got, l, true
		}
	}
	return 0, 0, false
}

// randKey draws a key biased toward shared prefixes so the trie actually
// exercises splitNode, compact, and mergeInto rather than degenerating into
// disjoint leaves.
func randKey(rng *rand.Rand, buf []byte) ([]byte, int) {
	nbytes := 4
	if rng.Intn(2) == 1 {
		nbytes = 16
	}
	key := buf[:nbytes]
	if rng.Intn(3) > 0 {
		// Cluster: few distinct leading bytes, random tail.
		key[0] = byte(rng.Intn(4))
		for i := 1; i < nbytes; i++ {
			key[i] = byte(rng.Intn(8))
		}
	} else {
		for i := range key {
			key[i] = byte(rng.Uint32())
		}
	}
	plen := rng.Intn(nbytes*8 + 1)
	return key, plen
}

// TestBitTriePropertyVsOracle drives randomized interleaved InsertCOW,
// DeleteCOW and Lookup through both the trie and the flat-map oracle and
// demands they agree at every step — including the created/removed results
// and Len — and that every earlier snapshot stays unchanged.
func TestBitTriePropertyVsOracle(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) { checkVsOracle(t, seed, 5000) })
	}
}

// TestBitTrieCOWPropertyVsOracle is the same workload over a second seed
// range, in shorter runs.
func TestBitTrieCOWPropertyVsOracle(t *testing.T) {
	for seed := int64(100); seed < 104; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) { checkVsOracle(t, seed, 2500) })
	}
}

// checkVsOracle runs steps random mutations and lookups through the
// copy-on-write mutators, checking both that the successor trie agrees with
// the oracle and that the predecessor snapshot is bit-for-bit unchanged —
// the invariant RCU readers depend on.
func checkVsOracle(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	trie := NewBitTrie[int]()
	ref := newOracle()
	var buf [16]byte
	// probes re-checked against old snapshots after every mutation.
	type probe struct {
		key  []byte
		v    int
		plen int
		ok   bool
	}
	var snapshot *BitTrie[int]
	var probes []probe
	for step := 0; step < steps; step++ {
		key, plen := randKey(rng, buf[:])
		switch rng.Intn(5) {
		case 0, 1:
			v := rng.Intn(1 << 16)
			nt, created, err := trie.InsertCOW(key, plen, v)
			if err != nil {
				t.Fatalf("step %d: insertCOW: %v", step, err)
			}
			if want := ref.insert(key, plen, v); created != want {
				t.Fatalf("step %d: insertCOW(%x/%d) created=%v want %v", step, key, plen, created, want)
			}
			trie = nt
		case 2:
			nt, removed := trie.DeleteCOW(key, plen)
			if want := ref.delete(key, plen); removed != want {
				t.Fatalf("step %d: deleteCOW(%x/%d) removed=%v want %v", step, key, plen, removed, want)
			}
			trie = nt
		default: // lookup on a full-width key
			v, gotLen, ok := trie.Lookup(key, len(key)*8)
			wantV, wantLen, wantOK := ref.lookup(key, len(key)*8)
			if ok != wantOK || (ok && (v != wantV || gotLen != wantLen)) {
				t.Fatalf("step %d: lookup(%x) = (%d,/%d,%v) want (%d,/%d,%v)",
					step, key, v, gotLen, ok, wantV, wantLen, wantOK)
			}
		}
		if trie.Len() != len(ref.routes) {
			t.Fatalf("step %d: Len=%d oracle=%d", step, trie.Len(), len(ref.routes))
		}
		// Old snapshots must never change under later COW mutations.
		if snapshot != nil {
			for _, p := range probes {
				v, gotLen, ok := snapshot.Lookup(p.key, len(p.key)*8)
				if ok != p.ok || (ok && (v != p.v || gotLen != p.plen)) {
					t.Fatalf("step %d: snapshot drifted for %x: (%d,/%d,%v) want (%d,/%d,%v)",
						step, p.key, v, gotLen, ok, p.v, p.plen, p.ok)
				}
			}
		}
		// Re-snapshot periodically with fresh probe keys.
		if step%500 == 0 {
			snapshot = trie
			probes = probes[:0]
			pr := rand.New(rand.NewSource(seed ^ int64(step)))
			var pbuf [16]byte
			for i := 0; i < 32; i++ {
				k, _ := randKey(pr, pbuf[:])
				kc := append([]byte(nil), k...)
				v, gotLen, ok := snapshot.Lookup(kc, len(kc)*8)
				probes = append(probes, probe{key: kc, v: v, plen: gotLen, ok: ok})
			}
		}
	}
}
