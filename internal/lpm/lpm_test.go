package lpm

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func ip4(a, b, c, d byte) []byte { return []byte{a, b, c, d} }

func TestBitTrieBasicIPv4(t *testing.T) {
	tr := NewBitTrie[string]()
	tr = mustInsert(t, tr, ip4(10, 0, 0, 0), 8, "ten")
	tr = mustInsert(t, tr, ip4(10, 1, 0, 0), 16, "ten-one")
	tr = mustInsert(t, tr, ip4(10, 1, 2, 0), 24, "ten-one-two")
	tr = mustInsert(t, tr, ip4(0, 0, 0, 0), 0, "default")

	cases := []struct {
		key  []byte
		want string
		plen int
	}{
		{ip4(10, 1, 2, 3), "ten-one-two", 24},
		{ip4(10, 1, 9, 9), "ten-one", 16},
		{ip4(10, 9, 9, 9), "ten", 8},
		{ip4(192, 168, 0, 1), "default", 0},
	}
	for _, c := range cases {
		v, plen, ok := tr.Lookup(c.key, 32)
		if !ok || v != c.want || plen != c.plen {
			t.Errorf("Lookup(%v) = (%q,%d,%v), want (%q,%d)", c.key, v, plen, ok, c.want, c.plen)
		}
	}
	if tr.Len() != 4 {
		t.Errorf("Len = %d, want 4", tr.Len())
	}
}

func TestBitTrieNoMatch(t *testing.T) {
	tr := NewBitTrie[int]()
	tr = mustInsert(t, tr, ip4(10, 0, 0, 0), 8, 1)
	if _, _, ok := tr.Lookup(ip4(11, 0, 0, 1), 32); ok {
		t.Error("unexpected match")
	}
	// Empty trie.
	empty := NewBitTrie[int]()
	if _, _, ok := empty.Lookup(ip4(1, 2, 3, 4), 32); ok {
		t.Error("match in empty trie")
	}
}

func TestBitTrieReplace(t *testing.T) {
	tr := NewBitTrie[int]()
	tr, created, err := tr.InsertCOW(ip4(10, 0, 0, 0), 8, 1)
	if err != nil || !created {
		t.Fatalf("first insert: created=%v err=%v", created, err)
	}
	tr, created, err = tr.InsertCOW(ip4(10, 0, 0, 0), 8, 2)
	if err != nil || created {
		t.Fatalf("replace: created=%v err=%v", created, err)
	}
	v, _, _ := tr.Lookup(ip4(10, 1, 1, 1), 32)
	if v != 2 {
		t.Errorf("got %d after replace", v)
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestBitTrieSplitPaths(t *testing.T) {
	// Force fragment splits: two prefixes diverging mid-fragment.
	tr := NewBitTrie[int]()
	tr = mustInsert(t, tr, []byte{0b10101010, 0xFF}, 16, 1)
	tr = mustInsert(t, tr, []byte{0b10101011, 0x00}, 16, 2) // diverges at bit 7
	tr = mustInsert(t, tr, []byte{0b10101010}, 8, 3)        // prefix of the first
	v, plen, ok := tr.Lookup([]byte{0b10101010, 0xFF}, 16)
	if !ok || v != 1 || plen != 16 {
		t.Errorf("got (%d,%d,%v)", v, plen, ok)
	}
	v, plen, ok = tr.Lookup([]byte{0b10101010, 0x0F}, 16)
	if !ok || v != 3 || plen != 8 {
		t.Errorf("fallback got (%d,%d,%v), want (3,8)", v, plen, ok)
	}
	v, _, ok = tr.Lookup([]byte{0b10101011, 0x00}, 16)
	if !ok || v != 2 {
		t.Errorf("sibling got (%d,%v)", v, ok)
	}
}

func TestBitTrieExactGetDelete(t *testing.T) {
	tr := NewBitTrie[int]()
	tr = mustInsert(t, tr, ip4(10, 0, 0, 0), 8, 1)
	tr = mustInsert(t, tr, ip4(10, 1, 0, 0), 16, 2)
	if v, ok := tr.Get(ip4(10, 0, 0, 0), 8); !ok || v != 1 {
		t.Errorf("Get /8 = (%d,%v)", v, ok)
	}
	if _, ok := tr.Get(ip4(10, 0, 0, 0), 9); ok {
		t.Error("Get /9 should miss")
	}
	tr, removed := tr.DeleteCOW(ip4(10, 1, 0, 0), 16)
	if !removed {
		t.Fatal("delete existing failed")
	}
	if _, removed = tr.DeleteCOW(ip4(10, 1, 0, 0), 16); removed {
		t.Error("double delete succeeded")
	}
	v, plen, ok := tr.Lookup(ip4(10, 1, 2, 3), 32)
	if !ok || v != 1 || plen != 8 {
		t.Errorf("after delete, got (%d,%d,%v)", v, plen, ok)
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestBitTrieKeyValidation(t *testing.T) {
	tr := NewBitTrie[int]()
	if _, _, err := tr.InsertCOW([]byte{1}, 16, 0); err == nil {
		t.Error("short key accepted")
	}
	if _, _, err := tr.InsertCOW(make([]byte, 17), 136, 0); err == nil {
		t.Error(">128-bit prefix accepted")
	}
	if _, _, err := tr.InsertCOW(nil, -1, 0); err == nil {
		t.Error("negative plen accepted")
	}
}

func TestBitTrie128Bit(t *testing.T) {
	tr := NewBitTrie[int]()
	k := make([]byte, 16)
	k[0] = 0x20
	k[1] = 0x01
	tr = mustInsert(t, tr, k, 32, 6)
	tr = mustInsert(t, tr, k, 128, 7)
	v, plen, ok := tr.Lookup(k, 128)
	if !ok || v != 7 || plen != 128 {
		t.Errorf("got (%d,%d,%v)", v, plen, ok)
	}
	k2 := append([]byte(nil), k...)
	k2[15] = 1
	v, plen, ok = tr.Lookup(k2, 128)
	if !ok || v != 6 || plen != 32 {
		t.Errorf("got (%d,%d,%v), want (6,32)", v, plen, ok)
	}
}

// Reference model: brute-force map of prefixes. Property: trie lookup agrees
// with the model for random inserts, deletes, and queries.
func TestBitTrieAgainstModelQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := NewBitTrie[uint32]()
		type pfx struct {
			key  [4]byte
			plen int
		}
		model := map[pfx]uint32{}
		for op := 0; op < 200; op++ {
			var k [4]byte
			binary.BigEndian.PutUint32(k[:], rng.Uint32()&0xFFFF0000|uint32(rng.Intn(4))) // cluster keys to force overlaps
			plen := rng.Intn(33)
			maskKey(k[:], plen)
			p := pfx{k, plen}
			switch rng.Intn(3) {
			case 0, 1:
				v := rng.Uint32()
				model[p] = v
				var err error
				if tr, _, err = tr.InsertCOW(k[:], plen, v); err != nil {
					return false
				}
			case 2:
				_, existed := model[p]
				delete(model, p)
				var removed bool
				if tr, removed = tr.DeleteCOW(k[:], plen); removed != existed {
					return false
				}
			}
		}
		if tr.Len() != len(model) {
			return false
		}
		// Query random addresses and compare against brute force.
		for q := 0; q < 100; q++ {
			var k [4]byte
			binary.BigEndian.PutUint32(k[:], rng.Uint32())
			wantV, wantL, wantOK := uint32(0), -1, false
			for p, v := range model {
				if p.plen > wantL && prefixMatches(k[:], p.key[:], p.plen) {
					wantV, wantL, wantOK = v, p.plen, true
				}
			}
			gotV, gotL, gotOK := tr.Lookup(k[:], 32)
			if gotOK != wantOK {
				return false
			}
			if wantOK && (gotV != wantV || gotL != wantL) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func maskKey(k []byte, plen int) {
	for i := plen; i < len(k)*8; i++ {
		k[i>>3] &^= 1 << (7 - uint(i&7))
	}
}

func prefixMatches(key, prefix []byte, plen int) bool {
	for i := 0; i < plen; i++ {
		if bitAt(key, i) != bitAt(prefix, i) {
			return false
		}
	}
	return true
}

func TestBitTrieWalk(t *testing.T) {
	tr := NewBitTrie[int]()
	tr = mustInsert(t, tr, ip4(10, 0, 0, 0), 8, 1)
	tr = mustInsert(t, tr, ip4(10, 1, 0, 0), 16, 2)
	tr = mustInsert(t, tr, ip4(192, 168, 0, 0), 16, 3)
	var got []int
	tr.Walk(func(key []byte, plen int, v int) bool {
		got = append(got, v)
		return true
	})
	sort.Ints(got)
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("walk got %v", got)
	}
	// Early stop.
	count := 0
	tr.Walk(func([]byte, int, int) bool { count++; return false })
	if count != 1 {
		t.Errorf("early stop visited %d", count)
	}
}

// mustInsert returns tr's successor with (key, plen) → v inserted.
func mustInsert[V any](t *testing.T, tr *BitTrie[V], key []byte, plen int, v V) *BitTrie[V] {
	t.Helper()
	nt, _, err := tr.InsertCOW(key, plen, v)
	if err != nil {
		t.Fatalf("InsertCOW(%v,/%d): %v", key, plen, err)
	}
	return nt
}

func BenchmarkBitTrieLookup1k(b *testing.B)   { benchLookup(b, 1_000) }
func BenchmarkBitTrieLookup100k(b *testing.B) { benchLookup(b, 100_000) }

func benchLookup(b *testing.B, routes int) {
	rng := rand.New(rand.NewSource(42))
	tr := NewBitTrie[uint32]()
	for i := 0; i < routes; i++ {
		var k [4]byte
		binary.BigEndian.PutUint32(k[:], rng.Uint32())
		plen := 8 + rng.Intn(25)
		maskKey(k[:], plen)
		tr, _, _ = tr.InsertCOW(k[:], plen, uint32(i))
	}
	keys := make([][4]byte, 1024)
	for i := range keys {
		binary.BigEndian.PutUint32(keys[i][:], rng.Uint32())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&1023]
		tr.Lookup(k[:], 32)
	}
}
