// Package lpm implements the longest-prefix-match structure that backs DIP's
// forwarding operations: a path-compressed binary (patricia) trie over
// fixed-width bit strings for address lookup (F_32_match, F_128_match, and
// the FIB behind F_FIB, which holds numeric name IDs).
//
// The trie changes only by copy-on-write: InsertCOW/DeleteCOW never touch
// the receiver; they copy only the nodes along the affected path and return
// a new trie sharing every untouched subtree, so a published trie is
// immutable and the data plane reads it without locks or fences while the
// control plane swaps whole tables (internal/fib implements exactly that
// RCU discipline).
//
// Fragment comparison runs a byte at a time — whole-byte XOR with
// bits.LeadingZeros8 locating the divergence — so a lookup at 10⁶ routes
// costs ~flen/8 compares per level instead of flen.
package lpm

import (
	"fmt"
	"math/bits"
)

// MaxKeyBits is the widest supported key (IPv6 / 128-bit name IDs).
const MaxKeyBits = 128

// BitTrie is a path-compressed binary trie mapping bit-string prefixes to
// values of type V. The zero value is not usable; call NewBitTrie.
type BitTrie[V any] struct {
	root *bnode[V]
	size int
}

type bnode[V any] struct {
	// frag holds this node's path fragment, MSB-aligned. Bits at and beyond
	// flen are always zero (splitNode and mergeInto maintain this), which is
	// what lets the comparator work in whole bytes.
	frag  [MaxKeyBits / 8]byte
	flen  uint16 // fragment length in bits
	has   bool
	val   V
	child [2]*bnode[V]
}

// clone returns a shallow copy of n: same fragment and value, sharing the
// child pointers. The copy-on-write paths clone every node they mutate.
func (n *bnode[V]) clone() *bnode[V] {
	c := *n
	return &c
}

// NewBitTrie returns an empty trie.
func NewBitTrie[V any]() *BitTrie[V] {
	return &BitTrie[V]{root: &bnode[V]{}}
}

// Len returns the number of stored prefixes.
func (t *BitTrie[V]) Len() int { return t.size }

func bitAt(key []byte, i int) int {
	return int(key[i>>3]>>(7-uint(i&7))) & 1
}

func fragBitAt(n *[MaxKeyBits / 8]byte, i int) int {
	return int(n[i>>3]>>(7-uint(i&7))) & 1
}

func setFragBit(n *[MaxKeyBits / 8]byte, i, v int) {
	mask := byte(1) << (7 - uint(i&7))
	if v != 0 {
		n[i>>3] |= mask
	} else {
		n[i>>3] &^= mask
	}
}

// keyBitsAt returns up to 8 key bits starting at bit position bp,
// MSB-aligned. Bits past nbits are unspecified; callers mask or bound them.
// The caller guarantees bp+nbits ≤ len(key)*8, which (checked against both
// operands' widths) keeps the second byte read in bounds.
func keyBitsAt(key []byte, bp, nbits int) byte {
	sh := uint(bp) & 7
	b := key[bp>>3] << sh
	if sh != 0 && int(sh)+nbits > 8 {
		b |= key[bp>>3+1] >> (8 - sh)
	}
	return b
}

// commonBits returns how many leading bits (at most limit) of the node
// fragment agree with key starting at bit offset depth. Whole bytes compare
// with a single XOR and bits.LeadingZeros8 locates the divergence; only a
// ragged tail narrower than a byte needs the masked form.
func commonBits(frag *[MaxKeyBits / 8]byte, key []byte, depth, limit int) int {
	n := 0
	for n+8 <= limit {
		if x := frag[n>>3] ^ keyBitsAt(key, depth+n, 8); x != 0 {
			return n + bits.LeadingZeros8(x)
		}
		n += 8
	}
	if r := limit - n; r > 0 {
		x := frag[n>>3] ^ keyBitsAt(key, depth+n, r)
		if lz := bits.LeadingZeros8(x); lz < r {
			return n + lz
		}
	}
	return limit
}

// InsertCOW stores v under the prefix formed by the first plen bits of key
// in a successor trie, replacing any existing value for that exact prefix,
// and reports whether the prefix was newly created. The receiver is never
// modified; the returned trie shares every untouched subtree with it, so
// readers holding the old trie keep a consistent view indefinitely.
func (t *BitTrie[V]) InsertCOW(key []byte, plen int, v V) (nt *BitTrie[V], created bool, err error) {
	if err := checkKey(key, plen); err != nil {
		return t, false, err
	}
	nt = &BitTrie[V]{root: t.root.clone(), size: t.size}
	n := nt.root
	depth := 0
	for {
		limit := plen - depth
		if limit > int(n.flen) {
			limit = int(n.flen)
		}
		common := commonBits(&n.frag, key, depth, limit)
		if common < int(n.flen) {
			nt.splitNode(n, common) // n is a private clone; rest shares children
			if depth+common == plen {
				n.has = true
				n.val = v
				nt.size++
				return nt, true, nil
			}
			n.child[bitAt(key, depth+common)] = newLeaf[V](key, depth+common, plen, v)
			nt.size++
			return nt, true, nil
		}
		depth += int(n.flen)
		if depth == plen {
			if !n.has {
				nt.size++
				created = true
			}
			n.has = true
			n.val = v
			return nt, created, nil
		}
		b := bitAt(key, depth)
		if n.child[b] == nil {
			n.child[b] = newLeaf[V](key, depth, plen, v)
			nt.size++
			return nt, true, nil
		}
		n.child[b] = n.child[b].clone()
		n = n.child[b]
	}
}

// splitNode turns n (fragment F, length L) into a node with fragment F[:at]
// whose single child carries F[at:] along with n's previous value/children.
func (t *BitTrie[V]) splitNode(n *bnode[V], at int) {
	rest := &bnode[V]{flen: n.flen - uint16(at), has: n.has, val: n.val, child: n.child}
	for i := 0; i < int(rest.flen); i++ {
		setFragBit(&rest.frag, i, fragBitAt(&n.frag, at+i))
	}
	firstBit := fragBitAt(&n.frag, at)
	var zero V
	n.flen = uint16(at)
	for i := at; i < MaxKeyBits; i++ {
		setFragBit(&n.frag, i, 0)
	}
	n.has = false
	n.val = zero
	n.child = [2]*bnode[V]{}
	n.child[firstBit] = rest
}

func newLeaf[V any](key []byte, from, plen int, v V) *bnode[V] {
	leaf := &bnode[V]{flen: uint16(plen - from), has: true, val: v}
	for i := 0; i < plen-from; i++ {
		setFragBit(&leaf.frag, i, bitAt(key, from+i))
	}
	return leaf
}

// Lookup returns the value of the longest stored prefix matching the first
// keylen bits of key, along with that prefix's length. It touches no locks
// and never allocates, so any number of readers may run it concurrently
// against a published (immutable) trie.
func (t *BitTrie[V]) Lookup(key []byte, keylen int) (v V, plen int, ok bool) {
	if checkKey(key, keylen) != nil {
		return v, 0, false
	}
	n := t.root
	depth := 0
	for {
		if flen := int(n.flen); flen > 0 {
			// A fragment longer than the remaining key can never complete;
			// a divergence inside it ends the walk the same way — in both
			// cases the best match so far stands. The comparison is written
			// out here (rather than calling commonBits) because Lookup only
			// needs a yes/no and this loop is the forwarding hot path: the
			// first min(8,flen) bits — the whole fragment, for the short
			// fragments dense tries are made of — cost one XOR and shift;
			// only longer fragments enter the byte loop.
			if keylen-depth < flen {
				return v, plen, ok
			}
			m := flen
			if m > 8 {
				m = 8
			}
			if (n.frag[0]^keyBitsAt(key, depth, m))>>(8-uint(m)) != 0 {
				return v, plen, ok
			}
			for nb := 8; nb < flen; nb += 8 {
				if r := flen - nb; r < 8 {
					if (n.frag[nb>>3]^keyBitsAt(key, depth+nb, r))>>(8-uint(r)) != 0 {
						return v, plen, ok
					}
				} else if n.frag[nb>>3] != keyBitsAt(key, depth+nb, 8) {
					return v, plen, ok
				}
			}
		}
		depth += int(n.flen)
		if n.has {
			v, plen, ok = n.val, depth, true
		}
		if depth >= keylen {
			return v, plen, ok
		}
		next := n.child[bitAt(key, depth)]
		if next == nil {
			return v, plen, ok
		}
		n = next
	}
}

// Get returns the value stored at exactly (key, plen).
func (t *BitTrie[V]) Get(key []byte, plen int) (v V, ok bool) {
	got, gotLen, ok := t.Lookup(key, plen)
	if !ok || gotLen != plen {
		var zero V
		return zero, false
	}
	return got, true
}

// DeleteCOW removes the exact prefix (key, plen) in a successor trie and
// reports whether it existed. The receiver is never modified. When the
// prefix is absent it returns the receiver itself (no allocation);
// otherwise the returned trie shares every untouched subtree with the old
// one.
func (t *BitTrie[V]) DeleteCOW(key []byte, plen int) (*BitTrie[V], bool) {
	// Probe first so a miss costs no clones. Get is read-only.
	if _, ok := t.Get(key, plen); !ok {
		return t, false
	}
	nt := &BitTrie[V]{root: t.root.clone(), size: t.size}
	var parent *bnode[V]
	parentBit := 0
	n := nt.root
	depth := 0
	for {
		// The probe above proved the path exists and matches exactly.
		depth += int(n.flen)
		if depth == plen {
			var zero V
			n.has = false
			n.val = zero
			nt.size--
			nt.compact(parent, parentBit, n)
			return nt, true
		}
		b := bitAt(key, depth)
		parent, parentBit = n, b
		n.child[b] = n.child[b].clone()
		n = n.child[b]
	}
}

// compact merges n into its single child (or removes it) after deletion.
// n and parent are freshly cloned by DeleteCOW; the absorbed child is only
// read, never written, so it may be shared.
func (t *BitTrie[V]) compact(parent *bnode[V], parentBit int, n *bnode[V]) {
	if n.has || parent == nil {
		return
	}
	c0, c1 := n.child[0], n.child[1]
	switch {
	case c0 == nil && c1 == nil:
		parent.child[parentBit] = nil
		// The parent may itself now be a pass-through; one level of cleanup
		// is enough to keep the trie correct (not minimal), and repeated
		// deletes keep it bounded.
	case c0 != nil && c1 == nil:
		mergeInto(n, c0)
		parent.child[parentBit] = n
	case c0 == nil && c1 != nil:
		mergeInto(n, c1)
		parent.child[parentBit] = n
	}
}

// mergeInto appends child's fragment (and state) onto n. child is read-only
// here: COW deletions pass shared children.
func mergeInto[V any](n, child *bnode[V]) {
	for i := 0; i < int(child.flen); i++ {
		setFragBit(&n.frag, int(n.flen)+i, fragBitAt(&child.frag, i))
	}
	n.flen += child.flen
	n.has = child.has
	n.val = child.val
	n.child = child.child
}

// Walk calls fn for every stored prefix in unspecified order. Returning
// false from fn stops the walk.
func (t *BitTrie[V]) Walk(fn func(key []byte, plen int, v V) bool) {
	var key [MaxKeyBits / 8]byte
	t.walk(t.root, key, 0, fn)
}

func (t *BitTrie[V]) walk(n *bnode[V], key [MaxKeyBits / 8]byte, depth int, fn func([]byte, int, V) bool) bool {
	if n == nil {
		return true
	}
	for i := 0; i < int(n.flen); i++ {
		setKeyBit(&key, depth+i, fragBitAt(&n.frag, i))
	}
	depth += int(n.flen)
	if n.has {
		kb := make([]byte, (depth+7)/8)
		copy(kb, key[:])
		if !fn(kb, depth, n.val) {
			return false
		}
	}
	return t.walk(n.child[0], key, depth, fn) && t.walk(n.child[1], key, depth, fn)
}

func setKeyBit(k *[MaxKeyBits / 8]byte, i, v int) {
	mask := byte(1) << (7 - uint(i&7))
	if v != 0 {
		k[i>>3] |= mask
	} else {
		k[i>>3] &^= mask
	}
}

func checkKey(key []byte, plen int) error {
	if plen < 0 || plen > MaxKeyBits {
		return fmt.Errorf("lpm: prefix length %d out of [0,%d]", plen, MaxKeyBits)
	}
	if len(key)*8 < plen {
		return fmt.Errorf("lpm: key %d bytes too short for /%d", len(key), plen)
	}
	return nil
}
