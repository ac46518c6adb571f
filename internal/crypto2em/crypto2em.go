// Package crypto2em implements the 2EM key-alternating cipher (two-round
// Even–Mansour; Bogdanov et al., EUROCRYPT 2012) and a CBC-MAC mode over it.
//
// The DIP prototype uses 2EM instead of AES for its F_MAC operation because
// 2EM is "more friendly to Barefoot Tofino and can be completed without
// resubmitting the packet" (paper §4.1). The construction is
//
//	E_k(x) = P2( P1( x ⊕ k1 ) ⊕ k2 ) ⊕ k3
//
// where P1 and P2 are fixed public permutations. The security of
// Even–Mansour rests on the keys, not on the permutations' secrecy, so we
// instantiate P1 and P2 as 128-bit ARX permutations (SipHash-style rounds
// with distinct round constants) — the software analogue of the
// table-implemented public permutations a Tofino realization uses. Being
// branch-free integer code with no key schedule, deriving and using a
// per-packet 2EM instance allocates nothing, which is exactly the
// structural advantage over AES (whose per-key schedule and generic cipher
// interface cost both time and allocation) that experiment E3 measures.
package crypto2em

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// BlockSize is the 2EM block size in bytes (128-bit blocks).
const BlockSize = 16

// KeySize is the size of a 2EM key: three 128-bit round keys.
const KeySize = 3 * BlockSize

// permRounds is the number of ARX rounds per public permutation. Eight
// double-rounds give full diffusion across both 64-bit lanes.
const permRounds = 8

// Round constants (distinct per permutation): odd 64-bit constants derived
// from the fractional parts of sqrt(2) and sqrt(3), the usual
// nothing-up-my-sleeve choice.
var (
	rc1 = [permRounds]uint64{
		0x6a09e667f3bcc909, 0xbb67ae8584caa73b, 0x3c6ef372fe94f82b, 0xa54ff53a5f1d36f1,
		0x510e527fade682d1, 0x9b05688c2b3e6c1f, 0x1f83d9abfb41bd6b, 0x5be0cd19137e2179,
	}
	rc2 = [permRounds]uint64{
		0xcbbb9d5dc1059ed9, 0x629a292a367cd507, 0x9159015a3070dd17, 0x152fecd8f70e5939,
		0x67332667ffc00b31, 0x8eb44a8768581511, 0xdb0c2e0d64f98fa7, 0x47b5481dbefa4fa4,
	}
)

// permute applies one public permutation (selected by rc) to the two lanes.
func permute(rc *[permRounds]uint64, a, b uint64) (uint64, uint64) {
	for i := 0; i < permRounds; i++ {
		a += b
		b = bits.RotateLeft64(b, 13) ^ a
		a = bits.RotateLeft64(a, 32) + b
		b = bits.RotateLeft64(b, 17) ^ a
		a = bits.RotateLeft64(a, 21)
		a += rc[i]
	}
	return a, b
}

// unpermute inverts permute.
func unpermute(rc *[permRounds]uint64, a, b uint64) (uint64, uint64) {
	for i := permRounds - 1; i >= 0; i-- {
		a -= rc[i]
		a = bits.RotateLeft64(a, -21)
		b ^= a
		b = bits.RotateLeft64(b, -17)
		a -= b
		a = bits.RotateLeft64(a, -32)
		b ^= a
		b = bits.RotateLeft64(b, -13)
		a -= b
	}
	return a, b
}

// Cipher is a 2EM block cipher instance. The zero value is a valid cipher
// under the all-zero key; instances are safe for concurrent use.
type Cipher struct {
	k1a, k1b uint64
	k2a, k2b uint64
	k3a, k3b uint64
}

// New builds a Cipher from a 48-byte key (k1‖k2‖k3). Shorter master keys
// should be expanded first (see Expand or FromMaster).
func New(key []byte) (*Cipher, error) {
	if len(key) != KeySize {
		return nil, fmt.Errorf("crypto2em: key must be %d bytes, got %d", KeySize, len(key))
	}
	c := &Cipher{}
	c.k1a = binary.BigEndian.Uint64(key[0:8])
	c.k1b = binary.BigEndian.Uint64(key[8:16])
	c.k2a = binary.BigEndian.Uint64(key[16:24])
	c.k2b = binary.BigEndian.Uint64(key[24:32])
	c.k3a = binary.BigEndian.Uint64(key[32:40])
	c.k3b = binary.BigEndian.Uint64(key[40:48])
	return c, nil
}

// Expand stretches a 16-byte master key into a 48-byte 2EM key by running
// the master through the public permutations with distinct tweaks, the
// usual way single-key Even–Mansour variants derive round keys.
func Expand(master []byte) ([]byte, error) {
	if len(master) != BlockSize {
		return nil, fmt.Errorf("crypto2em: master key must be %d bytes, got %d", BlockSize, len(master))
	}
	var m [BlockSize]byte
	copy(m[:], master)
	c := FromMaster(&m)
	out := make([]byte, 0, KeySize)
	for _, w := range [...]uint64{c.k1a, c.k1b, c.k2a, c.k2b, c.k3a, c.k3b} {
		out = binary.BigEndian.AppendUint64(out, w)
	}
	return out, nil
}

// FromMaster builds a Cipher by value from a 16-byte master key, deriving
// k2 = P1(master ⊕ t1) and k3 = P2(master ⊕ t2) on the caller's stack.
// Because 2EM has no key schedule, deriving a fresh per-packet cipher this
// way allocates nothing — the property that keeps F_MAC off the garbage
// collector.
func FromMaster(master *[BlockSize]byte) Cipher {
	var c Cipher
	c.k1a = binary.BigEndian.Uint64(master[0:8])
	c.k1b = binary.BigEndian.Uint64(master[8:16])
	c.k2a, c.k2b = permute(&rc1, c.k1a^0x01, c.k1b)
	c.k3a, c.k3b = permute(&rc2, c.k1a^0x02, c.k1b)
	return c
}

// enc is E on the two 64-bit lanes of one block.
func (c *Cipher) enc(a, b uint64) (uint64, uint64) {
	a, b = permute(&rc1, a^c.k1a, b^c.k1b)
	a, b = permute(&rc2, a^c.k2a, b^c.k2b)
	return a ^ c.k3a, b ^ c.k3b
}

// Encrypt computes dst = E(src) for one block. dst and src may overlap
// exactly; both must be at least BlockSize long.
func (c *Cipher) Encrypt(dst, src []byte) {
	a, b := c.enc(binary.BigEndian.Uint64(src[0:8]), binary.BigEndian.Uint64(src[8:16]))
	binary.BigEndian.PutUint64(dst[0:8], a)
	binary.BigEndian.PutUint64(dst[8:16], b)
}

// Decrypt inverts Encrypt.
func (c *Cipher) Decrypt(dst, src []byte) {
	a := binary.BigEndian.Uint64(src[0:8]) ^ c.k3a
	b := binary.BigEndian.Uint64(src[8:16]) ^ c.k3b
	a, b = unpermute(&rc2, a, b)
	a, b = unpermute(&rc1, a^c.k2a, b^c.k2b)
	binary.BigEndian.PutUint64(dst[0:8], a^c.k1a)
	binary.BigEndian.PutUint64(dst[8:16], b^c.k1b)
}

// Sum appends the 16-byte 2EM-CBC-MAC of msg to dst. The mode is CBC-MAC
// with 10*-style padding and a length block, making it safe for the
// variable-length inputs OPT feeds it (the 416-bit tag region plus hop
// parameters), with the chaining value kept in two 64-bit lanes throughout.
func (c *Cipher) Sum(dst, msg []byte) []byte {
	var a, b uint64
	n := len(msg)
	for ; len(msg) >= BlockSize; msg = msg[BlockSize:] {
		a, b = c.enc(a^binary.BigEndian.Uint64(msg), b^binary.BigEndian.Uint64(msg[8:]))
	}
	// Final partial block with 10* padding (always present: if the message
	// is block-aligned, a full padding block is processed, preventing
	// extension between aligned and unaligned inputs).
	var last [BlockSize]byte
	last[copy(last[:], msg)] = 0x80
	a, b = c.enc(a^binary.BigEndian.Uint64(last[:]), b^binary.BigEndian.Uint64(last[8:]))
	// Length block (0 ‖ n) binds the total length.
	a, b = c.enc(a, b^uint64(n))
	return binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(dst, a), b)
}

// SumInto writes the 16-byte MAC of msg into out (exactly BlockSize long)
// without allocating.
func (c *Cipher) SumInto(out, msg []byte) {
	if len(out) != BlockSize {
		panic("crypto2em: SumInto requires a 16-byte output")
	}
	c.Sum(out[:0], msg)
}
