// Package cmac implements AES-CMAC (RFC 4493) from scratch on top of the
// standard library's AES block cipher.
//
// The DIP paper chose the 2EM cipher over AES for its Tofino prototype
// because AES required resubmitting the packet (§4.1); this package provides
// the AES side of that comparison (experiment E3 in DESIGN.md) and serves as
// the conservative MAC for OPT tag chains when callers prefer a standard
// construction.
package cmac

import (
	"crypto/aes"
	"crypto/cipher"
	"fmt"
)

// BlockSize is the CMAC block and tag size in bytes.
const BlockSize = 16

// MAC computes AES-CMAC over msg. It is stateless and safe for concurrent
// use once constructed.
type MAC struct {
	c      cipher.Block
	k1, k2 [BlockSize]byte
}

// New builds a MAC from a 16-, 24-, or 32-byte AES key.
func New(key []byte) (*MAC, error) {
	c, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("cmac: %w", err)
	}
	m := &MAC{c: c}
	var l [BlockSize]byte
	c.Encrypt(l[:], l[:])
	dbl(&m.k1, &l)
	dbl(&m.k2, &m.k1)
	return m, nil
}

// dbl sets dst to the doubling of src in GF(2^128) per RFC 4493 §2.3.
func dbl(dst, src *[BlockSize]byte) {
	var carry byte
	for i := BlockSize - 1; i >= 0; i-- {
		b := src[i]
		dst[i] = b<<1 | carry
		carry = b >> 7
	}
	if carry != 0 {
		dst[BlockSize-1] ^= 0x87
	}
}

// Sum appends the 16-byte CMAC of msg to dst and returns the result. Sum
// allocates only when dst lacks capacity; passing a 16-capacity buffer keeps
// the OPT hot path allocation-free.
func (m *MAC) Sum(dst, msg []byte) []byte {
	var x, scratch [BlockSize]byte
	n := len(msg)
	full := n / BlockSize
	rem := n % BlockSize
	completeFinal := n > 0 && rem == 0
	bodyBlocks := full
	if completeFinal {
		bodyBlocks--
	}
	for i := 0; i < bodyBlocks; i++ {
		xorBlock(&x, msg[i*BlockSize:])
		m.c.Encrypt(x[:], x[:])
	}
	if completeFinal {
		xorBlock(&x, msg[(full-1)*BlockSize:])
		for i := range x {
			x[i] ^= m.k1[i]
		}
	} else {
		copy(scratch[:], msg[full*BlockSize:])
		scratch[rem] = 0x80
		for i := rem + 1; i < BlockSize; i++ {
			scratch[i] = 0
		}
		for i := range x {
			x[i] ^= scratch[i] ^ m.k2[i]
		}
	}
	m.c.Encrypt(x[:], x[:])
	return append(dst, x[:]...)
}

// SumInto writes the 16-byte CMAC of msg into out (which must be exactly
// BlockSize long) with no allocation.
func (m *MAC) SumInto(out, msg []byte) {
	if len(out) != BlockSize {
		panic("cmac: SumInto requires a 16-byte output")
	}
	tag := m.Sum(out[:0], msg)
	_ = tag // Sum wrote in place because cap(out[:0]) == BlockSize
}

func xorBlock(x *[BlockSize]byte, b []byte) {
	for i := 0; i < BlockSize; i++ {
		x[i] ^= b[i]
	}
}
