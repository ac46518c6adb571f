// Package bitfield provides bit-granular reads over byte slices.
//
// DIP field operations address their operands as (location, length) pairs
// measured in bits within the packet's FN-locations region (paper §2.2), so
// every operation module ultimately funnels through this package. Offsets use
// network bit order: bit 0 is the most significant bit of byte 0.
//
// The package is allocation-free for operands up to 64 bits and for
// slice-view extraction of byte-aligned operands, which keeps the forwarding
// hot path off the garbage collector.
package bitfield

import (
	"errors"
	"fmt"
)

// Errors returned by range checks.
var (
	// ErrOutOfRange reports an operand that extends past the backing slice.
	ErrOutOfRange = errors.New("bitfield: operand out of range")
	// ErrTooWide reports a word operation on an operand wider than 64 bits.
	ErrTooWide = errors.New("bitfield: operand wider than 64 bits")
)

// Check reports whether the bit range [off, off+n) lies within a buffer of
// size bytes. n may be zero, which is always in range when off is.
func Check(sizeBytes int, off, n uint) error {
	total := uint(sizeBytes) * 8
	if off > total || n > total-off {
		return fmt.Errorf("%w: [%d,+%d) in %d bits", ErrOutOfRange, off, n, total)
	}
	return nil
}

// Uint64 reads the n-bit big-endian unsigned integer at bit offset off.
// n must be ≤ 64 and the range must lie within b.
func Uint64(b []byte, off, n uint) (uint64, error) {
	if n > 64 {
		return 0, ErrTooWide
	}
	if err := Check(len(b), off, n); err != nil {
		return 0, err
	}
	if off&7 == 0 && n&7 == 0 {
		// Whole bytes, as every address and name operand is: no shifting.
		var v uint64
		for _, c := range b[off>>3 : (off+n)>>3] {
			v = v<<8 | uint64(c)
		}
		return v, nil
	}
	return uint64Bits(b, off, n), nil
}

// uint64Bits is Uint64 on a checked range of any alignment: the leading
// partial byte, then whole bytes, then trailing bits.
func uint64Bits(b []byte, off, n uint) uint64 {
	var v uint64
	for n > 0 {
		byteIdx := off >> 3
		bitInByte := off & 7
		take := 8 - bitInByte
		if take > n {
			take = n
		}
		cur := b[byteIdx]
		// Bits of interest start at bitInByte (from MSB) and run `take` long.
		cur <<= bitInByte
		cur >>= 8 - take
		v = v<<take | uint64(cur)
		off += take
		n -= take
	}
	return v
}

// Bytes extracts the n-bit range at off into dst, MSB-aligned: the first bit
// of the range becomes the MSB of dst[0]. dst must hold at least (n+7)/8
// bytes; trailing pad bits in the final byte are zeroed. It returns the
// number of bytes written.
//
// For byte-aligned ranges this is a straight copy.
func Bytes(dst, b []byte, off, n uint) (int, error) {
	if err := Check(len(b), off, n); err != nil {
		return 0, err
	}
	outLen := int((n + 7) / 8)
	if len(dst) < outLen {
		return 0, fmt.Errorf("%w: dst %d bytes, need %d", ErrOutOfRange, len(dst), outLen)
	}
	if off&7 == 0 {
		copy(dst[:outLen], b[off>>3:])
		clearTail(dst, n, outLen)
		return outLen, nil
	}
	shift := off & 7
	src := b[off>>3:]
	for i := 0; i < outLen; i++ {
		v := src[i] << shift
		if i+1 < len(src) {
			v |= src[i+1] >> (8 - shift)
		}
		dst[i] = v
	}
	clearTail(dst, n, outLen)
	return outLen, nil
}

// View returns the byte-aligned sub-slice covering [off, off+n) when both
// endpoints are byte-aligned, letting callers operate in place with zero
// copies. ok is false for unaligned ranges.
func View(b []byte, off, n uint) (view []byte, ok bool) {
	if off&7 != 0 || n&7 != 0 {
		return nil, false
	}
	if Check(len(b), off, n) != nil {
		return nil, false
	}
	return b[off>>3 : (off+n)>>3], true
}

func clearTail(dst []byte, n uint, outLen int) {
	if rem := n & 7; rem != 0 && outLen > 0 {
		dst[outLen-1] &= ^byte(0) << (8 - rem)
	}
}
