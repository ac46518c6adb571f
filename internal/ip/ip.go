// Package ip implements native IPv4 and IPv6 header processing and plain
// LPM forwarders. These are the baselines of the paper's Figure 2 ("the
// forwarding times of IPv4 and IPv6 packets are used as baselines") and the
// outer headers for tunneling DIP across legacy domains (§2.4).
//
// Parsing is in-place: a Header4/Header6 view aliases the packet buffer, and
// forwarding (TTL decrement + incremental checksum update for v4) mutates it
// directly, mirroring how the DIP fast path works.
package ip

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Protocol numbers used across the repository.
const (
	ProtoDIP = 0xFD // experimental: DIP-in-IP tunneling
	ProtoUDP = 17
)

// Header sizes (no IPv4 options: the forwarding prototype never emits them).
const (
	HeaderLen4 = 20
	HeaderLen6 = 40
)

// Errors from parsing.
var (
	ErrTruncated = errors.New("ip: truncated header")
	ErrVersion   = errors.New("ip: wrong IP version")
	ErrChecksum  = errors.New("ip: bad header checksum")
)

// Header4 is an in-place view of an IPv4 header without options.
type Header4 struct{ b []byte }

// Parse4 validates b as an IPv4 packet and returns a view over it.
func Parse4(b []byte) (Header4, error) {
	if len(b) < HeaderLen4 {
		return Header4{}, fmt.Errorf("%w: %d bytes", ErrTruncated, len(b))
	}
	if b[0]>>4 != 4 {
		return Header4{}, fmt.Errorf("%w: %d", ErrVersion, b[0]>>4)
	}
	ihl := int(b[0]&0xF) * 4
	if ihl != HeaderLen4 {
		return Header4{}, fmt.Errorf("%w: IHL %d unsupported", ErrVersion, ihl)
	}
	total := int(binary.BigEndian.Uint16(b[2:4]))
	if total > len(b) {
		return Header4{}, fmt.Errorf("%w: total length %d > %d", ErrTruncated, total, len(b))
	}
	if total < ihl {
		// A total length shorter than the header would make Payload's
		// bounds invert (fuzz-found: Decap panicked on such packets).
		return Header4{}, fmt.Errorf("%w: total length %d < header %d", ErrTruncated, total, ihl)
	}
	if checksum(b[:HeaderLen4]) != 0 {
		return Header4{}, ErrChecksum
	}
	return Header4{b: b}, nil
}

// Build4 writes an IPv4 header into dst (≥ 20 bytes) for a packet whose
// payload (everything after the header) is payloadLen bytes.
func Build4(dst []byte, src, dstAddr [4]byte, proto uint8, ttl uint8, payloadLen int) error {
	if len(dst) < HeaderLen4 {
		return fmt.Errorf("%w: dst %d bytes", ErrTruncated, len(dst))
	}
	total := HeaderLen4 + payloadLen
	if total > 0xFFFF {
		return fmt.Errorf("ip: total length %d exceeds 65535", total)
	}
	dst[0] = 4<<4 | 5
	dst[1] = 0
	binary.BigEndian.PutUint16(dst[2:4], uint16(total))
	binary.BigEndian.PutUint16(dst[4:6], 0) // ID
	binary.BigEndian.PutUint16(dst[6:8], 0) // flags/frag
	dst[8] = ttl
	dst[9] = proto
	dst[10], dst[11] = 0, 0
	copy(dst[12:16], src[:])
	copy(dst[16:20], dstAddr[:])
	binary.BigEndian.PutUint16(dst[10:12], checksum(dst[:HeaderLen4]))
	return nil
}

// Accessors. All alias the underlying buffer.

// Proto returns the payload protocol number.
func (h Header4) Proto() uint8 { return h.b[9] }

// Dst returns the destination address view.
func (h Header4) Dst() []byte { return h.b[16:20] }

// Payload returns the bytes after the header, bounded by the total length.
func (h Header4) Payload() []byte {
	total := int(binary.BigEndian.Uint16(h.b[2:4]))
	return h.b[HeaderLen4:total]
}

// DecTTL decrements the TTL with an incremental checksum fix-up (RFC 1624)
// and reports whether the packet may still be forwarded.
func (h Header4) DecTTL() bool {
	if h.b[8] == 0 {
		return false
	}
	h.b[8]--
	// Incremental update: TTL lives in the high byte of word 4.
	sum := uint32(^binary.BigEndian.Uint16(h.b[10:12]))
	sum += 0xFEFF // ^0x0100 as ones-complement subtraction of 0x0100
	sum = (sum & 0xFFFF) + sum>>16
	sum = (sum & 0xFFFF) + sum>>16
	binary.BigEndian.PutUint16(h.b[10:12], ^uint16(sum))
	return true
}

// checksum computes the RFC 791 ones-complement header checksum; over a
// header with a correct checksum field it yields zero.
func checksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// Header6 is an in-place view of an IPv6 fixed header.
type Header6 struct{ b []byte }

// Parse6 validates b as an IPv6 packet and returns a view over it.
func Parse6(b []byte) (Header6, error) {
	if len(b) < HeaderLen6 {
		return Header6{}, fmt.Errorf("%w: %d bytes", ErrTruncated, len(b))
	}
	if b[0]>>4 != 6 {
		return Header6{}, fmt.Errorf("%w: %d", ErrVersion, b[0]>>4)
	}
	if HeaderLen6+int(binary.BigEndian.Uint16(b[4:6])) > len(b) {
		return Header6{}, fmt.Errorf("%w: payload length %d", ErrTruncated,
			binary.BigEndian.Uint16(b[4:6]))
	}
	return Header6{b: b}, nil
}

// Build6 writes an IPv6 header into dst (≥ 40 bytes).
func Build6(dst []byte, src, dstAddr [16]byte, next uint8, hopLimit uint8, payloadLen int) error {
	if len(dst) < HeaderLen6 {
		return fmt.Errorf("%w: dst %d bytes", ErrTruncated, len(dst))
	}
	if payloadLen > 0xFFFF {
		return fmt.Errorf("ip: payload length %d exceeds 65535", payloadLen)
	}
	dst[0] = 6 << 4
	dst[1], dst[2], dst[3] = 0, 0, 0
	binary.BigEndian.PutUint16(dst[4:6], uint16(payloadLen))
	dst[6] = next
	dst[7] = hopLimit
	copy(dst[8:24], src[:])
	copy(dst[24:40], dstAddr[:])
	return nil
}

// HopLimit returns the remaining hop budget.
func (h Header6) HopLimit() uint8 { return h.b[7] }

// Next returns the next-header protocol number.
func (h Header6) Next() uint8 { return h.b[6] }

// Dst returns the destination address view.
func (h Header6) Dst() []byte { return h.b[24:40] }

// Payload returns the bytes after the header, bounded by the payload length.
func (h Header6) Payload() []byte {
	n := int(binary.BigEndian.Uint16(h.b[4:6]))
	return h.b[HeaderLen6 : HeaderLen6+n]
}

// DecHopLimit decrements the hop limit and reports whether the packet may
// still be forwarded.
func (h Header6) DecHopLimit() bool {
	if h.b[7] == 0 {
		return false
	}
	h.b[7]--
	return true
}
