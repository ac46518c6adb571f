package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"dip/internal/bitfield"
)

// Wire-format constants. See DESIGN.md §2 for the layout rationale; the
// sizes are chosen so header overhead reproduces the paper's Table 2
// byte-for-byte.
const (
	// BasicHeaderSize is the fixed DIP basic header: version, next header,
	// FN number, hop limit, and the 16-bit packet parameter.
	BasicHeaderSize = 6
	// FNSize is the size of one FN definition triple on the wire.
	FNSize = 6
	// MaxFNs is the most FNs one packet may carry (FN number is one byte).
	MaxFNs = 255
	// MaxLocBytes is the largest FN-locations region: the packet parameter
	// dedicates ten bits to its length (paper §2.2).
	MaxLocBytes = 1023
	// Version is the only DIP header version this implementation speaks.
	Version = 1

	// tagBit marks an operation as host-executed in the wire key field.
	tagBit = 0x8000

	paramParallelBit = 15 // bit index of the parallel-execution flag
	paramLocShift    = 5  // FN-locations length occupies bits 14..5
	paramLocMask     = 0x3FF
)

// Errors from header encoding and decoding.
var (
	ErrTruncated   = errors.New("core: truncated DIP header")
	ErrVersion     = errors.New("core: unsupported DIP version")
	ErrHeaderShape = errors.New("core: invalid DIP header shape")
)

// FN is one parsed field operation: an operand location (bit offset and bit
// length within the FN-locations region) plus the operation key and the
// host/router tag.
type FN struct {
	Loc  uint16 // operand offset in bits
	Len  uint16 // operand length in bits
	Key  Key    // operation key (15 bits)
	Host bool   // true ⇒ host operation; routers skip it (Algorithm 1 line 5)
}

// String renders the FN triple as the paper writes it.
func (f FN) String() string {
	tag := ""
	if f.Host {
		tag = ", host"
	}
	return fmt.Sprintf("(loc: %d, len: %d, key: %s%s)", f.Loc, f.Len, f.Key, tag)
}

// HostFN is shorthand for an FN with the host tag set.
func HostFN(loc, length uint16, key Key) FN {
	return FN{Loc: loc, Len: length, Key: key, Host: true}
}

// RouterFN is shorthand for an FN with the host tag clear.
func RouterFN(loc, length uint16, key Key) FN {
	return FN{Loc: loc, Len: length, Key: key}
}

// Header is the builder-side representation of a DIP header. Hosts construct
// one, append the payload, and transmit; routers never build Headers on the
// forwarding path — they parse Views in place.
type Header struct {
	NextHeader uint8 // payload protocol, carried opaquely
	HopLimit   uint8
	Parallel   bool // packet-parameter bit: FNs may execute in parallel
	// Reserved carries the packet parameter's five reserved bits (paper
	// §2.2: "the remaining five bits are reserved for other use"); they are
	// preserved end to end so future uses survive today's routers.
	Reserved  uint8
	FNs       []FN
	Locations []byte // the shared operand region
}

// WireSize returns the encoded header length in bytes.
func (h *Header) WireSize() int {
	return BasicHeaderSize + FNSize*len(h.FNs) + len(h.Locations)
}

// Validate checks structural constraints: FN count and locations length fit
// their wire fields, every operand lies inside the locations region, and no
// FN uses the invalid key.
func (h *Header) Validate() error {
	if len(h.FNs) > MaxFNs {
		return fmt.Errorf("%w: %d FNs exceeds %d", ErrHeaderShape, len(h.FNs), MaxFNs)
	}
	if len(h.Locations) > MaxLocBytes {
		return fmt.Errorf("%w: locations %d bytes exceeds %d", ErrHeaderShape, len(h.Locations), MaxLocBytes)
	}
	if h.Reserved > 0x1F {
		return fmt.Errorf("%w: reserved bits %#x exceed 5 bits", ErrHeaderShape, h.Reserved)
	}
	for i, f := range h.FNs {
		if f.Key == KeyInvalid || f.Key > 0x7FFF {
			return fmt.Errorf("%w: FN %d has key %d", ErrHeaderShape, i, f.Key)
		}
		if err := bitfield.Check(len(h.Locations), uint(f.Loc), uint(f.Len)); err != nil {
			return fmt.Errorf("%w: FN %d operand: %v", ErrHeaderShape, i, err)
		}
	}
	return nil
}

// AppendTo encodes the header onto dst and returns the extended slice.
func (h *Header) AppendTo(dst []byte) ([]byte, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	var param uint16
	if h.Parallel {
		param |= 1 << paramParallelBit
	}
	param |= uint16(len(h.Locations)) << paramLocShift
	param |= uint16(h.Reserved)
	dst = append(dst, Version, h.NextHeader, byte(len(h.FNs)), h.HopLimit,
		byte(param>>8), byte(param))
	for _, f := range h.FNs {
		key := uint16(f.Key)
		if f.Host {
			key |= tagBit
		}
		dst = binary.BigEndian.AppendUint16(dst, f.Loc)
		dst = binary.BigEndian.AppendUint16(dst, f.Len)
		dst = binary.BigEndian.AppendUint16(dst, key)
	}
	return append(dst, h.Locations...), nil
}
