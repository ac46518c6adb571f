package core

import (
	"encoding/binary"
	"fmt"
)

// View is a zero-copy parse of a DIP packet. It aliases the buffer it was
// parsed from: reads see the packet as received and writes (hop-limit
// updates, operation modules mutating their operands) modify the packet in
// place, which is the entire point of FN locations. A View contains no
// pointers beyond the buffer itself and is four words, so the compiler keeps
// a copy in registers instead of moving it through the stack.
type View struct {
	b      []byte // whole packet: basic header ‖ FN defs ‖ locations ‖ payload
	fnNum  uint8
	locLen uint16
}

// ParseView validates the framing of b as a DIP packet and returns a view
// over it. Only structure is validated (version, lengths, operand bounds);
// semantic checks belong to the operations themselves. The forwarding path
// parses with ExecContext.Load instead, which runs the same parser straight
// into its context.
func ParseView(b []byte) (View, error) {
	var v View
	err := v.parse(b, nil)
	return v, err
}

// parse is the one DIP parser behind ParseView and ExecContext.Load. It
// validates every triple once, so operations can trust bounds and the engine
// can trust keys, and only then points v at b. With fns non-nil it also
// leaves each triple decoded there in wire order. On error v is untouched and
// fns may hold a prefix of the triples.
func (v *View) parse(b []byte, fns *[MaxFNs]FN) error {
	if len(b) < BasicHeaderSize {
		return fmt.Errorf("%w: %d bytes", ErrTruncated, len(b))
	}
	if b[0] != Version {
		return fmt.Errorf("%w: %d", ErrVersion, b[0])
	}
	fnNum := int(b[2])
	param := binary.BigEndian.Uint16(b[4:6])
	locLen := int(param >> paramLocShift & paramLocMask)
	hdrLen := BasicHeaderSize + FNSize*fnNum + locLen
	if len(b) < hdrLen {
		return fmt.Errorf("%w: header needs %d bytes, have %d", ErrTruncated, hdrLen, len(b))
	}
	locBits := uint(locLen) * 8
	for i := 0; i < fnNum; i++ {
		fn := fnAt(b, BasicHeaderSize+FNSize*i)
		if loc, n := uint(fn.Loc), uint(fn.Len); loc > locBits || n > locBits-loc {
			return fmt.Errorf("%w: FN %d operand [%d,+%d) outside %d location bits",
				ErrHeaderShape, i, loc, n, locBits)
		}
		if fn.Key == KeyInvalid {
			return fmt.Errorf("%w: FN %d has the invalid key 0", ErrHeaderShape, i)
		}
		if fns != nil {
			fns[i] = fn
		}
	}
	*v = View{b: b, fnNum: uint8(fnNum), locLen: uint16(locLen)}
	return nil
}

// fnAt decodes the FN triple at byte offset off of a packet.
func fnAt(b []byte, off int) FN {
	t := b[off : off+FNSize]
	key := binary.BigEndian.Uint16(t[4:])
	return FN{
		Loc:  binary.BigEndian.Uint16(t[0:]),
		Len:  binary.BigEndian.Uint16(t[2:]),
		Key:  Key(key &^ tagBit),
		Host: key&tagBit != 0,
	}
}

// NextHeader returns the payload protocol number.
func (v View) NextHeader() uint8 { return v.b[1] }

// FNNum returns the number of FN definitions carried.
func (v View) FNNum() int { return int(v.fnNum) }

// HopLimit returns the remaining hop budget.
func (v View) HopLimit() uint8 { return v.b[3] }

// DecHopLimit decrements the hop limit in place and reports whether the
// packet may still be forwarded (false when the limit was already zero).
func (v View) DecHopLimit() bool {
	if v.b[3] == 0 {
		return false
	}
	v.b[3]--
	return true
}

// Parallel reports the packet-parameter parallel-execution flag.
func (v View) Parallel() bool {
	return binary.BigEndian.Uint16(v.b[4:6])>>paramParallelBit&1 == 1
}

// Reserved returns the packet parameter's five reserved bits.
func (v View) Reserved() uint8 {
	return uint8(binary.BigEndian.Uint16(v.b[4:6]) & 0x1F)
}

// FN decodes the i-th FN definition. i must be in [0, FNNum()).
func (v View) FN(i int) FN { return fnAt(v.b, BasicHeaderSize+FNSize*i) }

// Locations returns the FN-locations region, aliasing the packet buffer so
// operations mutate the packet directly.
func (v View) Locations() []byte {
	off, end := BasicHeaderSize+FNSize*int(v.fnNum), v.HeaderLen()
	return v.b[off:end:end]
}

// FlowRegion returns the FN-locations bytes of a structurally plausible
// DIP packet without a full parse, or nil when b is not DIP-shaped (wrong
// version, truncated header, empty locations). It is the flow-dispatch key
// region: every address, name, and tag a packet carries lives in its
// locations, so hashing them collapses the packets of one conversation to
// one key regardless of which protocol the FN list composes. Unlike
// ParseView it never allocates (no error values) — it is called on the
// ingress fast path for every submitted packet.
func FlowRegion(b []byte) []byte {
	if len(b) < BasicHeaderSize || b[0] != Version {
		return nil
	}
	fnNum := int(b[2])
	locLen := int(b[4])<<8 | int(b[5])
	locLen = locLen >> paramLocShift & paramLocMask
	off := BasicHeaderSize + FNSize*fnNum
	if locLen == 0 || off+locLen > len(b) {
		return nil
	}
	return b[off : off+locLen]
}

// HeaderLen returns the total encoded header length.
func (v View) HeaderLen() int {
	return BasicHeaderSize + FNSize*int(v.fnNum) + int(v.locLen)
}

// Payload returns the bytes after the DIP header.
func (v View) Payload() []byte { return v.b[v.HeaderLen():] }

// Packet returns the entire underlying buffer.
func (v View) Packet() []byte { return v.b }

// String summarizes the header for diagnostics (not on the hot path).
func (v View) String() string {
	s := fmt.Sprintf("DIP{next: %d, hop: %d, parallel: %v, locLen: %d, FNs:",
		v.NextHeader(), v.HopLimit(), v.Parallel(), v.locLen)
	for i := 0; i < v.FNNum(); i++ {
		s += " " + v.FN(i).String()
	}
	return s + "}"
}
