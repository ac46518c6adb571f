// Package opt implements the OPT (Kim et al., SIGCOMM 2014) source-
// authentication and path-validation machinery DIP decomposes into
// F_parm, F_MAC, F_mark and F_ver (paper §3).
//
// The OPT state travels in the packet's FN-locations region with this
// layout (bit offsets match the paper's standalone-OPT FN triples):
//
//	bytes  0..16   DataHash   — hash of the payload
//	bytes 16..32   SessionID  — flow tag from key negotiation
//	bytes 32..36   Timestamp
//	bytes 36..52   PVF        — path verification field, updated per hop
//	bytes 52..52+16h  OPV[i]  — one per-hop validation tag
//
// Per-hop processing, in the order the FNs appear in the packet:
//
//	F_parm: K_i ← DRKey(SV_i, SessionID); load prev-validator label, hop index
//	F_MAC : OPV_i ← MAC_{K_i}(DataHash‖SessionID‖Timestamp‖PVF_{i-1} ‖ prevLabel)
//	F_mark: PVF_i ← MAC_{K_i}(PVF_{i-1})
//
// and the destination, which learned every K_i during session setup,
// re-derives the whole chain in F_ver. The MAC is pluggable: 2EM (the
// paper's Tofino-friendly choice) or AES-CMAC (the alternative it rejected
// for hardware reasons), selected per session.
package opt

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"dip/internal/cmac"
	"dip/internal/crypto2em"
)

// Field sizes and offsets within the OPT region, in bytes.
const (
	DataHashOff  = 0
	DataHashSize = 16
	SessionIDOff = 16
	SessionIDLen = 16
	TimestampOff = 32
	TimestampLen = 4
	PVFOff       = 36
	PVFSize      = 16
	OPVOff       = 52
	OPVSize      = 16

	// BaseSize is the region without OPV slots; MACInputSize is what F_MAC
	// and F_mark treat as the pre-OPV state (the paper's 416-bit operand).
	BaseSize     = OPVOff
	MACInputSize = OPVOff
)

// RegionSize returns the OPT region size for a path of h validating hops.
// The paper's evaluation uses h = 1, giving the 68-byte (544-bit) region
// behind Table 2's OPT row.
func RegionSize(hops int) int { return BaseSize + OPVSize*hops }

// RegionBits is RegionSize in bits, the length of the F_ver operand.
func RegionBits(hops int) int { return RegionSize(hops) * 8 }

// Errors from verification, distinguishable so tests and telemetry can tell
// which protection tripped.
var (
	ErrRegionSize  = errors.New("opt: region size mismatch")
	ErrDataHash    = errors.New("opt: payload hash mismatch")
	ErrPVF         = errors.New("opt: path verification field mismatch")
	ErrOPV         = errors.New("opt: per-hop validation tag mismatch")
	ErrUnknownKind = errors.New("opt: unknown MAC kind")
)

// Region is a view over an OPT region inside a packet buffer.
type Region struct{ b []byte }

// AsRegion wraps b (which must be at least BaseSize bytes) as a region.
func AsRegion(b []byte) (Region, error) {
	if len(b) < BaseSize {
		return Region{}, fmt.Errorf("%w: %d bytes < %d", ErrRegionSize, len(b), BaseSize)
	}
	return Region{b: b}, nil
}

// Hops returns how many OPV slots the region carries.
func (r Region) Hops() int { return (len(r.b) - BaseSize) / OPVSize }

// DataHash returns the payload-hash field view.
func (r Region) DataHash() []byte { return r.b[DataHashOff : DataHashOff+DataHashSize] }

// SessionID returns the session-ID field view.
func (r Region) SessionID() []byte { return r.b[SessionIDOff : SessionIDOff+SessionIDLen] }

// Timestamp returns the timestamp field view.
func (r Region) Timestamp() []byte { return r.b[TimestampOff : TimestampOff+TimestampLen] }

// PVF returns the path-verification-field view.
func (r Region) PVF() []byte { return r.b[PVFOff : PVFOff+PVFSize] }

// OPV returns hop i's validation-tag view; i must be < Hops().
func (r Region) OPV(i int) []byte { return r.b[OPVOff+i*OPVSize : OPVOff+(i+1)*OPVSize] }

// MACInput returns the region prefix MACed into OPVs (DataHash through PVF).
func (r Region) MACInput() []byte { return r.b[:MACInputSize] }

// ComputeDataHash writes the 16-byte payload hash (truncated SHA-256) into
// out, which must be DataHashSize long.
func ComputeDataHash(out, payload []byte) {
	if len(out) != DataHashSize {
		panic("opt: ComputeDataHash needs a 16-byte out")
	}
	sum := sha256.Sum256(payload)
	copy(out, sum[:DataHashSize])
}

// MAC is the tag primitive shared by 2EM and AES-CMAC instances.
type MAC interface {
	// SumInto writes the 16-byte tag of msg into out (exactly 16 bytes).
	SumInto(out, msg []byte)
}

// Kind selects the MAC algorithm for a session.
type Kind uint8

// MAC kinds: the paper's Tofino choice and the alternative it measured
// against.
const (
	Kind2EM Kind = iota
	KindAESCMAC
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Kind2EM:
		return "2EM"
	case KindAESCMAC:
		return "AES-CMAC"
	}
	return "kind(?)"
}

// NewMAC builds a MAC of the given kind from a 16-byte key.
func NewMAC(kind Kind, key []byte) (MAC, error) {
	switch kind {
	case Kind2EM:
		expanded, err := crypto2em.Expand(key)
		if err != nil {
			return nil, err
		}
		return crypto2em.New(expanded)
	case KindAESCMAC:
		return cmac.New(key)
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownKind, kind)
	}
}

// InitPVF seeds the chain at the source: PVF ← MAC_{K_D}(DataHash), binding
// the payload hash under the destination's session key.
func InitPVF(destMAC MAC, r Region) {
	destMAC.SumInto(r.PVF(), r.DataHash())
}

// UpdatePVF applies one hop's mark: PVF ← MAC_{K_i}(PVF), in place. This is
// the work of F_mark.
func UpdatePVF(hopMAC MAC, pvf []byte) {
	if len(pvf) != PVFSize {
		panic("opt: UpdatePVF needs the 16-byte PVF field")
	}
	var tmp [PVFSize]byte
	hopMAC.SumInto(tmp[:], pvf)
	copy(pvf, tmp[:])
}

// ComputeOPV writes hop i's validation tag: MAC_{K_i}(pre-OPV region state ‖
// prevLabel) into out. This is the work of F_MAC; it must run before the
// hop's F_mark so the tag covers PVF_{i-1}.
func ComputeOPV(hopMAC MAC, out, macInput, prevLabel []byte) {
	var msg [MACInputSize + 16]byte
	copy(msg[:], macInput)
	n := MACInputSize + copy(msg[MACInputSize:], prevLabel)
	hopMAC.SumInto(out, msg[:n])
}
