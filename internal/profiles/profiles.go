// Package profiles implements the host constructions of paper §3: the
// DIP-header compositions that realize each L3 protocol. A profile is
// nothing but a recipe for filling the FN-locations region and choosing FN
// triples — which is the paper's core claim, demonstrated here as code:
//
//	IP32/IP128   (loc:0,len:32,key:1)(loc:32,len:32,key:3) — and the 128-bit twins
//	NDN          interest (loc:0,len:32,key:4) / data (loc:0,len:32,key:5)
//	OPT          (128,128,6)(0,416,7)(288,128,8)(0,544,9·host)
//	NDN+OPT      FIB-or-PIT + the four OPT FNs shifted 32 bits
//	XIA          F_DAG + F_intent over an encoded DAG
//
// Every builder returns a core.Header whose WireSize reproduces the paper's
// Table 2 exactly (asserted by tests and by experiment E2).
package profiles

import (
	"encoding/binary"
	"fmt"

	"dip/internal/core"
	"dip/internal/extops"
	"dip/internal/opt"
	"dip/internal/xia"
)

// DefaultHopLimit matches common IP practice.
const DefaultHopLimit = 64

// IPv4 builds the DIP-32 forwarding header (Table 2: 26 bytes): destination
// in the lower 32 bits of the locations, source in the upper 32 bits
// (paper §3).
func IPv4(src, dst [4]byte) *core.Header {
	locs := make([]byte, 8)
	copy(locs[0:4], dst[:])
	copy(locs[4:8], src[:])
	return &core.Header{
		HopLimit: DefaultHopLimit,
		FNs: []core.FN{
			core.RouterFN(0, 32, core.KeyMatch32),
			core.RouterFN(32, 32, core.KeySource),
		},
		Locations: locs,
	}
}

// IPv6 builds the DIP-128 forwarding header (Table 2: 50 bytes).
func IPv6(src, dst [16]byte) *core.Header {
	locs := make([]byte, 32)
	copy(locs[0:16], dst[:])
	copy(locs[16:32], src[:])
	return &core.Header{
		HopLimit: DefaultHopLimit,
		FNs: []core.FN{
			core.RouterFN(0, 128, core.KeyMatch128),
			core.RouterFN(128, 128, core.KeySource),
		},
		Locations: locs,
	}
}

// NDNInterest builds the DIP-realized NDN interest (Table 2: 16 bytes):
// one F_FIB triple over the 32-bit content name — the triple
// (loc: 0, len: 32, key: 4) of paper §3.
func NDNInterest(name uint32) *core.Header {
	locs := make([]byte, 4)
	binary.BigEndian.PutUint32(locs, name)
	return &core.Header{
		HopLimit:  DefaultHopLimit,
		FNs:       []core.FN{core.RouterFN(0, 32, core.KeyFIB)},
		Locations: locs,
	}
}

// NDNData builds the DIP-realized NDN data packet: one F_PIT triple —
// (loc: 0, len: 32, key: 5). The content itself is the packet payload.
func NDNData(name uint32) *core.Header {
	locs := make([]byte, 4)
	binary.BigEndian.PutUint32(locs, name)
	return &core.Header{
		HopLimit:  DefaultHopLimit,
		FNs:       []core.FN{core.RouterFN(0, 32, core.KeyPIT)},
		Locations: locs,
	}
}

// OPT builds the standalone OPT header (Table 2: 98 bytes) for a packet
// carrying payload: the session's initialized 544-bit region in the
// locations and the paper's four FN triples — (128,128,6), (0,416,7),
// (288,128,8) router-tagged and (0,544,9) host-tagged. Multi-hop sessions
// grow the region and the F_ver operand by 128 bits per extra hop.
func OPT(sess *opt.Session, payload []byte, timestamp uint32) (*core.Header, error) {
	hops := sess.Hops()
	if hops < 1 {
		return nil, fmt.Errorf("profiles: OPT needs ≥ 1 hop, session has %d", hops)
	}
	locs := make([]byte, opt.RegionSize(hops))
	if err := sess.InitRegion(locs, payload, timestamp); err != nil {
		return nil, err
	}
	verBits := uint16(opt.RegionBits(hops))
	return &core.Header{
		HopLimit: DefaultHopLimit,
		FNs: []core.FN{
			core.RouterFN(opt.SessionIDOff*8, 128, core.KeyParm),
			core.RouterFN(0, opt.MACInputSize*8, core.KeyMAC),
			core.RouterFN(opt.PVFOff*8, 128, core.KeyMark),
			core.HostFN(0, verBits, core.KeyVer),
		},
		Locations: locs,
	}, nil
}

// NDNOPTData builds the derived NDN+OPT data packet (Table 2: 108 bytes):
// secure content delivery composing F_PIT with the four OPT FNs. The
// 32-bit content name occupies bits 0..32 of the locations and every OPT
// offset shifts by +32 — the composability the derived protocol rests on.
func NDNOPTData(sess *opt.Session, name uint32, payload []byte, timestamp uint32) (*core.Header, error) {
	hops := sess.Hops()
	if hops < 1 {
		return nil, fmt.Errorf("profiles: NDN+OPT needs ≥ 1 hop, session has %d", hops)
	}
	const shift = 4 // bytes the content name occupies before the OPT region
	locs := make([]byte, shift+opt.RegionSize(hops))
	binary.BigEndian.PutUint32(locs[:shift], name)
	if err := sess.InitRegion(locs[shift:], payload, timestamp); err != nil {
		return nil, err
	}
	verBits := uint16(opt.RegionBits(hops))
	return &core.Header{
		HopLimit: DefaultHopLimit,
		FNs: []core.FN{
			core.RouterFN(0, 32, core.KeyPIT),
			core.RouterFN(shift*8+opt.SessionIDOff*8, 128, core.KeyParm),
			core.RouterFN(shift*8, opt.MACInputSize*8, core.KeyMAC),
			core.RouterFN(shift*8+opt.PVFOff*8, 128, core.KeyMark),
			core.HostFN(shift*8, verBits, core.KeyVer),
		},
		Locations: locs,
	}, nil
}

// NDNOPTRegion returns the OPT region view inside an NDN+OPT locations
// slice (everything after the 4-byte name).
func NDNOPTRegion(locations []byte) []byte { return locations[4:] }

// XIA builds the XIA header: F_DAG and F_intent over the encoded address
// (paper §3: "set the header of XIA in the FN locations and use these two
// operation modules").
func XIA(dag *xia.DAG) (*core.Header, error) {
	locs := make([]byte, dag.WireSize())
	if _, err := dag.Encode(locs, xia.SourceIndex); err != nil {
		return nil, err
	}
	bits := uint16(len(locs) * 8)
	return &core.Header{
		HopLimit: DefaultHopLimit,
		FNs: []core.FN{
			core.RouterFN(0, bits, core.KeyDAG),
			core.RouterFN(0, bits, core.KeyIntent),
		},
		Locations: locs,
	}, nil
}

// WithTelemetry appends an F_tel in-band telemetry region to any profile
// header: a zeroed slot region (capacity `slots` hop records) joins the end
// of the locations — existing operand offsets are untouched, so the profile
// still parses and forwards identically — and the FN list gains the
// telemetry triple *after* the existing FNs, so each hop stamps its record
// once the match operation has already chosen the egress port. Routers
// without F_tel skip it per Algorithm 1 (PolicyIgnore): carrying telemetry
// through a non-INT hop is safe, the hop just leaves no record.
func WithTelemetry(h *core.Header, slots int) *core.Header {
	off := uint16(len(h.Locations) * 8)
	region := extops.NewTelRegion(slots)
	locs := make([]byte, 0, len(h.Locations)+len(region))
	locs = append(append(locs, h.Locations...), region...)
	out := *h
	out.Locations = locs
	out.FNs = append(append([]core.FN(nil), h.FNs...),
		core.RouterFN(off, extops.TelOperandBits(slots), extops.KeyTel))
	return &out
}

// TelemetryRegion locates the F_tel operand in a parsed view, returning the
// in-place region bytes, its byte offset in the locations, and whether the
// packet carries telemetry at all — the delivering edge's strip hook.
func TelemetryRegion(v core.View) (region []byte, off int, ok bool) {
	for i := 0; i < v.FNNum(); i++ {
		fn := v.FN(i)
		if fn.Key != extops.KeyTel || fn.Loc%8 != 0 || fn.Len%8 != 0 {
			continue
		}
		locs := v.Locations()
		o, n := int(fn.Loc)/8, int(fn.Len)/8
		if o+n <= len(locs) {
			return locs[o : o+n], o, true
		}
	}
	return nil, 0, false
}

// SourceOf extracts the source address recorded by an F_source FN, for
// reverse-path messaging. It returns nil when the header carries none.
func SourceOf(v core.View) []byte {
	for i := 0; i < v.FNNum(); i++ {
		fn := v.FN(i)
		if fn.Key == core.KeySource && fn.Loc%8 == 0 && fn.Len%8 == 0 {
			locs := v.Locations()
			off, n := int(fn.Loc)/8, int(fn.Len)/8
			if off+n <= len(locs) {
				return locs[off : off+n]
			}
		}
	}
	return nil
}
