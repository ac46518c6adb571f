package profiles

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"dip/internal/core"
	"dip/internal/drkey"
	"dip/internal/extops"
	"dip/internal/ip"
	"dip/internal/ndn"
	"dip/internal/opt"
	"dip/internal/xia"
)

func session(t *testing.T, hops int) *opt.Session {
	t.Helper()
	cfgs := make([]opt.HopConfig, hops)
	for i := range cfgs {
		sv, err := drkey.NewSecretValue("r", bytes.Repeat([]byte{byte(i + 1)}, 16))
		if err != nil {
			t.Fatal(err)
		}
		cfgs[i] = opt.HopConfig{Secret: sv, HopIndex: uint8(i)}
	}
	dst, _ := drkey.NewSecretValue("dst", bytes.Repeat([]byte{0xDD}, 16))
	s, err := opt.NewSession(opt.Kind2EM, cfgs, dst)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestTable2HeaderSizes is experiment E2: every row of the paper's Table 2,
// byte for byte.
func TestTable2HeaderSizes(t *testing.T) {
	sess := session(t, 1)
	optHdr, err := OPT(sess, []byte("x"), 0)
	if err != nil {
		t.Fatal(err)
	}
	ndnOptHdr, err := NDNOPTData(sess, 1, []byte("x"), 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		name string
		got  int
		want int
	}{
		{"IPv6 forwarding (native)", ip.HeaderLen6, 40},
		{"IPv4 forwarding (native)", ip.HeaderLen4, 20},
		{"DIP-128 forwarding", IPv6([16]byte{}, [16]byte{}).WireSize(), 50},
		{"DIP-32 forwarding", IPv4([4]byte{}, [4]byte{}).WireSize(), 26},
		{"NDN forwarding", NDNInterest(1).WireSize(), 16},
		{"OPT forwarding", optHdr.WireSize(), 98},
		{"NDN+OPT forwarding", ndnOptHdr.WireSize(), 108},
	}
	for _, r := range rows {
		if r.got != r.want {
			t.Errorf("%s: %d bytes, want %d", r.name, r.got, r.want)
		}
	}
	// The native NDN header also measures 16 bytes.
	if ndn.HeaderSize != 16 {
		t.Errorf("native NDN header = %d", ndn.HeaderSize)
	}
	// NDN data packets carry the same single-FN shape as interests.
	if NDNData(1).WireSize() != 16 {
		t.Errorf("NDN data = %d", NDNData(1).WireSize())
	}
}

func TestIPv4ProfileLayout(t *testing.T) {
	h := IPv4([4]byte{1, 2, 3, 4}, [4]byte{5, 6, 7, 8})
	if !bytes.Equal(h.Locations[0:4], []byte{5, 6, 7, 8}) {
		t.Error("destination must occupy the lower 32 bits")
	}
	if !bytes.Equal(h.Locations[4:8], []byte{1, 2, 3, 4}) {
		t.Error("source must occupy the upper 32 bits")
	}
	// The paper's triples: (loc:0,len:32,key:1) and (loc:32,len:32,key:3).
	want0 := core.RouterFN(0, 32, core.KeyMatch32)
	want1 := core.RouterFN(32, 32, core.KeySource)
	if h.FNs[0] != want0 || h.FNs[1] != want1 {
		t.Errorf("FNs = %v", h.FNs)
	}
	if err := h.Validate(); err != nil {
		t.Error(err)
	}
}

func TestIPv6ProfileLayout(t *testing.T) {
	var src, dst [16]byte
	src[0], dst[0] = 0xAA, 0xBB
	h := IPv6(src, dst)
	if h.Locations[0] != 0xBB || h.Locations[16] != 0xAA {
		t.Error("layout: dst low, src high")
	}
	want0 := core.RouterFN(0, 128, core.KeyMatch128)
	want1 := core.RouterFN(128, 128, core.KeySource)
	if h.FNs[0] != want0 || h.FNs[1] != want1 {
		t.Errorf("FNs = %v", h.FNs)
	}
}

func TestOPTProfileTriples(t *testing.T) {
	sess := session(t, 1)
	h, err := OPT(sess, []byte("payload"), 99)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's §3 OPT triples.
	want := []core.FN{
		core.RouterFN(128, 128, core.KeyParm),
		core.RouterFN(0, 416, core.KeyMAC),
		core.RouterFN(288, 128, core.KeyMark),
		core.HostFN(0, 544, core.KeyVer),
	}
	if len(h.FNs) != 4 {
		t.Fatalf("FNs = %v", h.FNs)
	}
	for i := range want {
		if h.FNs[i] != want[i] {
			t.Errorf("FN %d = %v, want %v", i, h.FNs[i], want[i])
		}
	}
	// The region was initialized: session ID present.
	r, _ := opt.AsRegion(h.Locations)
	if !bytes.Equal(r.SessionID(), sess.ID[:]) {
		t.Error("session ID not in region")
	}
	if err := h.Validate(); err != nil {
		t.Error(err)
	}
}

func TestOPTMultiHopGrows(t *testing.T) {
	sess := session(t, 3)
	h, err := OPT(sess, []byte("p"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Locations) != opt.RegionSize(3) {
		t.Errorf("locations = %d", len(h.Locations))
	}
	if h.FNs[3].Len != uint16(opt.RegionBits(3)) {
		t.Errorf("F_ver operand = %d bits", h.FNs[3].Len)
	}
}

func TestNDNOPTLayoutShift(t *testing.T) {
	sess := session(t, 1)
	h, err := NDNOPTData(sess, 0xCAFE0001, []byte("c"), 5)
	if err != nil {
		t.Fatal(err)
	}
	if binary.BigEndian.Uint32(h.Locations[:4]) != 0xCAFE0001 {
		t.Error("name not at bits 0..32")
	}
	// Every OPT FN shifted by +32 bits.
	if h.FNs[1] != core.RouterFN(32+128, 128, core.KeyParm) {
		t.Errorf("parm = %v", h.FNs[1])
	}
	if h.FNs[2] != core.RouterFN(32, 416, core.KeyMAC) {
		t.Errorf("mac = %v", h.FNs[2])
	}
	if h.FNs[3] != core.RouterFN(32+288, 128, core.KeyMark) {
		t.Errorf("mark = %v", h.FNs[3])
	}
	if h.FNs[4] != core.HostFN(32, 544, core.KeyVer) {
		t.Errorf("ver = %v", h.FNs[4])
	}
	if h.FNs[0] != core.RouterFN(0, 32, core.KeyPIT) {
		t.Errorf("pit = %v", h.FNs[0])
	}
	region := NDNOPTRegion(h.Locations)
	r, _ := opt.AsRegion(region)
	if !bytes.Equal(r.SessionID(), sess.ID[:]) {
		t.Error("session ID misplaced after shift")
	}
}

func TestOPTRequiresHops(t *testing.T) {
	dst, _ := drkey.NewSecretValue("d", bytes.Repeat([]byte{1}, 16))
	sess, err := opt.NewSession(opt.Kind2EM, nil, dst)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OPT(sess, nil, 0); err == nil {
		t.Error("0-hop OPT accepted")
	}
	if _, err := NDNOPTData(sess, 1, nil, 0); err == nil {
		t.Error("0-hop NDN+OPT accepted")
	}
}

func TestXIAProfile(t *testing.T) {
	d := &xia.DAG{
		SrcEdges: []int{1, 0},
		Nodes: []xia.Node{
			{XID: xia.NewXID(xia.TypeAD, []byte("a")), Edges: []int{1}},
			{XID: xia.NewXID(xia.TypeSID, []byte("s"))},
		},
	}
	h, err := XIA(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.FNs) != 2 || h.FNs[0].Key != core.KeyDAG || h.FNs[1].Key != core.KeyIntent {
		t.Errorf("FNs = %v", h.FNs)
	}
	got, last, _, err := xia.Decode(h.Locations)
	if err != nil || last != xia.SourceIndex || !reflect.DeepEqual(got, d) {
		t.Errorf("encoded DAG: %v %d", err, last)
	}
	if err := h.Validate(); err != nil {
		t.Error(err)
	}
}

func TestWithPass(t *testing.T) {
	var label [16]byte
	label[0] = 0xEE
	base := NDNData(7)
	h := WithPass(base, 7, label)
	if h.FNs[0].Key != core.KeyPass || h.FNs[0].Len != 160 {
		t.Errorf("guard FN = %v", h.FNs[0])
	}
	if h.FNs[1].Key != core.KeyPIT {
		t.Errorf("original FN lost: %v", h.FNs)
	}
	off := len(base.Locations)
	if binary.BigEndian.Uint32(h.Locations[off:]) != 7 || h.Locations[off+4] != 0xEE {
		t.Error("guard operand layout")
	}
	if err := h.Validate(); err != nil {
		t.Error(err)
	}
	// The base header must be untouched.
	if len(base.FNs) != 1 || len(base.Locations) != 4 {
		t.Error("WithPass mutated its input")
	}
}

// TestWithTelemetryRoundTripsTable2 splices F_tel onto every shipped
// profile and checks each still reproduces its Table 2 cost row exactly,
// plus the known telemetry overhead — and that the result marshals, parses,
// validates, and exposes its region to the delivering edge.
func TestWithTelemetryRoundTripsTable2(t *testing.T) {
	sess := session(t, 1)
	optHdr, err := OPT(sess, []byte("x"), 0)
	if err != nil {
		t.Fatal(err)
	}
	ndnOptHdr, err := NDNOPTData(sess, 1, []byte("x"), 0)
	if err != nil {
		t.Fatal(err)
	}
	// The interest twin: the same layout with F_FIB in the name's FN.
	ndnOptIntr, err := NDNOPTData(sess, 1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ndnOptIntr.FNs[0] = core.RouterFN(0, 32, core.KeyFIB)
	xiaHdr, err := XIA(&xia.DAG{
		SrcEdges: []int{0},
		Nodes:    []xia.Node{{XID: xia.NewXID(xia.TypeSID, []byte("s"))}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		name string
		h    *core.Header
		base int // Table 2 row; 0 = no fixed row, measure
	}{
		{"DIP-32", IPv4([4]byte{1, 2, 3, 4}, [4]byte{5, 6, 7, 8}), 26},
		{"DIP-128", IPv6([16]byte{}, [16]byte{}), 50},
		{"NDN interest", NDNInterest(1), 16},
		{"NDN data", NDNData(1), 16},
		{"OPT", optHdr, 98},
		{"NDN+OPT data", ndnOptHdr, 108},
		{"NDN+OPT interest", ndnOptIntr, 0},
		{"XIA", xiaHdr, 0},
	}
	const slots = 8
	telBytes := 4 + slots*extops.TelSlotSize
	for _, r := range rows {
		base := r.base
		if base == 0 {
			base = r.h.WireSize()
		} else if r.h.WireSize() != base {
			t.Errorf("%s: base %d bytes, want Table 2's %d", r.name, r.h.WireSize(), base)
			continue
		}
		baseFNs, baseLocs := len(r.h.FNs), len(r.h.Locations)
		ht := WithTelemetry(r.h, slots)
		if got, want := ht.WireSize(), base+core.FNSize+telBytes; got != want {
			t.Errorf("%s+tel: %d bytes, want %d", r.name, got, want)
		}
		if err := ht.Validate(); err != nil {
			t.Errorf("%s+tel: %v", r.name, err)
			continue
		}
		b, err := ht.AppendTo(nil)
		if err != nil {
			t.Errorf("%s+tel marshal: %v", r.name, err)
			continue
		}
		v, err := core.ParseView(b)
		if err != nil {
			t.Errorf("%s+tel parse: %v", r.name, err)
			continue
		}
		region, off, ok := TelemetryRegion(v)
		if !ok || off != baseLocs || len(region) != telBytes {
			t.Errorf("%s+tel region: ok=%v off=%d len=%d", r.name, ok, off, len(region))
		}
		want := core.RouterFN(uint16(baseLocs*8), extops.TelOperandBits(slots), extops.KeyTel)
		if ht.FNs[len(ht.FNs)-1] != want {
			t.Errorf("%s+tel FN = %v, want %v (appended last)", r.name, ht.FNs[len(ht.FNs)-1], want)
		}
		if len(r.h.FNs) != baseFNs || len(r.h.Locations) != baseLocs {
			t.Errorf("%s: WithTelemetry mutated its input", r.name)
		}
	}
}

func TestSourceOf(t *testing.T) {
	h := IPv4([4]byte{9, 9, 9, 9}, [4]byte{1, 1, 1, 1})
	b, _ := h.AppendTo(nil)
	v, _ := core.ParseView(b)
	src := SourceOf(v)
	if !bytes.Equal(src, []byte{9, 9, 9, 9}) {
		t.Errorf("SourceOf = %v", src)
	}
	// No F_source FN → nil.
	b2, _ := NDNInterest(1).AppendTo(nil)
	v2, _ := core.ParseView(b2)
	if SourceOf(v2) != nil {
		t.Error("SourceOf without F_source")
	}
}

// WithPass prepends an F_pass source-label guard to an NDN-style header:
// the label region ([name 32b][label 128b]) is appended to the locations
// and the FN list gains the guard triple. Producers stamp the label with
// ops.StampLabel before sending.
func WithPass(h *core.Header, name uint32, label [16]byte) *core.Header {
	off := uint16(len(h.Locations) * 8)
	locs := make([]byte, len(h.Locations)+20)
	copy(locs, h.Locations)
	binary.BigEndian.PutUint32(locs[len(h.Locations):], name)
	copy(locs[len(h.Locations)+4:], label[:])
	out := *h
	out.Locations = locs
	out.FNs = append(append([]core.FN(nil), core.RouterFN(off, 160, core.KeyPass)), h.FNs...)
	return &out
}
