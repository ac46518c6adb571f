package dissect

import (
	"bytes"
	"strings"
	"testing"

	"dip/internal/core"
	"dip/internal/drkey"
	"dip/internal/opt"
	"dip/internal/profiles"
	"dip/internal/xia"
)

func render(t *testing.T, h *core.Header, payload []byte) string {
	t.Helper()
	pkt, err := h.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	pkt = append(pkt, payload...)
	var buf bytes.Buffer
	Packet(&buf, pkt)
	return buf.String()
}

func session(t *testing.T) *opt.Session {
	t.Helper()
	sv, _ := drkey.NewSecretValue("r", bytes.Repeat([]byte{1}, 16))
	dst, _ := drkey.NewSecretValue("d", bytes.Repeat([]byte{2}, 16))
	sess, err := opt.NewSession(opt.Kind2EM, []opt.HopConfig{{Secret: sv}}, dst)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

func TestDissectIPv4Profile(t *testing.T) {
	out := render(t, profiles.IPv4([4]byte{1, 2, 3, 4}, [4]byte{10, 7, 8, 9}), []byte("pp"))
	for _, want := range []string{
		"DIP-32 (IPv4-style)",
		"F_32_match",
		"destination:  10.7.8.9",
		"payload (2 bytes)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestDissectNDN(t *testing.T) {
	out := render(t, profiles.NDNInterest(0xAABBCCDD), nil)
	if !strings.Contains(out, "NDN interest") || !strings.Contains(out, "content name: 0xaabbccdd") {
		t.Errorf("got:\n%s", out)
	}
	out = render(t, profiles.NDNData(1), nil)
	if !strings.Contains(out, "NDN data") {
		t.Errorf("got:\n%s", out)
	}
}

func TestDissectOPTAndDerived(t *testing.T) {
	sess := session(t)
	h, err := profiles.OPT(sess, []byte("x"), 42)
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, h, []byte("x"))
	for _, want := range []string{"— OPT", "session ID:", "1 validating hop(s), timestamp 42", "host"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	hd, _ := profiles.NDNOPTData(sess, 5, []byte("x"), 1)
	if out := render(t, hd, []byte("x")); !strings.Contains(out, "NDN+OPT data") {
		t.Errorf("got:\n%s", out)
	}
	hi, _ := profiles.NDNOPTData(sess, 5, nil, 1)
	hi.FNs[0] = core.RouterFN(0, 32, core.KeyFIB) // the interest twin
	if out := render(t, hi, nil); !strings.Contains(out, "NDN+OPT interest") {
		t.Errorf("got:\n%s", out)
	}
}

func TestDissectXIA(t *testing.T) {
	dag := &xia.DAG{
		SrcEdges: []int{1, 0},
		Nodes: []xia.Node{
			{XID: xia.NewXID(xia.TypeAD, []byte("a")), Edges: []int{1}},
			{XID: xia.NewXID(xia.TypeCID, []byte("c"))},
		},
	}
	h, err := profiles.XIA(dag)
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, h, nil)
	if !strings.Contains(out, "— XIA") || !strings.Contains(out, "2 nodes, intent CID:") {
		t.Errorf("got:\n%s", out)
	}
	// XIA addressing with OPT authentication: the DAG first, the OPT
	// region after it, every OPT operand shifted past the DAG.
	o, err := profiles.OPT(session(t), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ho := &core.Header{HopLimit: h.HopLimit, FNs: h.FNs, Locations: append(h.Locations, o.Locations...)}
	for _, f := range o.FNs {
		f.Loc += uint16(len(h.Locations) * 8)
		ho.FNs = append(ho.FNs, f)
	}
	if out := render(t, ho, nil); !strings.Contains(out, "XIA+OPT (derived protocol)") {
		t.Errorf("got:\n%s", out)
	}
}

func TestDissectFNUnsupported(t *testing.T) {
	msg, err := profiles.BuildFNUnsupported([]byte{10, 0, 0, 1}, core.KeyMAC)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	Packet(&buf, msg)
	out := buf.String()
	if !strings.Contains(out, "FN-unsupported notification") || !strings.Contains(out, "unsupported operation: F_MAC") {
		t.Errorf("got:\n%s", out)
	}
}

func TestDissectGarbage(t *testing.T) {
	var buf bytes.Buffer
	Packet(&buf, []byte{1, 2, 3})
	if !strings.Contains(buf.String(), "not a DIP packet") {
		t.Errorf("got:\n%s", buf.String())
	}
	// Unknown composition.
	h := &core.Header{
		FNs:       []core.FN{core.RouterFN(0, 8, 99)},
		Locations: make([]byte, 1),
	}
	var buf2 bytes.Buffer
	pkt, _ := h.AppendTo(nil)
	Packet(&buf2, pkt)
	if !strings.Contains(buf2.String(), "custom composition") {
		t.Errorf("got:\n%s", buf2.String())
	}
	// Bare DIP and reserved bits.
	h2 := &core.Header{Reserved: 0x1F}
	var buf3 bytes.Buffer
	pkt2, _ := h2.AppendTo(nil)
	Packet(&buf3, pkt2)
	if !strings.Contains(buf3.String(), "bare DIP") || !strings.Contains(buf3.String(), "reserved:    0x1f") {
		t.Errorf("got:\n%s", buf3.String())
	}
}
