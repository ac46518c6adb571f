package pisa

import (
	"bytes"
	"encoding/binary"
	"testing"

	"dip/internal/core"
	"dip/internal/drkey"
	"dip/internal/fib"
	"dip/internal/ops"
	"dip/internal/opt"
	"dip/internal/pit"
	"dip/internal/profiles"
)

func compiled(t *testing.T, cfg ops.Config) *Pipeline {
	t.Helper()
	pl, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func dipCfg(t *testing.T) ops.Config {
	t.Helper()
	sv, err := drkey.NewSecretValue("sw", bytes.Repeat([]byte{5}, 16))
	if err != nil {
		t.Fatal(err)
	}
	cfg := ops.Config{
		FIB32:   fib.New(),
		FIB128:  fib.New(),
		NameFIB: fib.New(),
		PIT:     pit.New[uint32](),
		Secret:  sv,
		MACKind: opt.Kind2EM,
	}
	cfg.FIB32.AddUint32(0x0A000000, 8, fib.NextHop{Port: 2})
	cfg.FIB32.AddUint32(0x0A000001, 32, fib.Local)
	pfx := make([]byte, 16)
	pfx[0] = 0x20
	cfg.FIB128.Add(pfx, 8, fib.NextHop{Port: 5})
	cfg.NameFIB.AddUint32(0xAA000000, 8, fib.NextHop{Port: 3})
	return cfg
}

func wire(t *testing.T, h *core.Header, payload []byte) []byte {
	t.Helper()
	b, err := h.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, payload...)
}

func TestDIP32Forwarding(t *testing.T) {
	pl := compiled(t, dipCfg(t))
	var phv PHV
	var md Metadata
	pkt := wire(t, profiles.IPv4([4]byte{1, 1, 1, 1}, [4]byte{10, 1, 2, 3}), []byte("pp"))
	out, err := pl.Process(pkt, 0, &phv, &md)
	if err != nil || md.Drop {
		t.Fatalf("md=%+v err=%v", md, err)
	}
	if md.NEgress != 1 || md.Egress[0] != 2 {
		t.Errorf("egress %v", md.Egress[:md.NEgress])
	}
	v, _ := core.ParseView(out)
	if v.HopLimit() != profiles.DefaultHopLimit-1 {
		t.Errorf("hop limit %d", v.HopLimit())
	}

	// Local delivery.
	pkt = wire(t, profiles.IPv4([4]byte{1, 1, 1, 1}, [4]byte{10, 0, 0, 1}), nil)
	_, _ = pl.Process(pkt, 0, &phv, &md)
	if !md.ToHost {
		t.Error("local not delivered")
	}

	// No route.
	pkt = wire(t, profiles.IPv4([4]byte{1, 1, 1, 1}, [4]byte{99, 0, 0, 1}), nil)
	_, _ = pl.Process(pkt, 0, &phv, &md)
	if !md.Drop || md.Reason != "no-route" {
		t.Errorf("md %+v", md)
	}
}

func TestDIP128Forwarding(t *testing.T) {
	pl := compiled(t, dipCfg(t))
	var phv PHV
	var md Metadata
	var src, dst [16]byte
	dst[0] = 0x20
	pkt := wire(t, profiles.IPv6(src, dst), nil)
	_, err := pl.Process(pkt, 0, &phv, &md)
	if err != nil || md.Drop || md.NEgress != 1 || md.Egress[0] != 5 {
		t.Errorf("md=%+v err=%v", md, err)
	}
}

func TestHopLimitDrop(t *testing.T) {
	pl := compiled(t, dipCfg(t))
	var phv PHV
	var md Metadata
	h := profiles.IPv4([4]byte{1, 1, 1, 1}, [4]byte{10, 0, 0, 9})
	h.HopLimit = 0
	_, _ = pl.Process(wire(t, h, nil), 0, &phv, &md)
	if !md.Drop || md.Reason != "hop-limit" {
		t.Errorf("md %+v", md)
	}
}

func TestNDNCycleOnPISA(t *testing.T) {
	pl := compiled(t, dipCfg(t))
	var phv PHV
	var md Metadata

	// Interest forwards upstream and installs PIT state.
	_, err := pl.Process(wire(t, profiles.NDNInterest(0xAA000001), nil), 7, &phv, &md)
	if err != nil || md.Drop || md.NEgress != 1 || md.Egress[0] != 3 {
		t.Fatalf("interest md=%+v err=%v", md, err)
	}
	// Second interest aggregates.
	_, _ = pl.Process(wire(t, profiles.NDNInterest(0xAA000001), nil), 8, &phv, &md)
	if !md.Absorbed || md.NEgress != 0 {
		t.Fatalf("aggregation md=%+v", md)
	}
	// Data fans out to both requesters.
	_, _ = pl.Process(wire(t, profiles.NDNData(0xAA000001), []byte("c")), 3, &phv, &md)
	if md.Drop || md.NEgress != 2 {
		t.Fatalf("data md=%+v", md)
	}
	// Duplicate data: PIT miss.
	_, _ = pl.Process(wire(t, profiles.NDNData(0xAA000001), []byte("c")), 3, &phv, &md)
	if !md.Drop || md.Reason != "pit-miss" {
		t.Errorf("dup md=%+v", md)
	}
}

// The PISA-compiled OPT hop must produce the same bytes as the software
// engine's ops and as native OPT — three realizations, one semantics.
func TestOPTOnPISAMatchesNative(t *testing.T) {
	cfg := dipCfg(t)
	cfg.PrevLabel[1] = 0x77
	pl := compiled(t, cfg)

	dst, _ := drkey.NewSecretValue("dst", bytes.Repeat([]byte{0xD}, 16))
	sess, err := opt.NewSession(opt.Kind2EM,
		[]opt.HopConfig{{Secret: cfg.Secret, PrevLabel: cfg.PrevLabel}}, dst)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("pisa-checked content")
	h, err := profiles.OPT(sess, payload, 5)
	if err != nil {
		t.Fatal(err)
	}
	nativeRegion := append([]byte(nil), h.Locations...)
	pkt := wire(t, h, payload)

	var phv PHV
	var md Metadata
	out, err := pl.Process(pkt, 0, &phv, &md)
	if err != nil || md.Drop {
		t.Fatalf("md=%+v err=%v", md, err)
	}
	opt.ProcessHop(opt.HopConfig{Secret: cfg.Secret, PrevLabel: cfg.PrevLabel}, opt.Kind2EM, nativeRegion)

	v, _ := core.ParseView(out)
	if !bytes.Equal(v.Locations(), nativeRegion) {
		t.Error("PISA OPT hop diverges from native OPT")
	}
	if err := sess.Verify(v.Locations(), payload); err != nil {
		t.Errorf("destination rejects PISA-processed packet: %v", err)
	}
}

func TestNDNOPTOnPISA(t *testing.T) {
	cfg := dipCfg(t)
	pl := compiled(t, cfg)
	dst, _ := drkey.NewSecretValue("dst", bytes.Repeat([]byte{0xD}, 16))
	sess, _ := opt.NewSession(opt.Kind2EM, []opt.HopConfig{{Secret: cfg.Secret}}, dst)

	// Install PIT state with an interest first.
	var phv PHV
	var md Metadata
	pl.Process(wire(t, profiles.NDNInterest(0xAA000009), nil), 4, &phv, &md)

	payload := []byte("secure named content")
	h, err := profiles.NDNOPTData(sess, 0xAA000009, payload, 9)
	if err != nil {
		t.Fatal(err)
	}
	out, err := pl.Process(wire(t, h, payload), 3, &phv, &md)
	if err != nil || md.Drop || md.NEgress != 1 || md.Egress[0] != 4 {
		t.Fatalf("md=%+v err=%v", md, err)
	}
	v, _ := core.ParseView(out)
	if err := sess.Verify(profiles.NDNOPTRegion(v.Locations()), payload); err != nil {
		t.Errorf("verification: %v", err)
	}
}

func TestUnknownKeyIgnored(t *testing.T) {
	pl := compiled(t, dipCfg(t))
	var phv PHV
	var md Metadata
	h := &core.Header{
		HopLimit: 3,
		FNs: []core.FN{
			core.RouterFN(0, 8, 99), // unknown key: ignored
			core.RouterFN(0, 32, core.KeyMatch32),
		},
		Locations: []byte{10, 0, 0, 9},
	}
	_, err := pl.Process(wire(t, h, nil), 0, &phv, &md)
	if err != nil || md.Drop || md.NEgress != 1 {
		t.Errorf("md=%+v err=%v", md, err)
	}
}

func TestHostTagSkipped(t *testing.T) {
	pl := compiled(t, dipCfg(t))
	var phv PHV
	var md Metadata
	h := &core.Header{
		HopLimit: 3,
		FNs: []core.FN{
			core.HostFN(0, 544, core.KeyVer), // host op: ignored by switch
			core.RouterFN(0, 32, core.KeyMatch32),
		},
		Locations: make([]byte, 68),
	}
	binary.BigEndian.PutUint32(h.Locations, 0x0A000009)
	_, err := pl.Process(wire(t, h, nil), 0, &phv, &md)
	if err != nil || md.Drop || md.NEgress != 1 {
		t.Errorf("md=%+v err=%v", md, err)
	}
}

func TestUnsupportedSliceDropped(t *testing.T) {
	pl := compiled(t, dipCfg(t))
	var phv PHV
	var md Metadata
	// A 32-bit match at a non-preset offset: the hardware constraint bites.
	h := &core.Header{
		HopLimit:  3,
		FNs:       []core.FN{core.RouterFN(8, 32, core.KeyMatch32)},
		Locations: make([]byte, 8),
	}
	_, _ = pl.Process(wire(t, h, nil), 0, &phv, &md)
	if !md.Drop || md.Reason != "unsupported-slice" {
		t.Errorf("md %+v", md)
	}
}

func TestParserRejectsOddRegion(t *testing.T) {
	pl := compiled(t, dipCfg(t))
	var phv PHV
	var md Metadata
	h := &core.Header{
		HopLimit:  3,
		FNs:       []core.FN{core.RouterFN(0, 8, core.KeyMatch32)},
		Locations: make([]byte, 5), // not 4-byte aligned
	}
	if _, err := pl.Process(wire(t, h, nil), 0, &phv, &md); err == nil {
		t.Error("odd region accepted")
	}
	h.Locations = make([]byte, MaxRegionBytes+4)
	if _, err := pl.Process(wire(t, h, nil), 0, &phv, &md); err == nil {
		t.Error("oversize region accepted")
	}
}

func TestExtraFNsBeyondBudgetSkipped(t *testing.T) {
	pl := compiled(t, dipCfg(t))
	var phv PHV
	var md Metadata
	fns := []core.FN{core.RouterFN(0, 32, core.KeyMatch32)}
	for i := 0; i < 6; i++ {
		fns = append(fns, core.HostFN(0, 8, core.KeyVer))
	}
	h := &core.Header{HopLimit: 3, FNs: fns, Locations: []byte{10, 0, 0, 9}}
	_, err := pl.Process(wire(t, h, nil), 0, &phv, &md)
	if err != nil || md.Drop || md.NEgress != 1 {
		t.Errorf("md=%+v err=%v", md, err)
	}
}

func TestPISAZeroAllocForwarding(t *testing.T) {
	pl := compiled(t, dipCfg(t))
	var phv PHV
	var md Metadata
	pkt := wire(t, profiles.IPv4([4]byte{1, 1, 1, 1}, [4]byte{10, 0, 0, 9}), nil)
	allocs := testing.AllocsPerRun(500, func() {
		pkt[3] = 64 // restore hop limit
		if _, err := pl.Process(pkt, 0, &phv, &md); err != nil || md.Drop {
			t.Fatal("processing failed")
		}
	})
	if allocs != 0 {
		t.Errorf("PISA DIP-32 forwarding allocates %.1f", allocs)
	}
}
