package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := &Header{
		NextHeader: 17,
		HopLimit:   64,
		Parallel:   true,
		FNs: []FN{
			RouterFN(0, 32, KeyMatch32),
			HostFN(32, 32, KeySource),
		},
		Locations: []byte{10, 0, 0, 1, 192, 168, 0, 1},
	}
	b, err := h.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != h.WireSize() {
		t.Errorf("encoded %d bytes, WireSize says %d", len(b), h.WireSize())
	}
	v, err := ParseView(b)
	if err != nil {
		t.Fatal(err)
	}
	got := builderOf(v)
	if got.NextHeader != 17 || got.HopLimit != 64 || !got.Parallel {
		t.Errorf("basic fields: %+v", got)
	}
	if len(got.FNs) != 2 || got.FNs[0] != h.FNs[0] || got.FNs[1] != h.FNs[1] {
		t.Errorf("FNs: %v", got.FNs)
	}
	if !bytes.Equal(got.Locations, h.Locations) {
		t.Errorf("locations: % x", got.Locations)
	}
}

// builderOf decodes a parsed header back into builder form, copying the
// locations region.
func builderOf(v View) *Header {
	h := &Header{
		NextHeader: v.NextHeader(),
		HopLimit:   v.HopLimit(),
		Parallel:   v.Parallel(),
		Reserved:   v.Reserved(),
		FNs:        make([]FN, v.FNNum()),
		Locations:  append([]byte(nil), v.Locations()...),
	}
	for i := range h.FNs {
		h.FNs[i] = v.FN(i)
	}
	return h
}

// Table 2 at the wire-format level: the sizes that make the paper's header
// overhead reproduce exactly.
func TestWireSizesMatchTable2Building(t *testing.T) {
	dip32 := &Header{
		FNs: []FN{
			RouterFN(0, 32, KeyMatch32),
			RouterFN(32, 32, KeySource),
		},
		Locations: make([]byte, 8),
	}
	if got := dip32.WireSize(); got != 26 {
		t.Errorf("DIP-32 = %d bytes, want 26", got)
	}
	dip128 := &Header{
		FNs: []FN{
			RouterFN(0, 128, KeyMatch128),
			RouterFN(128, 128, KeySource),
		},
		Locations: make([]byte, 32),
	}
	if got := dip128.WireSize(); got != 50 {
		t.Errorf("DIP-128 = %d bytes, want 50", got)
	}
	ndnInterest := &Header{
		FNs:       []FN{RouterFN(0, 32, KeyFIB)},
		Locations: make([]byte, 4),
	}
	if got := ndnInterest.WireSize(); got != 16 {
		t.Errorf("NDN = %d bytes, want 16", got)
	}
	opt := &Header{
		FNs: []FN{
			RouterFN(128, 128, KeyParm),
			RouterFN(0, 416, KeyMAC),
			RouterFN(288, 128, KeyMark),
			HostFN(0, 544, KeyVer),
		},
		Locations: make([]byte, 68),
	}
	if got := opt.WireSize(); got != 98 {
		t.Errorf("OPT = %d bytes, want 98", got)
	}
	ndnOpt := &Header{
		FNs: []FN{
			RouterFN(0, 32, KeyFIB),
			RouterFN(160, 128, KeyParm),
			RouterFN(32, 416, KeyMAC),
			RouterFN(320, 128, KeyMark),
			HostFN(32, 544, KeyVer),
		},
		Locations: make([]byte, 72),
	}
	if got := ndnOpt.WireSize(); got != 108 {
		t.Errorf("NDN+OPT = %d bytes, want 108", got)
	}
}

func TestValidateRejectsBadShapes(t *testing.T) {
	cases := []struct {
		name string
		h    Header
	}{
		{"operand past locations", Header{FNs: []FN{RouterFN(0, 65, KeyMatch32)}, Locations: make([]byte, 8)}},
		{"operand offset past locations", Header{FNs: []FN{RouterFN(65, 0, KeyMatch32)}, Locations: make([]byte, 8)}},
		{"invalid key", Header{FNs: []FN{RouterFN(0, 8, KeyInvalid)}, Locations: make([]byte, 1)}},
		{"key above 15 bits", Header{FNs: []FN{RouterFN(0, 8, 0x8000)}, Locations: make([]byte, 1)}},
		{"locations too long", Header{Locations: make([]byte, MaxLocBytes+1)}},
	}
	for _, c := range cases {
		if err := c.h.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", c.name)
		}
		if _, err := c.h.AppendTo(nil); err == nil {
			t.Errorf("%s: AppendTo accepted", c.name)
		}
	}
	tooMany := Header{FNs: make([]FN, MaxFNs+1)}
	for i := range tooMany.FNs {
		tooMany.FNs[i] = RouterFN(0, 0, KeyFIB)
	}
	if err := tooMany.Validate(); err == nil {
		t.Error("256 FNs accepted")
	}
}

func TestParseViewErrors(t *testing.T) {
	if _, err := ParseView(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("nil: %v", err)
	}
	if _, err := ParseView(make([]byte, 5)); !errors.Is(err, ErrTruncated) {
		t.Errorf("5 bytes: %v", err)
	}
	good, _ := (&Header{FNs: []FN{RouterFN(0, 32, KeyMatch32)}, Locations: make([]byte, 4)}).AppendTo(nil)
	bad := append([]byte(nil), good...)
	bad[0] = 9
	if _, err := ParseView(bad); !errors.Is(err, ErrVersion) {
		t.Errorf("bad version: %v", err)
	}
	if _, err := ParseView(good[:len(good)-1]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated locations: %v", err)
	}
	// Corrupt the FN operand to point outside locations.
	bad = append([]byte(nil), good...)
	bad[BasicHeaderSize+2] = 0xFF // FieldLen high byte
	if _, err := ParseView(bad); !errors.Is(err, ErrHeaderShape) {
		t.Errorf("operand out of range: %v", err)
	}
}

func TestViewAccessors(t *testing.T) {
	h := &Header{
		NextHeader: 6,
		HopLimit:   3,
		FNs:        []FN{RouterFN(0, 16, KeyFIB), HostFN(16, 16, KeyVer)},
		Locations:  []byte{1, 2, 3, 4},
	}
	b, _ := h.AppendTo(nil)
	payload := []byte("data")
	pkt := append(b, payload...)
	v, err := ParseView(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Valid() {
		t.Error("Valid() = false")
	}
	if v.NextHeader() != 6 || v.HopLimit() != 3 || v.Parallel() || v.FNNum() != 2 {
		t.Errorf("basic accessors wrong: %s", v)
	}
	if v.FN(0) != h.FNs[0] || v.FN(1) != h.FNs[1] {
		t.Errorf("FN accessors: %v %v", v.FN(0), v.FN(1))
	}
	if !bytes.Equal(v.Locations(), h.Locations) {
		t.Errorf("locations: % x", v.Locations())
	}
	if !bytes.Equal(v.Payload(), payload) {
		t.Errorf("payload: %q", v.Payload())
	}
	if v.HeaderLen() != h.WireSize() {
		t.Errorf("HeaderLen = %d", v.HeaderLen())
	}
	// Mutation through the view reaches the buffer.
	v.Locations()[0] = 99
	if pkt[BasicHeaderSize+2*FNSize] != 99 {
		t.Error("Locations() does not alias the packet")
	}
	v.SetHopLimit(7)
	if v.HopLimit() != 7 {
		t.Error("SetHopLimit")
	}
	for i := 7; i > 0; i-- {
		if !v.DecHopLimit() {
			t.Fatalf("DecHopLimit failed at %d", i)
		}
	}
	if v.DecHopLimit() {
		t.Error("DecHopLimit at zero should fail")
	}
	if v.HopLimit() != 0 {
		t.Error("hop limit must stay at zero")
	}
}

func TestViewZeroValueInvalid(t *testing.T) {
	var v View
	if v.Valid() {
		t.Error("zero View claims validity")
	}
}

// Property: marshal→parse round-trips arbitrary well-formed headers.
func TestHeaderRoundTripQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		locLen := rng.Intn(200)
		h := &Header{
			NextHeader: uint8(rng.Intn(256)),
			HopLimit:   uint8(rng.Intn(256)),
			Parallel:   rng.Intn(2) == 0,
			Locations:  make([]byte, locLen),
		}
		rng.Read(h.Locations)
		for i, n := 0, rng.Intn(10); i < n; i++ {
			loc := rng.Intn(locLen*8 + 1)
			flen := rng.Intn(locLen*8 - loc + 1)
			h.FNs = append(h.FNs, FN{
				Loc: uint16(loc), Len: uint16(flen),
				Key:  Key(1 + rng.Intn(int(MaxKey))),
				Host: rng.Intn(2) == 0,
			})
		}
		b, err := h.AppendTo(nil)
		if err != nil {
			return false
		}
		v, err := ParseView(b)
		if err != nil {
			return false
		}
		if v.NextHeader() != h.NextHeader || v.HopLimit() != h.HopLimit ||
			v.Parallel() != h.Parallel || v.FNNum() != len(h.FNs) {
			return false
		}
		for i := range h.FNs {
			if v.FN(i) != h.FNs[i] {
				return false
			}
		}
		return bytes.Equal(v.Locations(), h.Locations)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFNString(t *testing.T) {
	f := RouterFN(0, 32, KeyFIB)
	if got := f.String(); got != "(loc: 0, len: 32, key: F_FIB)" {
		t.Errorf("got %q", got)
	}
	hf := HostFN(0, 544, KeyVer)
	if got := hf.String(); got != "(loc: 0, len: 544, key: F_ver, host)" {
		t.Errorf("got %q", got)
	}
	if Key(77).String() != "key(77)" {
		t.Errorf("unknown key name: %s", Key(77))
	}
}

// Valid reports whether the view was produced by a successful ParseView or
// ExecContext.Load.
func (v View) Valid() bool { return v.b != nil }

// SetHopLimit overwrites the hop limit in place.
func (v View) SetHopLimit(h uint8) { v.b[3] = h }
