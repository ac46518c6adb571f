package compat

import (
	"bytes"
	"errors"
	"testing"

	"dip/internal/core"
	"dip/internal/fib"
	"dip/internal/host"
	"dip/internal/ip"
	"dip/internal/ops"
	"dip/internal/profiles"
	"dip/internal/router"
)

func nativeIPv6(t *testing.T, hop uint8, payload []byte) []byte {
	t.Helper()
	var src, dst [16]byte
	src[0], dst[0] = 0xFD, 0x20
	dst[15] = 1
	pkt := make([]byte, ip.HeaderLen6+len(payload))
	if err := ip.Build6(pkt, src, dst, ip.ProtoUDP, hop, len(payload)); err != nil {
		t.Fatal(err)
	}
	copy(pkt[ip.HeaderLen6:], payload)
	return pkt
}

func TestWrapUnwrapRoundTrip(t *testing.T) {
	orig := nativeIPv6(t, 33, []byte("legacy payload"))
	wrapped, err := WrapIPv6(orig)
	if err != nil {
		t.Fatal(err)
	}
	v, err := core.ParseView(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if !IsIPv6Composition(v) {
		t.Fatal("composition not recognized")
	}
	if v.HopLimit() != 33 || v.NextHeader() != ip.ProtoUDP {
		t.Errorf("hop %d next %d", v.HopLimit(), v.NextHeader())
	}
	unwrapped, err := UnwrapIPv6(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(unwrapped, orig) {
		t.Errorf("round trip mismatch:\n% x\n% x", unwrapped, orig)
	}
}

func TestUnwrapSynchronizesHopLimit(t *testing.T) {
	orig := nativeIPv6(t, 33, nil)
	wrapped, _ := WrapIPv6(orig)
	wrapped[3] = 7 // the DIP header's hop limit: the DIP domain consumed hops
	unwrapped, err := UnwrapIPv6(wrapped)
	if err != nil {
		t.Fatal(err)
	}
	h6, _ := ip.Parse6(unwrapped)
	if h6.HopLimit() != 7 {
		t.Errorf("legacy hop limit %d, want 7", h6.HopLimit())
	}
}

func TestWrapRejectsJunk(t *testing.T) {
	if _, err := WrapIPv6([]byte{1, 2}); !errors.Is(err, ErrNotCompat) {
		t.Errorf("short: %v", err)
	}
	v4 := make([]byte, ip.HeaderLen4)
	ip.Build4(v4, [4]byte{}, [4]byte{}, 0, 1, 0)
	if _, err := WrapIPv6(v4); !errors.Is(err, ErrNotCompat) {
		t.Errorf("v4: %v", err)
	}
}

func TestUnwrapRejectsNonComposition(t *testing.T) {
	if _, err := UnwrapIPv6([]byte{1}); !errors.Is(err, ErrNotCompat) {
		t.Errorf("junk: %v", err)
	}
	b, _ := host.BuildPacket(profiles.NDNInterest(1), nil)
	if _, err := UnwrapIPv6(b); !errors.Is(err, ErrNotCompat) {
		t.Errorf("NDN packet: %v", err)
	}
	// A DIP-128 packet (addresses only, not a whole IPv6 header).
	b, _ = host.BuildPacket(profiles.IPv6([16]byte{}, [16]byte{}), nil)
	if _, err := UnwrapIPv6(b); !errors.Is(err, ErrNotCompat) {
		t.Errorf("DIP-128: %v", err)
	}
}

// A DIP router forwards the wrapped composition using its ordinary
// F_128_match module aimed into the embedded IPv6 header — no special
// compat code on the forwarding path.
func TestWrappedPacketForwardsThroughDIPRouter(t *testing.T) {
	cfg := ops.Config{FIB128: fib.New()}
	pfx := make([]byte, 16)
	pfx[0] = 0x20
	cfg.FIB128.Add(pfx, 8, fib.NextHop{Port: 1})
	r := router.New(ops.NewRouterRegistry(cfg), router.Config{})
	var got []byte
	r.AttachPort(router.PortFunc(func([]byte) {}))
	r.AttachPort(router.PortFunc(func(p []byte) { got = append([]byte(nil), p...) }))

	wrapped, err := WrapIPv6(nativeIPv6(t, 9, []byte("x")))
	if err != nil {
		t.Fatal(err)
	}
	r.HandlePacket(wrapped, 0)
	if got == nil {
		t.Fatal("not forwarded")
	}
	v, _ := core.ParseView(got)
	if v.HopLimit() != 8 {
		t.Errorf("hop limit %d", v.HopLimit())
	}
	// Border router at the egress edge can hand it to the legacy domain.
	native, err := UnwrapIPv6(got)
	if err != nil {
		t.Fatal(err)
	}
	h6, err := ip.Parse6(native)
	if err != nil || h6.HopLimit() != 8 {
		t.Errorf("unwrapped: %v hop %d", err, h6.HopLimit())
	}
}
