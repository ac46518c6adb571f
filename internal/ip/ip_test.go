package ip

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"dip/internal/fib"
)

func build4(t *testing.T, src, dst [4]byte, ttl uint8, payload []byte) []byte {
	t.Helper()
	pkt := make([]byte, HeaderLen4+len(payload))
	if err := Build4(pkt, src, dst, ProtoUDP, ttl, len(payload)); err != nil {
		t.Fatal(err)
	}
	copy(pkt[HeaderLen4:], payload)
	return pkt
}

func TestBuildParse4(t *testing.T) {
	pkt := build4(t, [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}, 64, []byte("hello"))
	h, err := Parse4(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if h.TTL() != 64 || h.Proto() != ProtoUDP {
		t.Errorf("ttl=%d proto=%d", h.TTL(), h.Proto())
	}
	if !bytes.Equal(h.Src(), []byte{10, 0, 0, 1}) || !bytes.Equal(h.Dst(), []byte{10, 0, 0, 2}) {
		t.Errorf("addrs %v %v", h.Src(), h.Dst())
	}
	if !bytes.Equal(h.Payload(), []byte("hello")) {
		t.Errorf("payload %q", h.Payload())
	}
}

func TestParse4Errors(t *testing.T) {
	if _, err := Parse4(make([]byte, 10)); !errors.Is(err, ErrTruncated) {
		t.Errorf("short: %v", err)
	}
	pkt := build4(t, [4]byte{1, 1, 1, 1}, [4]byte{2, 2, 2, 2}, 1, nil)
	bad := append([]byte(nil), pkt...)
	bad[0] = 6 << 4
	if _, err := Parse4(bad); !errors.Is(err, ErrVersion) {
		t.Errorf("version: %v", err)
	}
	bad = append([]byte(nil), pkt...)
	bad[16] ^= 0xFF // corrupt dst without fixing checksum
	if _, err := Parse4(bad); !errors.Is(err, ErrChecksum) {
		t.Errorf("checksum: %v", err)
	}
	bad = append([]byte(nil), pkt...)
	binary.BigEndian.PutUint16(bad[2:4], uint16(len(bad)+10))
	if _, err := Parse4(bad); !errors.Is(err, ErrTruncated) {
		t.Errorf("total length: %v", err)
	}
	// Fuzz-found regression: total length smaller than the header must be
	// rejected, or Payload()'s slice bounds invert and panic.
	bad = append([]byte(nil), pkt...)
	binary.BigEndian.PutUint16(bad[2:4], 1)
	h, err := Parse4(bad)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("undersized total length: %v", err)
	}
	_ = h
}

// Property: the incremental checksum update on TTL decrement keeps the
// header checksum valid for any initial TTL.
func TestDecTTLChecksumQuick(t *testing.T) {
	f := func(ttl uint8, a, b [4]byte) bool {
		pkt := make([]byte, HeaderLen4)
		if err := Build4(pkt, a, b, ProtoUDP, ttl, 0); err != nil {
			return false
		}
		h, err := Parse4(pkt)
		if err != nil {
			return false
		}
		want := ttl > 0
		if got := h.DecTTL(); got != want {
			return false
		}
		if ttl == 0 {
			return true
		}
		// Re-parse: checksum must still verify and TTL must have dropped.
		h2, err := Parse4(pkt)
		return err == nil && h2.TTL() == ttl-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBuild4Limits(t *testing.T) {
	if err := Build4(make([]byte, 10), [4]byte{}, [4]byte{}, 0, 1, 0); err == nil {
		t.Error("short dst accepted")
	}
	if err := Build4(make([]byte, HeaderLen4), [4]byte{}, [4]byte{}, 0, 1, 0x10000); err == nil {
		t.Error("oversize payload accepted")
	}
}

func TestBuildParse6(t *testing.T) {
	var src, dst [16]byte
	src[0], dst[0] = 0x20, 0x20
	dst[15] = 9
	pkt := make([]byte, HeaderLen6+3)
	if err := Build6(pkt, src, dst, ProtoUDP, 64, 3); err != nil {
		t.Fatal(err)
	}
	copy(pkt[HeaderLen6:], "abc")
	h, err := Parse6(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if h.HopLimit() != 64 || h.Next() != ProtoUDP {
		t.Errorf("hop=%d next=%d", h.HopLimit(), h.Next())
	}
	if !bytes.Equal(h.Dst(), dst[:]) || !bytes.Equal(h.Src(), src[:]) {
		t.Error("addresses")
	}
	if !bytes.Equal(h.Payload(), []byte("abc")) {
		t.Errorf("payload %q", h.Payload())
	}
	if !h.DecHopLimit() || h.HopLimit() != 63 {
		t.Error("DecHopLimit")
	}
	h.b[7] = 0
	if h.DecHopLimit() {
		t.Error("DecHopLimit at 0")
	}
}

func TestParse6Errors(t *testing.T) {
	if _, err := Parse6(make([]byte, 39)); !errors.Is(err, ErrTruncated) {
		t.Errorf("short: %v", err)
	}
	pkt := make([]byte, HeaderLen6)
	Build6(pkt, [16]byte{}, [16]byte{}, 0, 1, 0)
	pkt[0] = 4 << 4
	if _, err := Parse6(pkt); !errors.Is(err, ErrVersion) {
		t.Errorf("version: %v", err)
	}
	pkt[0] = 6 << 4
	binary.BigEndian.PutUint16(pkt[4:6], 100)
	if _, err := Parse6(pkt); !errors.Is(err, ErrTruncated) {
		t.Errorf("payload len: %v", err)
	}
}

func TestForwarder4(t *testing.T) {
	table := fib.New()
	table.Add([]byte{10, 0, 0, 0}, 8, fib.NextHop{Port: 2})
	table.Add([]byte{10, 0, 0, 2}, 32, fib.Local)
	fwd := &Forwarder4{FIB: table}

	pkt := build4(t, [4]byte{10, 0, 0, 1}, [4]byte{10, 9, 9, 9}, 64, nil)
	v, port := fwd.Process(pkt)
	if v != Forward || port != 2 {
		t.Errorf("got %v port %d", v, port)
	}
	h, err := Parse4(pkt) // checksum must still be valid post-forwarding
	if err != nil || h.TTL() != 63 {
		t.Errorf("post-forward parse: %v ttl=%d", err, h.TTL())
	}

	local := build4(t, [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}, 64, nil)
	if v, _ := fwd.Process(local); v != Deliver {
		t.Errorf("local got %v", v)
	}

	dead := build4(t, [4]byte{10, 0, 0, 1}, [4]byte{10, 9, 9, 9}, 0, nil)
	if v, _ := fwd.Process(dead); v != DropTTL {
		t.Errorf("ttl0 got %v", v)
	}

	lost := build4(t, [4]byte{10, 0, 0, 1}, [4]byte{99, 9, 9, 9}, 64, nil)
	if v, _ := fwd.Process(lost); v != DropNoRoute {
		t.Errorf("no-route got %v", v)
	}

	if v, _ := fwd.Process(make([]byte, 4)); v != DropMalformed {
		t.Error("malformed accepted")
	}
}

func TestForwarder6(t *testing.T) {
	table := fib.New()
	prefix := make([]byte, 16)
	prefix[0] = 0x20
	table.Add(prefix, 8, fib.NextHop{Port: 5})
	fwd := &Forwarder6{FIB: table}

	var src, dst [16]byte
	dst[0] = 0x20
	dst[1] = 0x01
	pkt := make([]byte, HeaderLen6)
	Build6(pkt, src, dst, 0, 64, 0)
	v, port := fwd.Process(pkt)
	if v != Forward || port != 5 {
		t.Errorf("got %v port %d", v, port)
	}
	var other [16]byte
	other[0] = 0x30
	Build6(pkt, src, other, 0, 64, 0)
	if v, _ := fwd.Process(pkt); v != DropNoRoute {
		t.Errorf("no-route got %v", v)
	}
}

func TestForwardersZeroAlloc(t *testing.T) {
	table := fib.New()
	table.Add([]byte{10, 0, 0, 0}, 8, fib.NextHop{Port: 2})
	fwd := &Forwarder4{FIB: table}
	pkt := build4(t, [4]byte{1, 2, 3, 4}, [4]byte{10, 0, 0, 9}, 200, nil)
	allocs := testing.AllocsPerRun(500, func() {
		fwd.Process(pkt)
	})
	if allocs != 0 {
		t.Errorf("IPv4 forwarding allocates %.1f", allocs)
	}
}

// TTL returns the remaining hop budget.
func (h Header4) TTL() uint8 { return h.b[8] }

// Src returns the source address view.
func (h Header4) Src() []byte { return h.b[12:16] }

// Src returns the source address view.
func (h Header6) Src() []byte { return h.b[8:24] }
