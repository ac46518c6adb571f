package bootstrap

import (
	"bytes"
	"testing"

	"dip/internal/fib"
)

// FuzzDecode: arbitrary bootstrap messages must never panic, and accepted
// offers must re-encode to an equivalent catalog.
func FuzzDecode(f *testing.F) {
	f.Add(EncodeDiscover())
	f.Add(EncodeOffer(Catalog{{Key: 4}, {Key: 7, Policy: 1}}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, c, err := Decode(data)
		if err != nil {
			return
		}
		if typ != TypeOffer {
			return
		}
		re := EncodeOffer(c)
		typ2, c2, err := Decode(re)
		if err != nil || typ2 != TypeOffer || len(c2) != len(c) {
			t.Fatalf("round trip: %v", err)
		}
		for i := range c {
			if c[i] != c2[i] {
				t.Fatalf("entry %d differs", i)
			}
		}
	})
}

// FuzzRouteExchange: arbitrary route-exchange bytes must never panic the
// codec or the speaker, accepted messages must survive an exact re-encode
// round trip, and every decoded entry must satisfy the documented bounds —
// truncated withdraws, hostile counts/lengths, and duplicate prefixes
// included.
func FuzzRouteExchange(f *testing.F) {
	f.Add(EncodeAdvertise("r1", 1, []RouteEntry{
		Entry32(0x0a000000, 8, 0),
		Entry128(bytes.Repeat([]byte{0x20}, 16), 128, 3),
		EntryName(0xdeadbeef, 32, 7),
	}, Catalog{{Key: 1}, {Key: 4, Policy: 1}}))
	f.Add(EncodeWithdraw("r2", 9, []RouteEntry{
		Entry32(0x0a000000, 8, 16),
		Entry32(0x0a000000, 8, 16), // duplicate prefix
	}))
	f.Add(EncodeWithdraw("", 0, nil))
	f.Add([]byte{TypeAdvertise, 0, 0, 0, 1, 0, 0xFF, 0xFF}) // hostile count
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		ex, err := DecodeExchange(data)
		if err != nil {
			if ex != nil {
				t.Fatal("error with non-nil message")
			}
			return
		}
		for i, r := range ex.Routes {
			if r.Kind != Kind32 && r.Kind != Kind128 && r.Kind != KindName {
				t.Fatalf("route %d: invalid kind %d accepted", i, r.Kind)
			}
			if r.Plen > r.Kind.maxPlen() {
				t.Fatalf("route %d: plen %d beyond %v bound", i, r.Plen, r.Kind)
			}
			for _, b := range r.Prefix[r.Kind.prefixBytes():] {
				if b != 0 {
					t.Fatalf("route %d: prefix bytes beyond the wire length set", i)
				}
			}
		}
		var re []byte
		if ex.Type == TypeAdvertise {
			re = EncodeAdvertise(ex.Origin, ex.Seq, ex.Routes, ex.Catalog)
		} else {
			re = EncodeWithdraw(ex.Origin, ex.Seq, ex.Routes)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("re-encode differs:\n  in  %x\n  out %x", data, re)
		}
		// The speaker must also digest whatever decoded, without panicking:
		// via an adjacency and via an unknown port.
		tb := fib.New()
		s := NewSpeaker(SpeakerConfig{Name: "f", FIB32: tb, Now: func() int64 { return 0 }})
		s.AddNeighbor(0, func([]byte) {})
		s.Handle(data, 0)
		s.Handle(data, 3)
	})
}
