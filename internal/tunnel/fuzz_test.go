package tunnel

import (
	"testing"

	"dip/internal/ip"
)

// fuzzSeeds builds the in-code seed corpus: a valid tunnel packet plus
// systematically corrupted outer IPv4 headers (the on-disk corpus under
// testdata/fuzz/FuzzDecap mirrors these).
func fuzzSeeds(tb testing.TB) [][]byte {
	valid, err := Encap([]byte("inner dip packet"), [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}, 64)
	if err != nil {
		tb.Fatal(err)
	}
	mutate := func(i int, v byte) []byte {
		cp := append([]byte(nil), valid...)
		cp[i] ^= v
		return cp
	}
	other := make([]byte, ip.HeaderLen4+4) // a valid IPv4 packet of protocol 0xFE
	if err := ip.Build4(other, [4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2}, 0xFE, 64, 4); err != nil {
		tb.Fatal(err)
	}
	return [][]byte{
		valid,
		{},
		valid[:ip.HeaderLen4-1],  // truncated header
		mutate(0, 0x30),          // version 7
		mutate(0, 0x01),          // IHL 4 (20→16 bytes: unsupported)
		mutate(2, 0xFF),          // total length beyond the buffer
		mutate(9, 0xFF),          // protocol no longer DIP
		mutate(10, 0x5A),         // checksum broken
		mutate(ip.HeaderLen4, 1), // payload corruption (header still valid)
		other,
	}
}

// FuzzDecap: arbitrary (and systematically corrupted) outer packets must
// produce an error or a bounded inner packet — never a panic — and the
// endpoint receive path must uphold the same invariant.
func FuzzDecap(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, outer []byte) {
		inner, err := Decap(outer)
		if err == nil {
			if len(inner) > len(outer) {
				t.Fatalf("inner %d bytes from outer %d", len(inner), len(outer))
			}
			h, perr := ip.Parse4(outer)
			if perr != nil || h.Proto() != ip.ProtoDIP {
				t.Fatalf("Decap accepted what Parse4 rejects: %v", perr)
			}
		}
		ep := &Endpoint{
			Local:   [4]byte{10, 0, 0, 1},
			Remote:  [4]byte{10, 0, 0, 2},
			Carrier: &captureCarrier{},
			Deliver: func(p []byte) { _ = len(p) },
		}
		_ = ep.Receive(outer) // must not panic regardless of outcome
	})
}
