package cs

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzSlotCodec throws arbitrary bytes at the slot-header decoder and the
// full slot read path. Two properties must hold: a well-formed header
// round-trips exactly, and hostile bytes — truncated headers, flipped
// magic, impossible lengths, rotted payloads — are rejected with an error,
// never a panic or a silently wrong payload.
func FuzzSlotCodec(f *testing.F) {
	good := make([]byte, SlotHeaderSize)
	EncodeSlotHeader(good, SlotHeader{KeyHash: 0xABCDEF0123456789, Length: 42, Checksum: 0xCAFEBABE})
	f.Add(good, uint64(0xABCDEF0123456789))
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{0x44, 0x43, 0x53}, uint64(1)) // truncated magic
	f.Add(bytes.Repeat([]byte{0xFF}, SlotHeaderSize+8), uint64(0xFFFFFFFFFFFFFFFF))

	f.Fuzz(func(t *testing.T, raw []byte, keyHash uint64) {
		// Decoder: must never panic, and an accepted header must re-encode
		// to the same bytes (the codec is a bijection on valid headers).
		h, err := DecodeSlotHeader(raw)
		if err == nil {
			re := make([]byte, SlotHeaderSize)
			EncodeSlotHeader(re, h)
			if !bytes.Equal(re, raw[:SlotHeaderSize]) {
				t.Fatalf("decode/encode mismatch: %x -> %+v -> %x", raw[:SlotHeaderSize], h, re)
			}
		}

		// Full slot path: write raw bytes straight into a slot file (as a
		// torn write or bit rot would) and read them back. Verification
		// must either return the exact payload a legitimate writer stored
		// under keyHash, or reject — no third outcome.
		a, aerr := newArena("", 1, 64)
		if aerr != nil {
			t.Skip("no temp file available")
		}
		defer a.Close()
		if len(raw) > SlotHeaderSize+64 {
			raw = raw[:SlotHeaderSize+64]
		}
		if _, werr := a.f.WriteAt(raw, 0); werr != nil {
			t.Skip("short write")
		}
		payload, rerr := a.ReadSlot(nil, 0, keyHash)
		if rerr != nil {
			return // rejected: fine
		}
		// Accepted: the bytes must be internally consistent — header fields
		// match keyHash, length, and checksum of the returned payload.
		if binary.BigEndian.Uint64(raw[4:]) != keyHash {
			t.Fatalf("accepted payload under wrong key hash")
		}
		if int(binary.BigEndian.Uint32(raw[12:])) != len(payload) {
			t.Fatalf("accepted payload with wrong length")
		}
		if !bytes.Equal(payload, raw[SlotHeaderSize:SlotHeaderSize+len(payload)]) {
			t.Fatalf("accepted payload differs from slot bytes")
		}
	})
}
