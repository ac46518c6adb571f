package host

import (
	"bytes"
	"testing"
)

// FuzzSegmentReassembly drives the segment buffer with an adversarial
// arrival script — out-of-order, duplicate, conflicting ("overlapping"),
// truncated, and out-of-range segments — decoded from the fuzzer's bytes.
// The buffer must never panic, and once complete it must emit exactly the
// first-accepted payload of every segment, concatenated in segment order
// (never a later conflicting copy, never reordered bytes).
func FuzzSegmentReassembly(f *testing.F) {
	// Seed corpus: in-order, reversed, duplicates with conflicting bytes,
	// out-of-range indices, empty and oversized payloads.
	f.Add(uint8(4), []byte{0, 2, 1, 1, 2, 3, 0xAA, 3, 0})
	f.Add(uint8(1), []byte{0, 0, 0})
	f.Add(uint8(8), []byte{7, 6, 5, 4, 3, 2, 1, 0, 9, 200, 7})
	f.Add(uint8(0), []byte{1, 2, 3})
	f.Add(uint8(16), bytes.Repeat([]byte{5, 1}, 40))

	f.Fuzz(func(t *testing.T, totalByte uint8, script []byte) {
		total := int(totalByte % 32)
		r := NewReassembly(total)
		if total <= 0 {
			total = 1 // NewReassembly's documented floor
		}
		if r.Total() != total {
			t.Fatalf("Total() = %d, want %d", r.Total(), total)
		}

		// Model: first accepted payload per in-range segment.
		model := make([][]byte, total)
		accepted := make([]bool, total)

		for i := 0; i < len(script); {
			// One script step: a segment index byte, a length byte, then
			// that many payload bytes (truncated scripts yield truncated
			// payloads — that is the point).
			seg := int(int8(script[i])) // negative indices too
			i++
			var payload []byte
			if i < len(script) {
				n := int(script[i] % 64)
				i++
				end := i + n
				if end > len(script) {
					end = len(script)
				}
				payload = script[i:end]
				i = end
			}
			added := r.Add(seg, payload)
			inRange := seg >= 0 && seg < total
			if added != (inRange && !accepted[seg]) {
				t.Fatalf("Add(%d, %d bytes) = %v with inRange=%v accepted=%v",
					seg, len(payload), added, inRange, inRange && accepted[seg])
			}
			if added {
				model[seg] = append([]byte(nil), payload...)
				accepted[seg] = true
			}
			// Mutating the caller's buffer after Add must not leak into
			// the stored copy.
			for j := range payload {
				payload[j] ^= 0xFF
			}
			for j := range payload {
				payload[j] ^= 0xFF
			}
		}

		got := 0
		for seg := 0; seg < total; seg++ {
			if accepted[seg] {
				got++
			}
			if r.Have(seg) != accepted[seg] {
				t.Fatalf("Have(%d) = %v, want %v", seg, r.Have(seg), accepted[seg])
			}
		}
		if r.Got() != got {
			t.Fatalf("Got() = %d, want %d", r.Got(), got)
		}
		if r.Complete() != (got == total) {
			t.Fatalf("Complete() = %v with %d/%d", r.Complete(), got, total)
		}
		if r.Complete() {
			want := []byte{}
			for _, p := range model {
				want = append(want, p...)
			}
			if !bytes.Equal(r.Bytes(), want) {
				t.Fatalf("Bytes() = %q, want %q", r.Bytes(), want)
			}
		} else if r.Bytes() != nil {
			t.Fatal("Bytes() non-nil while incomplete")
		}
	})
}

// Total returns the segment count the buffer was sized for.
func (r *Reassembly) Total() int { return len(r.segs) }

// Got returns how many distinct segments have been accepted.
func (r *Reassembly) Got() int { return r.got }

// Have reports whether segment seg has been accepted.
func (r *Reassembly) Have(seg int) bool {
	return seg >= 0 && seg < len(r.have) && r.have[seg]
}
