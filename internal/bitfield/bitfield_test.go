package bitfield

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

func TestUint64Basic(t *testing.T) {
	b := []byte{0xAB, 0xCD, 0xEF, 0x01}
	cases := []struct {
		off, n uint
		want   uint64
	}{
		{0, 8, 0xAB},
		{8, 8, 0xCD},
		{0, 16, 0xABCD},
		{0, 32, 0xABCDEF01},
		{4, 8, 0xBC},
		{0, 4, 0xA},
		{4, 4, 0xB},
		{12, 12, 0xDEF},
		{0, 0, 0},
		{31, 1, 1},
		{0, 1, 1},
		{1, 1, 0},
	}
	for _, c := range cases {
		got, err := Uint64(b, c.off, c.n)
		if err != nil {
			t.Fatalf("Uint64(off=%d,n=%d): %v", c.off, c.n, err)
		}
		if got != c.want {
			t.Errorf("Uint64(off=%d,n=%d) = %#x, want %#x", c.off, c.n, got, c.want)
		}
	}
}

func TestUint64Errors(t *testing.T) {
	b := make([]byte, 4)
	if _, err := Uint64(b, 0, 65); err == nil {
		t.Error("want ErrTooWide for n=65")
	}
	if _, err := Uint64(b, 25, 8); err == nil {
		t.Error("want ErrOutOfRange for off=25,n=8 in 32 bits")
	}
	if _, err := Uint64(b, 33, 0); err == nil {
		t.Error("want ErrOutOfRange for off past end")
	}
	if _, err := Uint64(b, 32, 0); err != nil {
		t.Errorf("off==total with n=0 should be in range: %v", err)
	}
}

// Property: Uint64, byte-aligned fast path included, reads what the bit
// loop reads, and fails exactly where the range checks say it must, for
// every bit alignment and every width up to 64 and a few beyond.
func TestUint64MatchesBitLoop(t *testing.T) {
	ref := func(b []byte, off, n uint) (uint64, error) {
		if n > 64 {
			return 0, ErrTooWide
		}
		if err := Check(len(b), off, n); err != nil {
			return 0, err
		}
		return uint64Bits(b, off, n), nil
	}
	kind := func(err error) error {
		for _, k := range []error{ErrTooWide, ErrOutOfRange} {
			if errors.Is(err, k) {
				return k
			}
		}
		return err
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 200; i++ {
		b := make([]byte, rng.Intn(12))
		rng.Read(b)
		for align := uint(0); align < 8; align++ {
			for n := uint(0); n <= 66; n++ {
				// Byte offsets from 0 to one past the end reach the range
				// error for every width that does not fit.
				off := uint(rng.Intn(len(b)+2))*8 + align
				got, err := Uint64(b, off, n)
				want, wantErr := ref(b, off, n)
				if got != want || kind(err) != kind(wantErr) {
					t.Fatalf("Uint64(% x, off=%d, n=%d) = %#x, %v; bit loop %#x, %v",
						b, off, n, got, err, want, wantErr)
				}
			}
		}
	}
}

func TestBytesAligned(t *testing.T) {
	b := []byte{1, 2, 3, 4, 5}
	dst := make([]byte, 3)
	n, err := Bytes(dst, b, 8, 24)
	if err != nil || n != 3 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if !bytes.Equal(dst, []byte{2, 3, 4}) {
		t.Errorf("got % x", dst)
	}
}

func TestBytesUnaligned(t *testing.T) {
	b := []byte{0xAB, 0xCD, 0xEF}
	dst := make([]byte, 2)
	n, err := Bytes(dst, b, 4, 12)
	if err != nil || n != 2 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	// bits: BCD -> 0xBC, 0xD0 (tail padded with zeros)
	if !bytes.Equal(dst, []byte{0xBC, 0xD0}) {
		t.Errorf("got % x, want bc d0", dst)
	}
}

func TestBytesDstTooSmall(t *testing.T) {
	if _, err := Bytes(make([]byte, 1), make([]byte, 4), 0, 16); err == nil {
		t.Error("want error for short dst")
	}
}

func TestView(t *testing.T) {
	b := []byte{1, 2, 3, 4}
	v, ok := View(b, 8, 16)
	if !ok || !bytes.Equal(v, []byte{2, 3}) {
		t.Fatalf("View aligned: ok=%v v=% x", ok, v)
	}
	v[0] = 99
	if b[1] != 99 {
		t.Error("View must alias the backing slice")
	}
	if _, ok := View(b, 4, 16); ok {
		t.Error("unaligned offset must not yield a view")
	}
	if _, ok := View(b, 8, 12); ok {
		t.Error("unaligned length must not yield a view")
	}
	if _, ok := View(b, 24, 16); ok {
		t.Error("out-of-range view must fail")
	}
}

func TestCheckZeroLength(t *testing.T) {
	if err := Check(0, 0, 0); err != nil {
		t.Errorf("empty range in empty buffer: %v", err)
	}
	if err := Check(0, 1, 0); err == nil {
		t.Error("offset past empty buffer must fail")
	}
}

func BenchmarkUint64Aligned(b *testing.B) {
	buf := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = Uint64(buf, 128, 32)
	}
}

func BenchmarkUint64Unaligned(b *testing.B) {
	buf := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = Uint64(buf, 131, 32)
	}
}
