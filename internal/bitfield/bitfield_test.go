package bitfield

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
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

func TestPutUint64Basic(t *testing.T) {
	b := make([]byte, 4)
	if err := PutUint64(b, 4, 8, 0xFF); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0x0F || b[1] != 0xF0 {
		t.Errorf("got % x, want 0f f0 00 00", b)
	}
	// Writing must not disturb neighbours.
	b = []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if err := PutUint64(b, 10, 12, 0); err != nil {
		t.Fatal(err)
	}
	got, _ := Uint64(b, 10, 12)
	if got != 0 {
		t.Errorf("cleared field reads %#x", got)
	}
	if pre, _ := Uint64(b, 0, 10); pre != 0x3FF {
		t.Errorf("prefix disturbed: %#x", pre)
	}
	if post, _ := Uint64(b, 22, 10); post != 0x3FF {
		t.Errorf("suffix disturbed: %#x", post)
	}
}

func TestPutUint64Truncates(t *testing.T) {
	b := make([]byte, 2)
	if err := PutUint64(b, 0, 4, 0xAB); err != nil {
		t.Fatal(err)
	}
	got, _ := Uint64(b, 0, 4)
	if got != 0xB {
		t.Errorf("got %#x, want 0xb (high bits discarded)", got)
	}
}

// Property: PutUint64 then Uint64 round-trips for any in-range field.
func TestRoundTripQuick(t *testing.T) {
	f := func(raw []byte, off16 uint16, n8 uint8, v uint64) bool {
		b := make([]byte, len(raw)%64+9)
		copy(b, raw)
		n := uint(n8 % 65)
		total := uint(len(b)) * 8
		off := uint(off16) % (total - n + 1)
		if err := PutUint64(b, off, n, v); err != nil {
			return false
		}
		got, err := Uint64(b, off, n)
		if err != nil {
			return false
		}
		want := v
		if n < 64 {
			want &= 1<<n - 1
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: writes never disturb bits outside the target range.
func TestWriteIsolationQuick(t *testing.T) {
	f := func(seed int64, off16 uint16, n8 uint8, v uint64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := make([]byte, 24)
		rng.Read(b)
		orig := append([]byte(nil), b...)
		n := uint(n8 % 65)
		total := uint(len(b)) * 8
		off := uint(off16) % (total - n + 1)
		if err := PutUint64(b, off, n, v); err != nil {
			return false
		}
		for i := uint(0); i < total; i++ {
			if i >= off && i < off+n {
				continue
			}
			gb, _ := Uint64(b, i, 1)
			ob, _ := Uint64(orig, i, 1)
			if gb != ob {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
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

func TestPutBytesRoundTripQuick(t *testing.T) {
	f := func(seed int64, off16 uint16, n16 uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		b := make([]byte, 40)
		rng.Read(b)
		total := uint(len(b)) * 8
		n := uint(n16) % 129
		off := uint(off16) % (total - n + 1)
		src := make([]byte, (n+7)/8)
		rng.Read(src)
		clearTail(src, n, len(src))
		if err := PutBytes(b, src, off, n); err != nil {
			return false
		}
		dst := make([]byte, (n+7)/8)
		if _, err := Bytes(dst, b, off, n); err != nil {
			return false
		}
		return bytes.Equal(dst, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
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

func TestXOR(t *testing.T) {
	b := []byte{0xFF, 0x00, 0x0F, 0xF0}
	if err := XOR(b, 0, 16, 16); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0xF0 || b[1] != 0xF0 {
		t.Errorf("got % x", b[:2])
	}
	if b[2] != 0x0F || b[3] != 0xF0 {
		t.Error("source range must be unchanged")
	}
	if err := XOR(b, 0, 40, 8); err == nil {
		t.Error("want range error")
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

func BenchmarkPutBytesAligned(b *testing.B) {
	buf := make([]byte, 64)
	src := make([]byte, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = PutBytes(buf, src, 128, 128)
	}
}
