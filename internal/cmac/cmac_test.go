package cmac

import (
	"bytes"
	"crypto/subtle"
	"encoding/hex"
	"testing"
	"testing/quick"
)

// RFC 4493 test vectors (AES-128 key 2b7e1516...).
var rfcKey, _ = hex.DecodeString("2b7e151628aed2a6abf7158809cf4f3c")

var rfcMsg, _ = hex.DecodeString(
	"6bc1bee22e409f96e93d7e117393172a" +
		"ae2d8a571e03ac9c9eb76fac45af8e51" +
		"30c81c46a35ce411e5fbc1191a0a52ef" +
		"f69f2445df4f9b17ad2b417be66c3710")

func TestRFC4493Vectors(t *testing.T) {
	m, err := New(rfcKey)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		n    int
		want string
	}{
		{0, "bb1d6929e95937287fa37d129b756746"},
		{16, "070a16b46b4d4144f79bdd9dd04a287c"},
		{40, "dfa66747de9ae63030ca32611497c827"},
		{64, "51f0bebf7e3b9d92fc49741779363cfe"},
	}
	for _, c := range cases {
		got := m.Sum(nil, rfcMsg[:c.n])
		want, _ := hex.DecodeString(c.want)
		if !bytes.Equal(got, want) {
			t.Errorf("CMAC(%d bytes) = %x, want %s", c.n, got, c.want)
		}
	}
}

func TestNewRejectsBadKey(t *testing.T) {
	if _, err := New(make([]byte, 15)); err == nil {
		t.Error("15-byte key accepted")
	}
	if _, err := New(nil); err == nil {
		t.Error("nil key accepted")
	}
	if _, err := New(make([]byte, 24)); err != nil {
		t.Errorf("AES-192 key rejected: %v", err)
	}
}

func TestSumInto(t *testing.T) {
	m, _ := New(rfcKey)
	var out [BlockSize]byte
	m.SumInto(out[:], rfcMsg[:16])
	want, _ := hex.DecodeString("070a16b46b4d4144f79bdd9dd04a287c")
	if !bytes.Equal(out[:], want) {
		t.Errorf("SumInto = %x", out)
	}
	defer func() {
		if recover() == nil {
			t.Error("SumInto with wrong-size out did not panic")
		}
	}()
	m.SumInto(make([]byte, 8), nil)
}

func TestVerify(t *testing.T) {
	m, _ := New(rfcKey)
	tag := m.Sum(nil, rfcMsg)
	if !m.Verify(rfcMsg, tag) {
		t.Error("valid tag rejected")
	}
	tag[0] ^= 1
	if m.Verify(rfcMsg, tag) {
		t.Error("tampered tag accepted")
	}
	if m.Verify(rfcMsg, tag[:8]) {
		t.Error("short tag accepted")
	}
}

// Property: MACs distinguish messages (no trivial collisions on small edits)
// and are deterministic.
func TestDeterministicAndSensitiveQuick(t *testing.T) {
	m, _ := New(rfcKey)
	f := func(msg []byte, flipAt uint16) bool {
		t1 := m.Sum(nil, msg)
		t2 := m.Sum(nil, msg)
		if !bytes.Equal(t1, t2) {
			return false
		}
		if len(msg) == 0 {
			return true
		}
		mod := append([]byte(nil), msg...)
		mod[int(flipAt)%len(mod)] ^= 0x01
		return !bytes.Equal(t1, m.Sum(nil, mod))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: length-extension-style boundary handling — messages of every
// length mod BlockSize produce valid, distinct processing paths.
func TestAllResidues(t *testing.T) {
	m, _ := New(rfcKey)
	seen := map[string]int{}
	msg := make([]byte, 3*BlockSize)
	for i := range msg {
		msg[i] = byte(i)
	}
	for n := 0; n <= len(msg); n++ {
		tag := m.Sum(nil, msg[:n])
		if prev, dup := seen[string(tag)]; dup {
			t.Fatalf("tag collision between lengths %d and %d", prev, n)
		}
		seen[string(tag)] = n
	}
}

func TestSumAppends(t *testing.T) {
	m, _ := New(rfcKey)
	prefix := []byte("hdr:")
	out := m.Sum(prefix, rfcMsg[:16])
	if !bytes.HasPrefix(out, prefix) || len(out) != len(prefix)+BlockSize {
		t.Errorf("Sum append misbehaved: %x", out)
	}
}

func BenchmarkSum52B(b *testing.B) {
	// 52 bytes = the 416-bit OPT MAC input region.
	m, _ := New(rfcKey)
	msg := make([]byte, 52)
	var out [BlockSize]byte
	b.ReportAllocs()
	b.SetBytes(52)
	for i := 0; i < b.N; i++ {
		m.SumInto(out[:], msg)
	}
}

// Verify reports whether tag is the CMAC of msg, in constant time.
func (m *MAC) Verify(msg, tag []byte) bool {
	if len(tag) != BlockSize {
		return false
	}
	var want [BlockSize]byte
	m.SumInto(want[:], msg)
	return subtle.ConstantTimeCompare(want[:], tag) == 1
}
