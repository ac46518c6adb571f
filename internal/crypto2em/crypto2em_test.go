package crypto2em

import (
	"bytes"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func testCipher(t *testing.T) *Cipher {
	t.Helper()
	key, err := Expand(bytes.Repeat([]byte{0x42}, 16))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(key)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(make([]byte, 47)); err == nil {
		t.Error("short key accepted")
	}
	if _, err := New(make([]byte, 49)); err == nil {
		t.Error("long key accepted")
	}
	if _, err := Expand(make([]byte, 15)); err == nil {
		t.Error("short master accepted")
	}
}

func TestExpandDistinctRoundKeys(t *testing.T) {
	key, _ := Expand(make([]byte, 16))
	k1, k2, k3 := key[0:16], key[16:32], key[32:48]
	if bytes.Equal(k1, k2) || bytes.Equal(k2, k3) || bytes.Equal(k1, k3) {
		t.Error("round keys must differ")
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	c := testCipher(t)
	f := func(block [BlockSize]byte) bool {
		var ct, pt [BlockSize]byte
		c.Encrypt(ct[:], block[:])
		if ct == block {
			return false // a fixed point across random inputs would be astonishing
		}
		c.Decrypt(pt[:], ct[:])
		return pt == block
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestEncryptInPlace(t *testing.T) {
	c := testCipher(t)
	src := bytes.Repeat([]byte{7}, BlockSize)
	want := make([]byte, BlockSize)
	c.Encrypt(want, src)
	c.Encrypt(src, src)
	if !bytes.Equal(src, want) {
		t.Error("in-place encrypt differs from out-of-place")
	}
}

func TestKeysMatter(t *testing.T) {
	k1, _ := Expand(bytes.Repeat([]byte{1}, 16))
	k2, _ := Expand(bytes.Repeat([]byte{2}, 16))
	c1, _ := New(k1)
	c2, _ := New(k2)
	var in, o1, o2 [BlockSize]byte
	c1.Encrypt(o1[:], in[:])
	c2.Encrypt(o2[:], in[:])
	if o1 == o2 {
		t.Error("different keys produced equal ciphertexts")
	}
}

func TestMACDeterministicAndKeyed(t *testing.T) {
	c := testCipher(t)
	msg := []byte("the 416-bit OPT region stand-in")
	t1 := c.Sum(nil, msg)
	t2 := c.Sum(nil, msg)
	if !bytes.Equal(t1, t2) {
		t.Error("MAC not deterministic")
	}
	other, _ := Expand(bytes.Repeat([]byte{9}, 16))
	oc, _ := New(other)
	if bytes.Equal(t1, oc.Sum(nil, msg)) {
		t.Error("MAC ignores key")
	}
}

func TestMACLengthBinding(t *testing.T) {
	// A block-aligned message and the same message plus the padding byte
	// pattern must not collide (the classic CBC-MAC pitfall).
	c := testCipher(t)
	m1 := make([]byte, BlockSize)
	m2 := make([]byte, BlockSize+1)
	copy(m2, m1)
	m2[BlockSize] = 0x80
	if bytes.Equal(c.Sum(nil, m1), c.Sum(nil, m2)) {
		t.Error("padding collision")
	}
	// Distinct lengths of all residues must produce distinct tags.
	seen := map[string]int{}
	base := bytes.Repeat([]byte{0xAA}, 3*BlockSize)
	for n := 0; n <= len(base); n++ {
		tag := string(c.Sum(nil, base[:n]))
		if prev, ok := seen[tag]; ok {
			t.Fatalf("tag collision between lengths %d and %d", prev, n)
		}
		seen[tag] = n
	}
}

func TestMACBitSensitivityQuick(t *testing.T) {
	c := testCipher(t)
	f := func(msg []byte, at uint16) bool {
		if len(msg) == 0 {
			return true
		}
		t1 := c.Sum(nil, msg)
		mod := append([]byte(nil), msg...)
		mod[int(at)%len(mod)] ^= 0x80
		return !bytes.Equal(t1, c.Sum(nil, mod))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestVerify(t *testing.T) {
	c := testCipher(t)
	msg := []byte("payload")
	tag := c.Sum(nil, msg)
	if !c.Verify(msg, tag) {
		t.Error("valid tag rejected")
	}
	tag[3] ^= 0x10
	if c.Verify(msg, tag) {
		t.Error("tampered tag accepted")
	}
	if c.Verify(msg, tag[:4]) {
		t.Error("truncated tag accepted")
	}
}

func TestSumIntoPanicsOnBadSize(t *testing.T) {
	c := testCipher(t)
	defer func() {
		if recover() == nil {
			t.Error("no panic for bad out size")
		}
	}()
	c.SumInto(make([]byte, 4), nil)
}

// BenchmarkSum times the MAC at the sizes one OPT hop feeds it: F_mark's
// 16-byte PVF, the bare 52-byte tag region, and F_MAC's region plus the
// previous-validator label (68 bytes).
func BenchmarkSum(b *testing.B) {
	key, _ := Expand(make([]byte, 16))
	c, _ := New(key)
	for _, n := range []int{16, 52, 68} {
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			msg := make([]byte, n)
			var out [BlockSize]byte
			b.ReportAllocs()
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				c.SumInto(out[:], msg)
			}
		})
	}
}

func BenchmarkEncryptBlock(b *testing.B) {
	key, _ := Expand(make([]byte, 16))
	c, _ := New(key)
	var blk [BlockSize]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Encrypt(blk[:], blk[:])
	}
}

func TestFromMasterMatchesExpand(t *testing.T) {
	var master [16]byte
	for i := range master {
		master[i] = byte(i * 7)
	}
	key, _ := Expand(master[:])
	ref, _ := New(key)
	c := FromMaster(&master)
	msg := []byte("equivalence check between key paths")
	if !bytes.Equal(ref.Sum(nil, msg), c.Sum(nil, msg)) {
		t.Error("FromMaster disagrees with Expand+New")
	}
}

func TestFromMasterZeroAlloc(t *testing.T) {
	var master [16]byte
	msg := make([]byte, 52)
	var out [BlockSize]byte
	allocs := testing.AllocsPerRun(500, func() {
		c := FromMaster(&master)
		c.SumInto(out[:], msg)
	})
	if allocs != 0 {
		t.Errorf("FromMaster+SumInto allocates %.1f", allocs)
	}
}

// refSum is the byte-at-a-time CBC-MAC that Sum was before it moved onto two
// 64-bit lanes, kept as the oracle: XOR each block into a 16-byte state,
// encrypt it in place, then the 10*-padded tail and the length block.
func refSum(c *Cipher, dst, msg []byte) []byte {
	var x [BlockSize]byte
	n := len(msg)
	for off := 0; off+BlockSize <= n; off += BlockSize {
		for i := 0; i < BlockSize; i++ {
			x[i] ^= msg[off+i]
		}
		c.Encrypt(x[:], x[:])
	}
	var last [BlockSize]byte
	rem := n % BlockSize
	copy(last[:], msg[n-rem:])
	last[rem] = 0x80
	for i := 0; i < BlockSize; i++ {
		x[i] ^= last[i]
	}
	c.Encrypt(x[:], x[:])
	var lb [BlockSize]byte
	binary.BigEndian.PutUint64(lb[8:], uint64(n))
	for i := 0; i < BlockSize; i++ {
		x[i] ^= lb[i]
	}
	c.Encrypt(x[:], x[:])
	return append(dst, x[:]...)
}

// TestSumMatchesReference requires bit-identical tags from the lane CBC-MAC
// and the byte-wise reference for every length up to 255 (past F_MAC's
// 240-byte operand bound plus label) under 64 random keys.
func TestSumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0x2e3))
	msg := make([]byte, 255)
	for k := 0; k < 64; k++ {
		var master [BlockSize]byte
		rng.Read(master[:])
		rng.Read(msg)
		c := FromMaster(&master)
		for n := 0; n <= len(msg); n++ {
			want, got := refSum(&c, nil, msg[:n]), c.Sum(nil, msg[:n])
			if !bytes.Equal(got, want) {
				t.Fatalf("key %x len %d: Sum = %x, reference %x", master, n, got, want)
			}
		}
	}
	// Sum appends: what dst already holds stays in front of the tag.
	c := testCipher(t)
	if got := c.Sum([]byte("hdr"), msg[:20]); !bytes.Equal(got, refSum(c, []byte("hdr"), msg[:20])) {
		t.Errorf("Sum with a non-empty dst = %x", got)
	}
}

func FuzzSumMatchesReference(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add(bytes.Repeat([]byte{0x42}, 16), make([]byte, 52))
	f.Add([]byte("k"), bytes.Repeat([]byte{0xff}, 68))
	f.Fuzz(func(t *testing.T, key, msg []byte) {
		var master [BlockSize]byte
		copy(master[:], key)
		c := FromMaster(&master)
		if want, got := refSum(&c, nil, msg), c.Sum(nil, msg); !bytes.Equal(got, want) {
			t.Fatalf("key %x msg %x: Sum = %x, reference %x", master, msg, got, want)
		}
	})
}

// Verify reports whether tag is the MAC of msg, in constant time.
func (c *Cipher) Verify(msg, tag []byte) bool {
	if len(tag) != BlockSize {
		return false
	}
	var want [BlockSize]byte
	c.SumInto(want[:], msg)
	return subtle.ConstantTimeCompare(want[:], tag) == 1
}
