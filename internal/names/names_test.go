package names

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParse(t *testing.T) {
	cases := []struct {
		in      string
		want    string
		wantLen int
		err     bool
	}{
		{"/org/hotnets", "/org/hotnets", 2, false},
		{"org/hotnets", "/org/hotnets", 2, false},
		{"/", "/", 0, false},
		{"", "/", 0, false},
		{"/a//b", "", 0, true},
		{"//", "", 0, true},
	}
	for _, c := range cases {
		n, err := Parse(c.in)
		if (err != nil) != c.err {
			t.Errorf("Parse(%q) err=%v, want err=%v", c.in, err, c.err)
			continue
		}
		if err != nil {
			continue
		}
		if n.String() != c.want || n.Len() != c.wantLen {
			t.Errorf("Parse(%q) = %q len %d", c.in, n.String(), n.Len())
		}
	}
}

func TestPrefixRelations(t *testing.T) {
	n := MustParse("/a/b/c")
	if !n.Prefix(2).Equal(MustParse("/a/b")) {
		t.Error("Prefix(2) wrong")
	}
	if !n.Prefix(99).Equal(n) {
		t.Error("Prefix over length should clamp")
	}
	if n.Prefix(-1).Len() != 0 {
		t.Error("Prefix(-1) should clamp to root")
	}
}

// The central invariant: IDs are prefix-preserving so that a 32-bit FIB can
// longest-prefix match on them.
func TestIDPrefixPreserving(t *testing.T) {
	n := MustParse("/org/hotnets/papers/dip")
	id := n.ID()
	for k := 0; k <= n.Len(); k++ {
		p := n.Prefix(k)
		bits := p.PrefixBits()
		if bits != 4*k {
			t.Fatalf("PrefixBits(%d) = %d", k, bits)
		}
		if bits == 0 {
			continue
		}
		mask := ^uint32(0) << uint(32-bits)
		if p.ID()&mask != id&mask {
			t.Errorf("prefix %s ID %#08x disagrees with full ID %#08x in first %d bits", p, p.ID(), id, bits)
		}
	}
}

func TestIDNibblesNonZero(t *testing.T) {
	f := func(a, b string) bool {
		a = sanitize(a)
		b = sanitize(b)
		if a == "" || b == "" {
			return true
		}
		n, err := Parse(a + "/" + b)
		if err != nil {
			return true
		}
		id := n.ID()
		return id>>28 != 0 && (id>>24)&0xF != 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func sanitize(s string) string {
	s = strings.ReplaceAll(s, "/", "")
	if len(s) > 20 {
		s = s[:20]
	}
	return s
}

func TestIDBeyondMaxComponents(t *testing.T) {
	long := MustParse("/a/b/c/d/e/f/g/h/i/j")
	capped := long.Prefix(MaxComponents)
	if long.ID() != capped.ID() {
		t.Error("components beyond MaxComponents must not change the ID")
	}
	if long.PrefixBits() != 32 {
		t.Errorf("PrefixBits = %d", long.PrefixBits())
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	n := MustParse("/org/hotnets")
	id, err := r.Register(n)
	if err != nil {
		t.Fatal(err)
	}
	if id != n.ID() {
		t.Errorf("Register = %#08x, want the name's ID %#08x", id, n.ID())
	}
	// Re-registering the same name is fine.
	if _, err := r.Register(n); err != nil {
		t.Errorf("idempotent register failed: %v", err)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			r.Register(MustParse("/a/b"))
		}
	}()
	for i := 0; i < 100; i++ {
		r.Register(MustParse("/c/d"))
	}
	<-done
}

func BenchmarkNameID(b *testing.B) {
	n := MustParse("/org/hotnets/papers/dip/sections/4")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.ID()
	}
}
