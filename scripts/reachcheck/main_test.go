package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestNormalize(t *testing.T) {
	for _, c := range []struct{ sym, want string }{
		{"dip/internal/lpm.(*BitTrie[go.shape.struct { Port int }]).Lookup", "dip/internal/lpm.BitTrie.Lookup"},
		{"dip/x.(*Table[go.shape.map[string]go.shape.struct { A [2]int }]).Get", "dip/x.Table.Get"},
		{"dip/x.Keys[go.shape.uint32,go.shape.[]uint8]", "dip/x.Keys"},
		{"dip/x.(*Engine).Process.func1.2", "dip/x.Engine.Process"},
		{"dip/x.(*Router).Close.deferwrap1", "dip/x.Router.Close"},
		{"dip/x.Serve.gowrap1", "dip/x.Serve"},
		{"dip/x.View.Len", "dip/x.View.Len"},
		{"dip/x.init.0", "dip/x.init"},
		{"dip/x.init", "dip/x.init"},
	} {
		if got := normalize(c.sym); got != c.want {
			t.Errorf("normalize(%q) = %q, want %q", c.sym, got, c.want)
		}
	}
}

// TestFixtureModule runs the whole check on a throwaway module whose program
// calls A (and a generic method, which links under a shape name) but not B,
// with one allowlist line naming a function that does not exist.
func TestFixtureModule(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"go.mod": "module fix\n\ngo 1.22\n",
		"lib/lib.go": `package lib

type Box[T any] struct{ v T }

func (b *Box[T]) Get() T { return b.v }

func A() int { defer func() {}(); return 1 }

func B() int { return 2 }
`,
		"cmd/app/main.go": `package main

import "fix/lib"

func main() { println(lib.A(), (&lib.Box[int]{}).Get()) }
`,
		"scripts/reachcheck/allow.txt": "# fixture\nfix/lib.C E1 stale\n",
	} {
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := run(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"lib/lib.go:9 fix/lib.B",
		"scripts/reachcheck/allow.txt:2 stale: fix/lib.C matches no unlinked function",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("problems:\n%q\nwant:\n%q", got, want)
	}
}
