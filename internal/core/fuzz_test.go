package core

import (
	"bytes"
	"testing"
)

// FuzzParseView: arbitrary bytes must never panic the parser, and anything
// it accepts must be internally consistent (accessors in bounds,
// re-marshalling reproduces the header). Every input also goes through
// ExecContext.Load on a context still holding another packet: Load must
// accept exactly what ParseView accepts, see the same view and leave the
// triples decoded as View.FN reads them; a Load that fails must leave
// nothing for Process to execute; and Reset after a Load must leave the
// reset view's triples decoded.
func FuzzParseView(f *testing.F) {
	prior, _ := (&Header{
		FNs:       []FN{RouterFN(0, 8, KeyFIB), RouterFN(0, 8, KeyFIB), RouterFN(0, 8, KeyFIB)},
		Locations: []byte{1},
	}).AppendTo(nil)
	fib := &testOp{key: KeyFIB}
	reg := NewRegistry()
	reg.MustRegister(fib)
	e := NewEngine(reg, Limits{})
	seed, _ := (&Header{
		NextHeader: 6,
		HopLimit:   64,
		FNs: []FN{
			RouterFN(0, 32, KeyMatch32),
			HostFN(0, 544, KeyVer),
		},
		Locations: make([]byte, 68),
	}).AppendTo(nil)
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{Version, 0, 0, 0, 0, 0})
	f.Add([]byte{Version, 0, 255, 0, 255, 255})
	// A valid F_FIB triple, then one with the invalid key: Load has decoded
	// the first when it fails on the second.
	f.Add([]byte{Version, 0, 2, 9, 0x00, 0x20, 0, 0, 0, 8, 0, byte(KeyFIB), 0, 0, 0, 8, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := ParseView(data)
		var ctx ExecContext
		if err := ctx.Load(prior, 2); err != nil {
			t.Fatal(err)
		}
		lerr := ctx.Load(data, 1)
		if (err == nil) != (lerr == nil) {
			t.Fatalf("ParseView error %v, Load error %v", err, lerr)
		}
		if err != nil {
			fib.calls.Store(0)
			e.Process(&ctx)
			if n := fib.calls.Load(); n != 0 || ctx.View.FNNum() != 0 {
				t.Fatalf("a failed Load left %d FNs, and Process executed %d", ctx.View.FNNum(), n)
			}
			return
		}
		lv := ctx.View
		if lv.FNNum() != v.FNNum() || lv.HeaderLen() != v.HeaderLen() || lv.Parallel() != v.Parallel() ||
			!bytes.Equal(lv.Locations(), v.Locations()) || !bytes.Equal(lv.Payload(), v.Payload()) {
			t.Fatalf("Load view %v, ParseView view %v", lv, v)
		}
		for i := 0; i < v.FNNum(); i++ {
			if ctx.fns[i] != v.FN(i) {
				t.Fatalf("Load decoded FN %d as %v, View.FN reads %v", i, ctx.fns[i], v.FN(i))
			}
		}
		if err := ctx.Load(prior, 2); err != nil {
			t.Fatal(err)
		}
		ctx.Reset(v, 1)
		for i := 0; i < v.FNNum(); i++ {
			if ctx.fns[i] != v.FN(i) {
				t.Fatalf("Reset after Load left FN %d as %v, View.FN reads %v", i, ctx.fns[i], v.FN(i))
			}
		}
		// Everything the view exposes must be safe to touch.
		_ = v.NextHeader()
		_ = v.HopLimit()
		_ = v.Parallel()
		_ = v.Payload()
		_ = v.String()
		locs := v.Locations()
		for i := 0; i < v.FNNum(); i++ {
			fn := v.FN(i)
			// Operand bounds were validated at parse time.
			if int(fn.Loc)+int(fn.Len) > len(locs)*8 {
				t.Fatalf("FN %d operand out of validated bounds: %v over %d bytes", i, fn, len(locs))
			}
		}
		// Round trip: decode to builder form and re-encode.
		re, err := builderOf(v).AppendTo(nil)
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		if !bytes.Equal(re, data[:v.HeaderLen()]) {
			t.Fatalf("re-marshal differs:\n%x\n%x", re, data[:v.HeaderLen()])
		}
	})
}

// FuzzEngineProcess: the engine must never panic on any parseable packet,
// whatever the FN contents, with a fully loaded registry of misbehaving
// test operations.
func FuzzEngineProcess(f *testing.F) {
	seed, _ := (&Header{
		FNs:       []FN{RouterFN(0, 16, KeyFIB), RouterFN(8, 8, KeyPIT)},
		Locations: []byte{1, 2, 3},
	}).AppendTo(nil)
	f.Add(seed, false)
	f.Add(seed, true)
	f.Fuzz(func(t *testing.T, data []byte, parallel bool) {
		v, err := ParseView(data)
		if err != nil {
			return
		}
		if parallel && len(data) > 4 {
			data[4] |= 0x80 // force the parallel flag
			v, err = ParseView(data)
			if err != nil {
				return
			}
		}
		reg := NewRegistry()
		for k := Key(1); k <= 16; k++ {
			k := k
			reg.MustRegister(&testOp{key: k, stage: int(k) % 3, fn: func(ctx *ExecContext, loc, bits uint) error {
				// Touch the operand region like a real op would.
				locs := ctx.View.Locations()
				if int(loc)+int(bits) > len(locs)*8 {
					t.Fatalf("engine passed out-of-bounds operand [%d,+%d) of %d bytes", loc, bits, len(locs))
				}
				switch k % 4 {
				case 0:
					ctx.AddEgress(int(k))
				case 1:
					ctx.Drop(DropGuard)
				case 2:
					ctx.Deliver()
				}
				return nil
			}})
		}
		e := NewEngine(reg, Limits{MaxFNs: 32, MaxStateBytes: 1024})
		var ctx ExecContext
		ctx.Reset(v, 0)
		e.Process(&ctx)
		if ctx.Verdict > VerdictDrop {
			t.Fatalf("impossible verdict %d", ctx.Verdict)
		}
	})
}
