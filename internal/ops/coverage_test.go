package ops

import (
	"testing"

	"dip/internal/core"
	"dip/internal/cs"
	"dip/internal/fib"
	"dip/internal/opt"
	"dip/internal/xia"
)

// Every module must report the key it registers under and a paper-style
// name, and stages must order parm < {MAC, DAG} < {mark, intent}.
func TestModuleMetadata(t *testing.T) {
	cfg := routerCfg(t)
	cfg.XIARoutes = xia.NewRouteTable()
	reg := NewRouterRegistry(cfg)
	wantNames := map[core.Key]string{
		core.KeyMatch32:  "F_32_match",
		core.KeyMatch128: "F_128_match",
		core.KeySource:   "F_source",
		core.KeyFIB:      "F_FIB",
		core.KeyPIT:      "F_PIT",
		core.KeyParm:     "F_parm",
		core.KeyMAC:      "F_MAC",
		core.KeyMark:     "F_mark",
		core.KeyDAG:      "F_DAG",
		core.KeyIntent:   "F_intent",
		core.KeyPass:     "F_pass",
	}
	for key, want := range wantNames {
		op := reg.Get(key)
		if op == nil {
			t.Errorf("%v not registered", key)
			continue
		}
		if op.Key() != key {
			t.Errorf("%v reports key %v", want, op.Key())
		}
		if op.Name() != want {
			t.Errorf("key %d name %q, want %q", key, op.Name(), want)
		}
	}
	stage := func(k core.Key) int {
		if s, ok := reg.Get(k).(core.Stager); ok {
			return s.Stage()
		}
		return 1
	}
	if !(stage(core.KeyParm) < stage(core.KeyMAC) && stage(core.KeyMAC) < stage(core.KeyMark)) {
		t.Error("OPT stages out of order")
	}
	if !(stage(core.KeyDAG) < stage(core.KeyIntent)) {
		t.Error("XIA stages out of order")
	}
	if stage(core.KeyPass) != 0 {
		t.Error("guard must run in stage 0")
	}
	ver := NewVer(nil)
	if ver.Name() != "F_ver" || ver.Key() != core.KeyVer {
		t.Error("F_ver metadata")
	}
}

// Operand-shape violations must drop with DropOpError, per module.
func TestOperandShapeErrors(t *testing.T) {
	cfg := routerCfg(t)
	cfg.XIARoutes = xia.NewRouteTable()
	reg := NewRouterRegistry(cfg)
	cases := []struct {
		name string
		fn   core.FN
		locs int
	}{
		{"match128 wrong width", core.RouterFN(0, 64, core.KeyMatch128), 16},
		{"fib wrong width", core.RouterFN(0, 64, core.KeyFIB), 16},
		{"fib zero width", core.RouterFN(0, 0, core.KeyFIB), 16},
		{"pit wrong width", core.RouterFN(0, 64, core.KeyPIT), 16},
		{"parm wrong width", core.RouterFN(0, 64, core.KeyParm), 16},
		{"mac oversized", core.RouterFN(0, 2048, core.KeyMAC), 256},
		{"mac unaligned", core.RouterFN(1, 416, core.KeyMAC), 70},
		{"mark wrong width", core.RouterFN(0, 64, core.KeyMark), 16},
		{"mark unaligned", core.RouterFN(3, 128, core.KeyMark), 20},
		{"dag unaligned", core.RouterFN(2, 32, core.KeyDAG), 20},
		{"intent unaligned", core.RouterFN(2, 32, core.KeyIntent), 20},
		{"pass unaligned", core.RouterFN(4, 160, core.KeyPass), 32},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := &core.Header{
				FNs: []core.FN{
					core.RouterFN(0, 128, core.KeyParm), // arm crypto for MAC/mark cases
					c.fn,
				},
				Locations: make([]byte, c.locs),
			}
			ctx := run(t, reg, h, 0)
			if ctx.Verdict != core.VerdictDrop || ctx.Reason != core.DropOpError {
				t.Errorf("got %v/%v", ctx.Verdict, ctx.Reason)
			}
		})
	}
}

// Unaligned-but-valid operands on the copy paths of Match128 and Parm.
func TestUnalignedOperandsStillWork(t *testing.T) {
	cfg := routerCfg(t)
	pfx := make([]byte, 16)
	pfx[0] = 0b10100000
	cfg.FIB128.Add(pfx, 4, struct{ Port int }{Port: 2})
	reg := NewRouterRegistry(cfg)
	// Destination placed at bit offset 4: forces the bitfield copy path.
	locs := make([]byte, 17)
	locs[0] = 0x0A // the first operand nibble lands at 0b1010....
	h := &core.Header{
		FNs:       []core.FN{core.RouterFN(4, 128, core.KeyMatch128)},
		Locations: locs,
	}
	ctx := run(t, reg, h, 0)
	if ctx.Verdict != core.VerdictForward || ctx.EgressPorts()[0] != 2 {
		t.Errorf("unaligned match128: %v %v (%v)", ctx.Verdict, ctx.EgressPorts(), ctx.Reason)
	}

	// Parm with a session ID at bit offset 4.
	h2 := &core.Header{
		FNs:       []core.FN{core.RouterFN(4, 128, core.KeyParm)},
		Locations: make([]byte, 17),
	}
	ctx = run(t, reg, h2, 0)
	if ctx.Verdict != core.VerdictContinue {
		t.Errorf("unaligned parm: %v/%v", ctx.Verdict, ctx.Reason)
	}
	if !ctx.Crypto.HaveKey {
		t.Error("key not derived from unaligned session ID")
	}
}

// The PIT-full path must surface as a state-budget drop, not a crash.
func TestFIBPITFull(t *testing.T) {
	cfg := routerCfg(t)
	cfg.NameFIB.AddUint32(0, 0, struct{ Port int }{Port: 1})
	reg := NewRouterRegistry(cfg)
	// Exhaust the PIT.
	for i := uint32(0); ; i++ {
		if _, err := cfg.PIT.AddInterest(i, 0); err != nil {
			break
		}
		if i > 1<<20 {
			t.Fatal("PIT never filled")
		}
	}
	ctx := run(t, reg, ndnInterestHeader(0xFFFFFFFF), 3)
	if ctx.Verdict != core.VerdictDrop || ctx.Reason != core.DropStateBudget {
		t.Errorf("got %v/%v", ctx.Verdict, ctx.Reason)
	}
}

// Remaining edge paths: guarded PIT registration, AES-CMAC ops, host-side
// F_ver operand validation, and XIA error propagation.
func TestGuardedRegistryCachesOnlyLabelled(t *testing.T) {
	cfg := routerCfg(t)
	cfg.NameFIB.AddUint32(0xAA000000, 8, fib.NextHop{Port: 1})
	cfg.ContentStore = cs.New[uint32](8)
	cfg.RequirePass = true
	reg := NewRouterRegistry(cfg)

	// Interest installs PIT state; unlabelled data forwards but is not cached.
	run(t, reg, ndnInterestHeader(0xAA000009), 5)
	ctx := runPayload(t, reg, ndnDataHeader(0xAA000009), 1, []byte("x"))
	if ctx.Verdict != core.VerdictForward {
		t.Fatalf("data verdict %v", ctx.Verdict)
	}
	if _, cached := cfg.ContentStore.Get(0xAA000009); cached {
		t.Fatal("unlabelled payload cached in require-pass mode")
	}
}

func TestOPTWithAESCMACKind(t *testing.T) {
	cfg := routerCfg(t)
	cfg.MACKind = opt.KindAESCMAC
	reg := NewRouterRegistry(cfg)
	h := &core.Header{
		FNs: []core.FN{
			core.RouterFN(128, 128, core.KeyParm),
			core.RouterFN(0, 416, core.KeyMAC),
			core.RouterFN(288, 128, core.KeyMark),
		},
		Locations: make([]byte, 68),
	}
	ctx := run(t, reg, h, 0)
	if ctx.Verdict != core.VerdictContinue {
		t.Fatalf("verdict %v/%v", ctx.Verdict, ctx.Reason)
	}
}

func TestVerOperandValidation(t *testing.T) {
	store := sessions{}
	reg := NewHostRegistry(Config{Sessions: store})
	e := core.NewHostEngine(reg, core.Limits{})
	runHost := func(h *core.Header) *core.ExecContext {
		t.Helper()
		b, err := h.AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		v, err := core.ParseView(b)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &core.ExecContext{}
		ctx.Reset(v, 0)
		e.Process(ctx)
		return ctx
	}
	// Unaligned operand.
	ctx := runHost(&core.Header{
		FNs:       []core.FN{core.HostFN(0, 545, core.KeyVer)},
		Locations: make([]byte, 69),
	})
	if ctx.Reason != core.DropOpError {
		t.Errorf("unaligned: %v", ctx.Reason)
	}
	// Region smaller than the OPT base.
	ctx = runHost(&core.Header{
		FNs:       []core.FN{core.HostFN(0, 64, core.KeyVer)},
		Locations: make([]byte, 8),
	})
	if ctx.Reason != core.DropOpError {
		t.Errorf("small region: %v", ctx.Reason)
	}
}

func TestDAGErrorsPropagate(t *testing.T) {
	cfg := routerCfg(t)
	cfg.XIARoutes = xia.NewRouteTable()
	reg := NewRouterRegistry(cfg)
	// A corrupt DAG encoding (zero nodes) must drop as an op error.
	h := &core.Header{
		FNs:       []core.FN{core.RouterFN(0, 32, core.KeyDAG)},
		Locations: []byte{0xFF, 0, 0, 0},
	}
	ctx := run(t, reg, h, 0)
	if ctx.Reason != core.DropOpError {
		t.Errorf("dag: %v", ctx.Reason)
	}
	h.FNs[0].Key = core.KeyIntent
	ctx = run(t, reg, h, 0)
	if ctx.Reason != core.DropOpError {
		t.Errorf("intent: %v", ctx.Reason)
	}
}
