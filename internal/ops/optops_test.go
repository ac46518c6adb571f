package ops

import (
	"bytes"
	"testing"

	"dip/internal/core"
	"dip/internal/crypto2em"
	"dip/internal/opt"
)

// optPacket builds a one-hop standalone-OPT packet on a fresh session and
// returns its view with the region a native hop would leave behind.
func optPacket(t *testing.T, cfg Config) (v core.View, native []byte) {
	t.Helper()
	hop := opt.HopConfig{Secret: cfg.Secret, PrevLabel: cfg.PrevLabel}
	sess, err := opt.NewSession(cfg.MACKind, []opt.HopConfig{hop}, mustSecret(t, "dst"))
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("payload")
	region := make([]byte, opt.RegionSize(1))
	if err := sess.InitRegion(region, payload, 7); err != nil {
		t.Fatal(err)
	}
	native = append([]byte(nil), region...)
	if err := opt.ProcessHop(hop, cfg.MACKind, native); err != nil {
		t.Fatal(err)
	}
	h := &core.Header{
		FNs: []core.FN{
			core.RouterFN(128, 128, core.KeyParm),
			core.RouterFN(0, 416, core.KeyMAC),
			core.RouterFN(288, 128, core.KeyMark),
		},
		Locations: region,
	}
	b, err := h.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, err = core.ParseView(append(b, payload...)); err != nil {
		t.Fatal(err)
	}
	return v, native
}

// F_MAC and F_mark on one packet share one key expansion: F_MAC leaves the
// cipher in ctx.Crypto and F_mark uses what it finds there instead of
// expanding again — shown by planting a different cipher between the two.
func TestOPT2EMExpandsOncePerPacket(t *testing.T) {
	cfg := routerCfg(t)
	parm, mac, mark := NewParm(cfg.Secret, opt.Kind2EM, cfg.PrevLabel, 0), NewMAC(opt.Kind2EM), NewMark(opt.Kind2EM)
	v, _ := optPacket(t, cfg)
	ctx := &core.ExecContext{}
	ctx.Reset(v, 0)
	if err := parm.Execute(ctx, 128, 128); err != nil {
		t.Fatal(err)
	}
	if !ctx.Crypto.HaveKey || ctx.Crypto.HaveCipher {
		t.Fatalf("after F_parm: HaveKey=%v HaveCipher=%v, want a key and no cipher yet", ctx.Crypto.HaveKey, ctx.Crypto.HaveCipher)
	}
	if err := mac.Execute(ctx, 0, 416); err != nil {
		t.Fatal(err)
	}
	if !ctx.Crypto.HaveCipher || ctx.Crypto.Cipher != crypto2em.FromMaster(&ctx.Crypto.Key) {
		t.Fatal("F_MAC did not leave the hop key's expansion in ctx.Crypto")
	}
	planted := crypto2em.FromMaster(&[16]byte{0xEE})
	ctx.Crypto.Cipher = planted
	pvf := append([]byte(nil), v.Locations()[36:52]...)
	if err := mark.Execute(ctx, 288, 128); err != nil {
		t.Fatal(err)
	}
	if want := planted.Sum(nil, pvf); !bytes.Equal(v.Locations()[36:52], want) {
		t.Error("F_mark expanded the key again instead of using the packet's cipher")
	}
	// A second F_parm replaces the key, so the cipher beside it must go.
	if err := parm.Execute(ctx, 128, 128); err != nil {
		t.Fatal(err)
	}
	if ctx.Crypto.HaveCipher {
		t.Error("F_parm left the previous key's cipher valid")
	}
}

// A context carries nothing of one packet's cipher into the next: two
// sessions back to back on one context each come out as the native hop
// computes them, and Reset leaves no cipher behind.
func TestOPT2EMCipherDiesWithPacket(t *testing.T) {
	cfg := routerCfg(t)
	e := core.NewEngine(NewRouterRegistry(cfg), core.Limits{})
	ctx := &core.ExecContext{}
	var first crypto2em.Cipher
	for i := 0; i < 2; i++ {
		v, native := optPacket(t, cfg)
		ctx.Reset(v, 0)
		if ctx.Crypto.HaveCipher || ctx.Crypto.Cipher != (crypto2em.Cipher{}) {
			t.Fatalf("packet %d starts with the previous packet's cipher", i)
		}
		e.Process(ctx)
		if ctx.Verdict == core.VerdictDrop {
			t.Fatalf("packet %d dropped: %v", i, ctx.Reason)
		}
		if !bytes.Equal(v.Locations(), native) {
			t.Errorf("packet %d diverges from the native hop", i)
		}
		if i == 1 && ctx.Crypto.Cipher == first {
			t.Error("second session ran under the first session's cipher")
		}
		first = ctx.Crypto.Cipher
	}
}
