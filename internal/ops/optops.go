package ops

import (
	"fmt"

	"dip/internal/bitfield"
	"dip/internal/cmac"
	"dip/internal/core"
	"dip/internal/crypto2em"
	"dip/internal/drkey"
	"dip/internal/opt"
)

// maxMACInput bounds the operand F_MAC will hash (the standard OPT region
// is 52 bytes; generous headroom allows composed layouts).
const maxMACInput = 240

// Parm is F_parm (key 6): "instruct the router to generate the key and load
// other parameters (e.g., previous validator node label)" (paper §3). Its
// operand is the 128-bit session ID; the derived key and the router's
// parameters flow to F_MAC/F_mark through the execution context. It runs in
// parallel stage 0 because the other authentication modules consume its
// output.
type Parm struct {
	secret    *drkey.SecretValue
	kind      opt.Kind
	prevLabel [16]byte
	hopIndex  uint8
}

// NewParm builds the module from the router's DRKey secret and OPT config.
func NewParm(secret *drkey.SecretValue, kind opt.Kind, prevLabel [16]byte, hopIndex uint8) *Parm {
	return &Parm{secret: secret, kind: kind, prevLabel: prevLabel, hopIndex: hopIndex}
}

// Key implements core.Operation.
func (o *Parm) Key() core.Key { return core.KeyParm }

// Name implements core.Operation.
func (o *Parm) Name() string { return core.KeyParm.String() }

// Stage implements core.Stager: parameters load before everything else.
func (o *Parm) Stage() int { return 0 }

// Execute implements core.Operation.
func (o *Parm) Execute(ctx *core.ExecContext, loc, bits uint) error {
	if bits != 128 {
		return fmt.Errorf("ops: F_parm operand is %d bits, want 128 (session ID)", bits)
	}
	locs := ctx.View.Locations()
	sid, ok := bitfield.View(locs, loc, bits)
	if !ok {
		var buf [16]byte
		if _, err := bitfield.Bytes(buf[:], locs, loc, bits); err != nil {
			return err
		}
		sid = buf[:]
	}
	if err := o.secret.SessionKey(ctx.Crypto.Key[:], sid); err != nil {
		return err
	}
	ctx.Crypto.HaveKey, ctx.Crypto.HaveCipher = true, false
	ctx.Crypto.PrevNode = o.prevLabel
	ctx.Crypto.HopIndex = o.hopIndex
	return nil
}

// macInto computes the configured MAC of msg under the context's hop key.
// The 2EM path is allocation-free (no key schedule; F_MAC and F_mark share one
// expansion through ctx.Crypto); the AES-CMAC path pays a per-packet key
// schedule — the asymmetry the paper's §4.1 is about, measured by E3.
func macInto(kind opt.Kind, ctx *core.ExecContext, out, msg []byte) error {
	switch kind {
	case opt.Kind2EM:
		c := &ctx.Crypto
		if !c.HaveCipher {
			c.Cipher, c.HaveCipher = crypto2em.FromMaster(&c.Key), true
		}
		c.Cipher.SumInto(out, msg)
		return nil
	case opt.KindAESCMAC:
		m, err := cmac.New(ctx.Crypto.Key[:])
		if err != nil {
			return err
		}
		m.SumInto(out, msg)
		return nil
	default:
		return fmt.Errorf("ops: %w: %d", opt.ErrUnknownKind, kind)
	}
}

// MAC is F_MAC (key 7): compute this hop's validation tag (OPT's OPV) over
// the operand region — standalone-OPT triple (loc: 0, len: 416, key: 7) —
// plus the previous-validator label loaded by F_parm, writing the 128-bit
// tag into the OPV slot that directly follows the operand (slot selection
// by the router's hop index). It must run before F_mark so the tag covers
// the pre-update PVF.
type MAC struct {
	kind opt.Kind
}

// NewMAC builds the module.
func NewMAC(kind opt.Kind) *MAC { return &MAC{kind: kind} }

// Key implements core.Operation.
func (o *MAC) Key() core.Key { return core.KeyMAC }

// Name implements core.Operation.
func (o *MAC) Name() string { return core.KeyMAC.String() }

// Stage implements core.Stager.
func (o *MAC) Stage() int { return 1 }

// Execute implements core.Operation.
func (o *MAC) Execute(ctx *core.ExecContext, loc, bits uint) error {
	if !ctx.Crypto.HaveKey {
		return fmt.Errorf("ops: F_MAC without a loaded key (missing F_parm?)")
	}
	if bits == 0 || bits > maxMACInput*8 {
		return fmt.Errorf("ops: F_MAC operand is %d bits, max %d", bits, maxMACInput*8)
	}
	locs := ctx.View.Locations()
	input, ok := bitfield.View(locs, loc, bits)
	if !ok {
		return fmt.Errorf("ops: F_MAC operand [%d,+%d) not byte-aligned", loc, bits)
	}
	slot := loc + bits + 128*uint(ctx.Crypto.HopIndex)
	out, ok := bitfield.View(locs, slot, 128)
	if !ok {
		return fmt.Errorf("ops: F_MAC tag slot [%d,+128) unavailable (hop index %d)",
			slot, ctx.Crypto.HopIndex)
	}
	var msg [maxMACInput + 16]byte
	n := copy(msg[:], input)
	n += copy(msg[n:], ctx.Crypto.PrevNode[:])
	return macInto(o.kind, ctx, out, msg[:n])
}

// Mark is F_mark (key 8): fold this hop's key into the path-verification
// field in place — PVF ← MAC_{K_i}(PVF) — standalone-OPT triple
// (loc: 288, len: 128, key: 8). Runs in stage 2, after F_MAC captured the
// pre-update value.
type Mark struct {
	kind opt.Kind
}

// NewMark builds the module.
func NewMark(kind opt.Kind) *Mark { return &Mark{kind: kind} }

// Key implements core.Operation.
func (o *Mark) Key() core.Key { return core.KeyMark }

// Name implements core.Operation.
func (o *Mark) Name() string { return core.KeyMark.String() }

// Stage implements core.Stager: marks apply after tags are computed.
func (o *Mark) Stage() int { return 2 }

// Execute implements core.Operation.
func (o *Mark) Execute(ctx *core.ExecContext, loc, bits uint) error {
	if !ctx.Crypto.HaveKey {
		return fmt.Errorf("ops: F_mark without a loaded key (missing F_parm?)")
	}
	if bits != 128 {
		return fmt.Errorf("ops: F_mark operand is %d bits, want 128 (PVF)", bits)
	}
	pvf, ok := bitfield.View(ctx.View.Locations(), loc, bits)
	if !ok {
		return fmt.Errorf("ops: F_mark operand [%d,+128) not byte-aligned", loc)
	}
	var tmp [16]byte
	if err := macInto(o.kind, ctx, tmp[:], pvf); err != nil {
		return err
	}
	copy(pvf, tmp[:])
	return nil
}

// Ver is F_ver (key 9), the host operation (tag bit set): the destination
// re-derives the whole tag chain from its session state and the payload,
// delivering the packet on success and dropping it on any mismatch.
type Ver struct {
	sessions SessionStore
}

// NewVer builds the module over the host's session store.
func NewVer(s SessionStore) *Ver { return &Ver{sessions: s} }

// Key implements core.Operation.
func (o *Ver) Key() core.Key { return core.KeyVer }

// Name implements core.Operation.
func (o *Ver) Name() string { return core.KeyVer.String() }

// Execute implements core.Operation.
func (o *Ver) Execute(ctx *core.ExecContext, loc, bits uint) error {
	if bits%8 != 0 {
		return fmt.Errorf("ops: F_ver operand is %d bits, want whole bytes", bits)
	}
	region, ok := bitfield.View(ctx.View.Locations(), loc, bits)
	if !ok {
		return fmt.Errorf("ops: F_ver operand [%d,+%d) not byte-aligned", loc, bits)
	}
	if len(region) < opt.BaseSize {
		return fmt.Errorf("ops: F_ver region %d bytes, want ≥ %d", len(region), opt.BaseSize)
	}
	r, err := opt.AsRegion(region)
	if err != nil {
		return err
	}
	sess, found := o.sessions.LookupSession(r.SessionID())
	if !found {
		ctx.Drop(core.DropVerifyFailed)
		return nil
	}
	if err := sess.Verify(region, ctx.View.Payload()); err != nil {
		ctx.Drop(core.DropVerifyFailed)
		return nil
	}
	ctx.Deliver()
	return nil
}
