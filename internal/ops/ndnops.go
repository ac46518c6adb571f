package ops

import (
	"errors"
	"fmt"

	"dip/internal/bitfield"
	"dip/internal/core"
	"dip/internal/cs"
	"dip/internal/fib"
	"dip/internal/pit"
)

// FIB is F_FIB (key 4): the content-name forwarding operation interest
// packets carry (paper §3, triple (loc: 0, len: 32, key: 4)). Per the NDN
// forwarding rules it folds three steps into one module:
//
//  1. content-store check (footnote 2: match the local store before the FIB),
//  2. FIB longest-prefix match on the 32-bit name to pick the egress,
//  3. PIT recording of the ingress port (with interest aggregation).
type FIB struct {
	fib *fib.Table
	pit *pit.Table[uint32]
	// store is nil without caching. With a cold tier, a RAM miss probes the
	// cold index, and a cold hit parks the interest in the PIT while an
	// async reader fetches the slot — the forwarder never blocks on disk.
	store *cs.Store[uint32]
}

// NewFIB builds the module. store may be nil.
func NewFIB(t *fib.Table, p *pit.Table[uint32], store *cs.Store[uint32]) *FIB {
	return &FIB{fib: t, pit: p, store: store}
}

// Key implements core.Operation.
func (o *FIB) Key() core.Key { return core.KeyFIB }

// Name implements core.Operation.
func (o *FIB) Name() string { return core.KeyFIB.String() }

// Execute implements core.Operation.
func (o *FIB) Execute(ctx *core.ExecContext, loc, bits uint) error {
	if bits == 0 || bits > 32 {
		return fmt.Errorf("ops: F_FIB operand is %d bits, want 1..32", bits)
	}
	v, err := bitfield.Uint64(ctx.View.Locations(), loc, bits)
	if err != nil {
		return err
	}
	name := uint32(v) << (32 - bits)
	if o.store != nil {
		if data, ok := o.store.Get(name); ok {
			ctx.Cached, ctx.CachedName = data, name
			ctx.Absorb()
			return nil
		}
	}
	// A cold hit means the content is on local disk: the interest parks in
	// the PIT exactly as for an upstream fetch, but no packet leaves the
	// router — the reader pool re-injects the data once the slot is read.
	// Like the hot tier, the cold tier is checked before the FIB (footnote
	// 2's ordering), so a cold hit is served even with no route.
	coldHit := o.store != nil && o.store.ColdContains(name)
	nh, ok := o.fib.LookupUint32(name)
	if !coldHit {
		if !ok {
			ctx.Drop(core.DropNoRoute)
			return nil
		}
		if nh.Port == fib.PortLocal {
			ctx.Deliver()
			return nil
		}
	}
	if !ctx.ChargeState(pit.EntryCost) {
		return nil // budget drop already recorded
	}
	created, err := o.pit.AddInterest(name, ctx.InPort)
	if err != nil {
		if errors.Is(err, pit.ErrFull) {
			ctx.Drop(core.DropStateBudget)
			return nil
		}
		if errors.Is(err, pit.ErrPortCap) {
			// One port at its flood cap sheds only its own interests; the
			// shared table stays available to everyone else.
			ctx.Drop(core.DropFlood)
			return nil
		}
		return err
	}
	if !created {
		ctx.Absorb() // aggregated onto a pending interest; do not forward
		return nil
	}
	if coldHit {
		if o.store.RequestCold(name) {
			ctx.Absorb() // parked; the async read will satisfy the PIT entry
			return nil
		}
		// The read was refused (pending table full, or the entry vanished
		// between probe and request): fall back to forwarding upstream when
		// a route exists. Without one the stale PIT entry is left for the
		// sweeper, the same end state as a lost upstream fetch.
		if !ok {
			ctx.Drop(core.DropNoRoute)
			return nil
		}
	}
	ctx.AddEgress(nh.Port)
	return nil
}

// PIT is F_PIT (key 5): the pending-interest match data packets carry
// (triple (loc: 0, len: 32, key: 5)). A hit replicates the packet to every
// recorded request port and optionally caches the payload; a miss discards
// the packet (paper §3).
type PIT struct {
	pit   *pit.Table[uint32]
	store *cs.Store[uint32] // nil disables caching
	// requirePass gates cache insertion on a prior successful F_pass
	// check — the content-poisoning defense posture of §2.4.
	requirePass bool
}

// NewPIT builds the module. store may be nil. With requirePass, payloads only
// enter the content store when the packet carried a valid F_pass label.
func NewPIT(p *pit.Table[uint32], store *cs.Store[uint32], requirePass bool) *PIT {
	return &PIT{pit: p, store: store, requirePass: requirePass}
}

// Key implements core.Operation.
func (o *PIT) Key() core.Key { return core.KeyPIT }

// Name implements core.Operation.
func (o *PIT) Name() string { return core.KeyPIT.String() }

// Execute implements core.Operation.
func (o *PIT) Execute(ctx *core.ExecContext, loc, bits uint) error {
	if bits == 0 || bits > 32 {
		return fmt.Errorf("ops: F_PIT operand is %d bits, want 1..32", bits)
	}
	v, err := bitfield.Uint64(ctx.View.Locations(), loc, bits)
	if err != nil {
		return err
	}
	name := uint32(v) << (32 - bits)
	var buf [pit.MaxPortsPerEntry]int
	ports, ok := o.pit.Consume(buf[:0], name)
	if !ok {
		ctx.Drop(core.DropPITMiss)
		return nil
	}
	for _, p := range ports {
		ctx.AddEgress(p)
	}
	if o.store != nil && (!o.requirePass || ctx.Passed) {
		payload := ctx.View.Payload()
		if ctx.ChargeState(len(payload)) {
			o.store.Put(name, payload)
		}
	}
	return nil
}
