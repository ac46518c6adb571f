package ops

import (
	"encoding/binary"
	"fmt"
	"testing"

	"dip/internal/core"
	"dip/internal/cs"
	"dip/internal/fib"
)

// labelledData is a data packet for name carrying a valid F_pass label, so
// F_PIT caches it in require-pass mode too.
func labelledData(cfg *Config, name uint32) *core.Header {
	locs := make([]byte, 20)
	binary.BigEndian.PutUint32(locs, name)
	StampLabel(&cfg.GuardKey, locs[4:], locs[:4])
	return &core.Header{
		FNs:       []core.FN{core.RouterFN(0, PassOperandBits, core.KeyPass), core.RouterFN(0, 32, core.KeyPIT)},
		Locations: locs,
	}
}

// TestFIBPITOverStores runs F_FIB and F_PIT, each from its one constructor,
// over no store, a RAM store and a store with a synchronous cold tier, with
// require-pass off and on: a hot hit absorbs; require-pass keeps unlabelled
// payloads out; and with a cold tier, a cold hit parks in the PIT and
// absorbs (with or without a route), a refused cold read falls back to the
// FIB, and a Put of changed bytes frees the stale cold slot.
func TestFIBPITOverStores(t *testing.T) {
	const (
		routed   = 0xAA000000 // names under aa/8 route to port 2
		unrouted = 0xBB000000
		filler   = routed + 0xFF
	)
	for _, kind := range []string{"nostore", "store", "cold"} {
		for _, requirePass := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/requirepass%v", kind, requirePass), func(t *testing.T) {
				cfg := routerCfg(t)
				cfg.NameFIB.AddUint32(routed, 8, fib.NextHop{Port: 2})
				reinjected := map[uint32]string{}
				var gate func() // run once inside the next cold read
				switch kind {
				case "store":
					cfg.ContentStore = cs.New[uint32](1)
				case "cold":
					cfg.ContentStore = cs.New[uint32](1)
					if err := cfg.ContentStore.OpenCold(cs.ColdConfig{Slots: 16, PendingCap: 1, ReadGate: func() {
						if g := gate; g != nil {
							gate = nil
							g()
						}
					}}); err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { cfg.ContentStore.Close() })
					cfg.ContentStore.SetReinject(func(k uint32, data []byte, _, _ int64) { reinjected[k] = string(data) })
				}
				store := cfg.ContentStore
				cfg.RequirePass = requirePass
				reg := NewRouterRegistry(cfg)
				expect := func(what string, ctx *core.ExecContext, verdict core.Verdict, egress ...int) {
					t.Helper()
					if ctx.Verdict != verdict || fmt.Sprint(ctx.EgressPorts()) != fmt.Sprint(egress) {
						t.Fatalf("%s: %v/%v egress %v, want %v egress %v", what, ctx.Verdict, ctx.Reason, ctx.EgressPorts(), verdict, egress)
					}
				}
				interest := func(name uint32, inPort int) *core.ExecContext {
					t.Helper()
					return run(t, reg, ndnInterestHeader(name), inPort)
				}
				data := func(name uint32, payload string) *core.ExecContext {
					t.Helper()
					return runPayload(t, reg, labelledData(&cfg, name), 2, []byte(payload))
				}

				// A hot hit absorbs with the cached payload.
				a := uint32(routed + 1)
				expect("first interest", interest(a, 5), core.VerdictForward, 2)
				expect("data", data(a, "content A"), core.VerdictForward, 5)
				ctx := interest(a, 6)
				if store == nil {
					expect("repeat interest without a store", ctx, core.VerdictForward, 2)
				} else if expect("hot hit", ctx, core.VerdictAbsorb); string(ctx.Cached) != "content A" {
					t.Fatalf("hot hit served %q", ctx.Cached)
				}

				// Require-pass keeps an unlabelled payload out of the store.
				b := uint32(routed + 2)
				expect("interest B", interest(b, 5), core.VerdictForward, 2)
				expect("unlabelled data", runPayload(t, reg, ndnDataHeader(b), 2, []byte("B")), core.VerdictForward, 5)
				if store != nil {
					if _, cached := store.Get(b); cached == requirePass {
						t.Fatalf("unlabelled payload cached=%v with requirePass=%v", cached, requirePass)
					}
				}

				// Without a cold tier an unrouted name has nowhere to go.
				if kind != "cold" {
					expect("unrouted interest", interest(unrouted+1, 5), core.VerdictDrop)
					return
				}
				spill := func(name uint32, payload string) { // touched, then evicted to the arena
					store.Put(name, []byte(payload))
					store.Get(name)
					store.Put(filler, []byte("filler"))
					if !store.ColdContains(name) {
						t.Fatalf("setup: %#x not cold", name)
					}
				}

				// A cold hit parks the interest in the PIT, absorbs, and the read
				// re-injects the payload, whose data packet then serves the parked port.
				c := uint32(routed + 3)
				spill(c, "cold C")
				expect("cold hit", interest(c, 6), core.VerdictAbsorb)
				if !cfg.PIT.Pending(c) || reinjected[c] != "cold C" {
					t.Fatalf("cold hit: pending=%v reinjected %q", cfg.PIT.Pending(c), reinjected[c])
				}
				expect("re-injected data", data(c, reinjected[c]), core.VerdictForward, 6)

				// A cold hit is served even with no route.
				z := uint32(unrouted + 1)
				spill(z, "far")
				expect("unrouted cold hit", interest(z, 6), core.VerdictAbsorb)
				if reinjected[z] != "far" {
					t.Fatalf("unrouted cold hit re-injected %q", reinjected[z])
				}

				// With the one pending-read slot taken, a cold read is refused: a
				// routed interest falls back to the FIB, an unrouted one drops.
				r1, r2, z2 := uint32(routed+4), uint32(routed+5), uint32(unrouted+2)
				spill(r1, "R1")
				spill(r2, "R2")
				spill(z2, "Z2")
				gate = func() {
					expect("refused cold read", interest(r2, 7), core.VerdictForward, 2)
					expect("refused unrouted cold read", interest(z2, 7), core.VerdictDrop)
				}
				expect("cold hit holding the read slot", interest(r1, 6), core.VerdictAbsorb)
				if gate != nil || store.Stats().PendingRejected != 2 {
					t.Fatalf("refusals: gate ran=%v PendingRejected=%d", gate == nil, store.Stats().PendingRejected)
				}

				// Changed bytes for a cold name free its stale slot.
				s := uint32(routed + 6)
				spill(s, "version 1")
				used := store.Stats().ColdSlotsUsed
				expect("cold hit S", interest(s, 6), core.VerdictAbsorb)
				expect("changed data", data(s, "version 2"), core.VerdictForward, 6)
				if store.ColdContains(s) || store.Stats().ColdSlotsUsed != used-1 {
					t.Fatalf("stale cold slot kept: cold=%v slots %d → %d", store.ColdContains(s), used, store.Stats().ColdSlotsUsed)
				}
			})
		}
	}
}
