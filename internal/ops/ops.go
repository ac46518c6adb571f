// Package ops implements the operation modules of the paper's Table 1 —
// the shared L3 function core every protocol realization composes from —
// plus F_pass, the source-label guard of §2.4.
//
//	key  1  F_32_match   32-bit address longest-prefix match
//	key  2  F_128_match  128-bit address longest-prefix match
//	key  3  F_source     marks the packet's source-address field
//	key  4  F_FIB        content-name FIB match (+PIT record, +cache check)
//	key  5  F_PIT        pending-interest match and fan-out
//	key  6  F_parm       derive hop key, load authentication parameters
//	key  7  F_MAC        compute the hop validation tag (OPV)
//	key  8  F_mark       update the path-verification mark (PVF)
//	key  9  F_ver        destination verification (host operation)
//	key 10  F_DAG        XIA DAG traversal
//	key 11  F_intent     XIA intent handling
//	key 12  F_pass       source-label verification
//
// Each module is constructed with the router (or host) state it needs and
// registered in a core.Registry; the engine dispatches to it by operation
// key. Modules are safe for concurrent use and the router-side ones are
// allocation-free except where they legitimately create router state (PIT
// entries, cache insertions) or run AES-CMAC (whose per-packet key schedule
// is precisely the cost the paper's 2EM choice avoids).
package ops

import (
	"dip/internal/core"
	"dip/internal/cs"
	"dip/internal/drkey"
	"dip/internal/fib"
	"dip/internal/opt"
	"dip/internal/pit"
	"dip/internal/xia"
)

// SessionStore resolves OPT sessions for host-side verification (F_ver).
type SessionStore interface {
	// LookupSession returns the session negotiated under the 16-byte ID.
	LookupSession(id []byte) (*opt.Session, bool)
}

// IntentHandler reacts to an XIA intent reached at this node. Returning
// true means the intent was handled (e.g. content scheduled for serving);
// false falls back to plain local delivery.
type IntentHandler interface {
	HandleIntent(ctx *core.ExecContext, intent xia.XID) bool
}

// Config carries the node state the operation modules bind to. Only the
// fields needed by the FNs a node actually registers must be set.
type Config struct {
	// FIB32/FIB128 back F_32_match and F_128_match.
	FIB32  *fib.Table
	FIB128 *fib.Table
	// NameFIB, PIT and ContentStore back F_FIB and F_PIT. ContentStore may
	// be nil (no caching; the paper's prototype router "has no cached
	// data", footnote 2). A store with a cold tier (cs.Store.OpenCold) has
	// its cold hits parked in the PIT and satisfied by async re-injection.
	NameFIB      *fib.Table
	PIT          *pit.Table[uint32]
	ContentStore *cs.Store[uint32]
	// Secret, MACKind, PrevLabel and HopIndex configure F_parm/F_MAC/F_mark.
	Secret    *drkey.SecretValue
	MACKind   opt.Kind
	PrevLabel [16]byte
	HopIndex  uint8
	// XIARoutes backs F_DAG; Intent handles F_intent (nil ⇒ deliver).
	XIARoutes xia.Resolver
	Intent    IntentHandler
	// Sessions backs the host-side F_ver.
	Sessions SessionStore
	// GuardKey backs F_pass.
	GuardKey [16]byte
	// RequirePass puts the node in content-poisoning defense posture:
	// F_PIT refuses to cache payloads that did not pass F_pass (§2.4).
	// Operators flip this on the fly by building a new registry with it
	// set and Router.ReplaceRegistry-ing it in.
	RequirePass bool
}

// NewRouterRegistry builds the dispatch table a DIP router advertises: all
// router-executable operations the config has state for. Operations whose
// dependencies are nil are skipped, modelling heterogeneous FN
// configurations across ASes (§2.4).
func NewRouterRegistry(cfg Config) *core.Registry {
	reg := core.NewRegistry()
	if cfg.FIB32 != nil {
		reg.MustRegister(NewMatch32(cfg.FIB32))
	}
	if cfg.FIB128 != nil {
		reg.MustRegister(NewMatch128(cfg.FIB128))
	}
	reg.MustRegister(NewSource())
	if cfg.NameFIB != nil && cfg.PIT != nil {
		reg.MustRegister(
			NewFIB(cfg.NameFIB, cfg.PIT, cfg.ContentStore),
			NewPIT(cfg.PIT, cfg.ContentStore, cfg.RequirePass),
		)
	}
	if cfg.Secret != nil {
		reg.MustRegister(
			NewParm(cfg.Secret, cfg.MACKind, cfg.PrevLabel, cfg.HopIndex),
			NewMAC(cfg.MACKind),
			NewMark(cfg.MACKind),
		)
		// Path authentication requires every on-path AS (§2.4): routers
		// that lack these must signal, so advertise that policy.
		reg.SetPolicy(core.KeyParm, core.PolicySignal)
		reg.SetPolicy(core.KeyMAC, core.PolicySignal)
		reg.SetPolicy(core.KeyMark, core.PolicySignal)
	}
	if cfg.XIARoutes != nil {
		reg.MustRegister(NewDAG(cfg.XIARoutes), NewIntent(cfg.Intent, cfg.XIARoutes))
	}
	reg.MustRegister(NewPass(&cfg.GuardKey))
	reg.MustRegister(NewCtl())
	return reg
}

// NewHostRegistry builds the dispatch table a host stack uses for the FNs
// tagged host-executed (currently F_ver).
func NewHostRegistry(cfg Config) *core.Registry {
	reg := core.NewRegistry()
	if cfg.Sessions != nil {
		reg.MustRegister(NewVer(cfg.Sessions))
	}
	return reg
}
