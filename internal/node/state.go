package node

import (
	"dip/internal/cs"
	"dip/internal/drkey"
	"dip/internal/fib"
	"dip/internal/ops"
	"dip/internal/opt"
	"dip/internal/pit"
	"dip/internal/xia"
)

// State bundles the forwarding state a fully-featured DIP node keeps.
// Zero-valued fields are valid: a node built from a fresh State supports
// every operation in Table 1 except those needing extra configuration (XIA
// routes, OPT secret). Build fills one from a Spec; callers that hand-wire a
// router (benchmarks, examples) fill one directly.
type State struct {
	FIB32        *fib.Table
	FIB128       *fib.Table
	NameFIB      *fib.Table
	PIT          *pit.Table[uint32]
	ContentStore *cs.Store[uint32]
	Secret       *drkey.SecretValue
	MACKind      opt.Kind
	PrevLabel    [16]byte
	HopIndex     uint8
	XIARoutes    *xia.RouteTable
	GuardKey     [16]byte
	// RequirePass puts the node in content-poisoning defense posture
	// (F_PIT refuses to cache unlabelled payloads, §2.4).
	RequirePass bool
}

// NewState allocates fresh tables (no content store; see EnableCache).
func NewState() *State {
	return &State{
		FIB32:     fib.New(),
		FIB128:    fib.New(),
		NameFIB:   fib.New(),
		PIT:       pit.New[uint32](),
		XIARoutes: xia.NewRouteTable(),
	}
}

// EnableCache attaches a content store of the given capacity (one shard,
// exact LRU). A cold tier is the store's own: ContentStore.OpenCold, then
// SetReinject before serving traffic and Close when done (Build does all
// three).
func (s *State) EnableCache(capacity int) *State {
	s.ContentStore = cs.New[uint32](capacity)
	return s
}

// EnableOPT attaches the DRKey secret and MAC configuration the
// authentication operations need.
func (s *State) EnableOPT(secret *drkey.SecretValue, kind opt.Kind, prevLabel [16]byte, hopIndex uint8) *State {
	s.Secret = secret
	s.MACKind = kind
	s.PrevLabel = prevLabel
	s.HopIndex = hopIndex
	return s
}

// OpsConfig converts the node state into the operation-module binding.
func (s *State) OpsConfig() ops.Config {
	return ops.Config{
		FIB32:        s.FIB32,
		FIB128:       s.FIB128,
		NameFIB:      s.NameFIB,
		PIT:          s.PIT,
		ContentStore: s.ContentStore,
		Secret:       s.Secret,
		MACKind:      s.MACKind,
		PrevLabel:    s.PrevLabel,
		HopIndex:     s.HopIndex,
		XIARoutes:    s.XIARoutes,
		GuardKey:     s.GuardKey,
		RequirePass:  s.RequirePass,
	}
}
