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
	TieredStore  *cs.Tiered[uint32]
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
// exact LRU).
func (s *State) EnableCache(capacity int) *State {
	s.ContentStore = cs.New[uint32](capacity)
	return s
}

// EnableTieredCache layers a file-backed cold arena under a fresh sharded
// hot tier: hot evictions spill to disk under insert-on-second-hit
// admission, and cold hits are served by async re-injection so forwarders
// never block on a read. The returned store must be Closed by the caller
// (it owns the arena file and reader pool); wire its completion callback
// with SetReinject before serving traffic (Build does both).
func (s *State) EnableTieredCache(capacity, shards int, cold cs.ColdConfig) (*cs.Tiered[uint32], error) {
	hot := cs.NewSharded[uint32](capacity, shards)
	t, err := cs.NewTiered(hot, cold)
	if err != nil {
		return nil, err
	}
	s.ContentStore = hot
	s.TieredStore = t
	return t, nil
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
		TieredStore:  s.TieredStore,
		Secret:       s.Secret,
		MACKind:      s.MACKind,
		PrevLabel:    s.PrevLabel,
		HopIndex:     s.HopIndex,
		XIARoutes:    s.XIARoutes,
		GuardKey:     s.GuardKey,
		RequirePass:  s.RequirePass,
	}
}
