// In-fabric route exchange: the distributed control plane that makes DIP
// topologies self-managing instead of statically configured. Routers run a
// Speaker each; speakers advertise reachability (prefix sets for all three
// FIBs, plus the FN catalog of §2.3) to their neighbors over the DIP fabric
// itself — advertisements ride ordinary DIP packets carrying an F_ctl FN,
// which the ingress guard classifies as control class so convergence
// survives bulk overload.
//
// The protocol is a small distance vector with the classic stabilizers:
// split horizon (a route is never advertised back out the port it was
// learned on), a metric ceiling, triggered updates (changes flood
// immediately instead of waiting for the next refresh), explicit withdraws
// flooded on link-down (fault-driven reconvergence), withdraw responses (a
// neighbor that still reaches a withdrawn prefix answers with its
// alternative immediately, which is what bounds blackhole duration), and
// periodic refresh with soft-state expiry as the fallback when faults eat
// the withdraw itself.
//
// Every message applies to the FIBs through one batched Txn per table —
// one snapshot publish per message, not per route — and a refresh cycle
// that changes nothing publishes nothing (the fib no-op-commit contract),
// so idle control traffic never invalidates dataplane reader caches.
package bootstrap

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"dip/internal/core"
	"dip/internal/fib"
)

// Route-exchange message types, continuing the discovery protocol's space.
const (
	// TypeAdvertise carries reachable prefixes and the sender's FN catalog.
	TypeAdvertise = 3
	// TypeWithdraw revokes previously advertised prefixes.
	TypeWithdraw = 4
)

// RouteKind says which FIB a route entry belongs to.
type RouteKind uint8

// Route kinds.
const (
	// Kind32 is a 32-bit address prefix (FIB32 / F_32_match).
	Kind32 RouteKind = 1
	// Kind128 is a 128-bit address prefix (FIB128 / F_128_match).
	Kind128 RouteKind = 2
	// KindName is a 32-bit content-name prefix (NameFIB / F_FIB).
	KindName RouteKind = 3
)

// String names the kind.
func (k RouteKind) String() string {
	switch k {
	case Kind32:
		return "route32"
	case Kind128:
		return "route128"
	case KindName:
		return "name"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

func (k RouteKind) prefixBytes() int {
	if k == Kind128 {
		return 16
	}
	return 4
}

func (k RouteKind) maxPlen() uint8 {
	if k == Kind128 {
		return 128
	}
	return 32
}

// RouteEntry is one advertised (or withdrawn) prefix. Prefix holds the
// first prefixBytes() of the address left-aligned; Metric is the
// advertiser's distance to the prefix (hops; 0 = originated).
type RouteEntry struct {
	Kind   RouteKind
	Plen   uint8
	Metric uint8
	Prefix [16]byte
}

// Entry32 builds a Kind32 entry from a 32-bit prefix value.
func Entry32(key uint32, plen, metric int) RouteEntry {
	e := RouteEntry{Kind: Kind32, Plen: uint8(plen), Metric: uint8(metric)}
	binary.BigEndian.PutUint32(e.Prefix[:4], key)
	return e
}

// EntryName builds a KindName entry from a 32-bit content-name prefix.
func EntryName(key uint32, plen, metric int) RouteEntry {
	e := Entry32(key, plen, metric)
	e.Kind = KindName
	return e
}

// Entry128 builds a Kind128 entry from up to 16 prefix bytes.
func Entry128(prefix []byte, plen, metric int) RouteEntry {
	e := RouteEntry{Kind: Kind128, Plen: uint8(plen), Metric: uint8(metric)}
	copy(e.Prefix[:], prefix)
	return e
}

// key is a RouteEntry identity (metric excluded): what the RIB indexes on.
type routeKey struct {
	kind   RouteKind
	plen   uint8
	prefix [16]byte
}

func keyOf(e RouteEntry) routeKey {
	return routeKey{kind: e.Kind, plen: e.Plen, prefix: e.Prefix}
}

func (k routeKey) entry(metric int) RouteEntry {
	return RouteEntry{Kind: k.kind, Plen: k.plen, Metric: uint8(metric), Prefix: k.prefix}
}

// Exchange is a decoded route-exchange message.
type Exchange struct {
	Type    byte // TypeAdvertise or TypeWithdraw
	Origin  string
	Seq     uint32
	Routes  []RouteEntry
	Catalog Catalog // advertisements only
}

// EncodeAdvertise builds an advertisement:
//
//	[type][seq u32][olen u8][origin][nroutes u16]
//	  [kind u8, plen u8, metric u8, prefix (4|16)]*
//	[ncat u16][key u16, policy u8]*
func EncodeAdvertise(origin string, seq uint32, routes []RouteEntry, cat Catalog) []byte {
	out := encodeEnvelope(TypeAdvertise, origin, seq, routes)
	out = binary.BigEndian.AppendUint16(out, uint16(len(cat)))
	for _, e := range cat {
		out = binary.BigEndian.AppendUint16(out, uint16(e.Key))
		out = append(out, byte(e.Policy))
	}
	return out
}

// EncodeWithdraw builds a withdraw (same envelope, no catalog).
func EncodeWithdraw(origin string, seq uint32, routes []RouteEntry) []byte {
	return encodeEnvelope(TypeWithdraw, origin, seq, routes)
}

func encodeEnvelope(typ byte, origin string, seq uint32, routes []RouteEntry) []byte {
	if len(origin) > 255 {
		origin = origin[:255]
	}
	out := make([]byte, 0, 8+len(origin)+len(routes)*19)
	out = append(out, typ)
	out = binary.BigEndian.AppendUint32(out, seq)
	out = append(out, byte(len(origin)))
	out = append(out, origin...)
	out = binary.BigEndian.AppendUint16(out, uint16(len(routes)))
	for _, r := range routes {
		out = append(out, byte(r.Kind), r.Plen, r.Metric)
		out = append(out, r.Prefix[:r.Kind.prefixBytes()]...)
	}
	return out
}

// DecodeExchange parses an advertisement or withdraw. Unlike Decode (the
// discovery side), it validates every entry: kinds must be known, prefix
// lengths within the kind's bounds, and the byte counts exact — a hostile
// or truncated message errors instead of installing garbage routes.
func DecodeExchange(b []byte) (*Exchange, error) {
	if len(b) < 8 {
		return nil, ErrBadMessage
	}
	ex := &Exchange{Type: b[0]}
	if ex.Type != TypeAdvertise && ex.Type != TypeWithdraw {
		return nil, fmt.Errorf("%w: type %d", ErrBadMessage, b[0])
	}
	ex.Seq = binary.BigEndian.Uint32(b[1:5])
	olen := int(b[5])
	b = b[6:]
	if len(b) < olen+2 {
		return nil, fmt.Errorf("%w: truncated origin", ErrBadMessage)
	}
	ex.Origin = string(b[:olen])
	n := int(binary.BigEndian.Uint16(b[olen : olen+2]))
	b = b[olen+2:]
	// Cap the allocation by what the remaining bytes could possibly hold
	// (7 bytes minimum per entry) so a hostile count cannot balloon memory.
	capHint := n
	if m := len(b) / 7; capHint > m {
		capHint = m
	}
	ex.Routes = make([]RouteEntry, 0, capHint)
	for i := 0; i < n; i++ {
		if len(b) < 3 {
			return nil, fmt.Errorf("%w: truncated route %d/%d", ErrBadMessage, i, n)
		}
		e := RouteEntry{Kind: RouteKind(b[0]), Plen: b[1], Metric: b[2]}
		if e.Kind != Kind32 && e.Kind != Kind128 && e.Kind != KindName {
			return nil, fmt.Errorf("%w: route kind %d", ErrBadMessage, b[0])
		}
		if e.Plen > e.Kind.maxPlen() {
			return nil, fmt.Errorf("%w: %v plen %d", ErrBadMessage, e.Kind, e.Plen)
		}
		pb := e.Kind.prefixBytes()
		if len(b) < 3+pb {
			return nil, fmt.Errorf("%w: truncated prefix", ErrBadMessage)
		}
		copy(e.Prefix[:pb], b[3:3+pb])
		b = b[3+pb:]
		ex.Routes = append(ex.Routes, e)
	}
	if ex.Type == TypeWithdraw {
		if len(b) != 0 {
			return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, len(b))
		}
		return ex, nil
	}
	if len(b) < 2 {
		return nil, fmt.Errorf("%w: missing catalog", ErrBadMessage)
	}
	nc := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) != 3*nc {
		return nil, fmt.Errorf("%w: catalog %d entries, %d bytes", ErrBadMessage, nc, len(b))
	}
	ex.Catalog = make(Catalog, nc)
	for i := 0; i < nc; i++ {
		ex.Catalog[i] = CatalogEntry{
			Key:    core.Key(binary.BigEndian.Uint16(b[3*i:])),
			Policy: core.UnknownPolicy(b[3*i+2]),
		}
	}
	return ex, nil
}

// SpeakerConfig wires a Speaker to its router's state.
type SpeakerConfig struct {
	// Name labels the speaker in messages and diagnostics.
	Name string
	// FIB32/FIB128/NameFIB are the tables learned routes install into.
	// Nil tables reject routes of that kind.
	FIB32, FIB128, NameFIB *fib.Table
	// Catalog is the FN set advertised alongside routes (§2.3 gossip).
	Catalog Catalog
	// Now is the node's clock, in ns (virtual under netsim); nil is
	// core.Now.
	Now func() int64
	// HoldFor expires learned routes not refreshed within this window
	// (checked at each Refresh). Zero disables soft-state expiry.
	HoldFor time.Duration
	// MaxMetric is the reachability horizon; advertisements that would
	// exceed it are ignored. Zero means the default of 16.
	MaxMetric int
	// MaxRoutesPerMsg chunks large advertisements. Zero means 1024.
	MaxRoutesPerMsg int
	// Log receives one line per notable protocol event; nil discards.
	Log func(format string, args ...any)
}

// SpeakerStats counts protocol activity; all fields are cumulative.
type SpeakerStats struct {
	AdvertisesSent, WithdrawsSent                   int64
	AdvertisesRecv, WithdrawsRecv                   int64
	Malformed, Stale                                int64
	RoutesInstalled, RoutesWithdrawn, RoutesExpired int64
	// Commits counts FIB transactions that published a snapshot;
	// NoopBatches counts messages whose transactions changed nothing
	// (pure refresh — the fib no-op contract kept them publish-free).
	Commits, NoopBatches int64
	// RIB and Local are current sizes (learned and originated).
	RIB, Local int
}

type ribEntry struct {
	metric   int
	port     int
	lastSeen int64 // ns on the speaker's clock
}

type localRoute struct {
	nh         fib.NextHop
	suppressed bool // egress port is down; originate again on PortUp
}

type speakerNeighbor struct {
	port    int
	send    func(msg []byte)
	up      bool
	lastSeq uint32
	seen    bool // any message received yet (guards the first-seq compare)
	catalog Catalog
}

// outMsg is a message staged under the lock and sent after release, so
// synchronous transports (tests, in-process wiring) cannot deadlock two
// speakers against each other's mutexes.
type outMsg struct {
	nb  *speakerNeighbor
	msg []byte
	adv bool
}

// Speaker is one router's route-exchange agent.
type Speaker struct {
	mu        sync.Mutex
	cfg       SpeakerConfig
	seq       uint32
	local     map[routeKey]*localRoute
	rib       map[routeKey]ribEntry
	neighbors map[int]*speakerNeighbor
	stats     SpeakerStats
}

// NewSpeaker builds a speaker. Originate/OriginateFromFIBs seed what it
// advertises; AddNeighbor wires its adjacencies.
func NewSpeaker(cfg SpeakerConfig) *Speaker {
	if cfg.MaxMetric <= 0 {
		cfg.MaxMetric = 16
	}
	if cfg.MaxRoutesPerMsg <= 0 {
		cfg.MaxRoutesPerMsg = 1024
	}
	if cfg.Now == nil {
		cfg.Now = core.Now
	}
	return &Speaker{
		cfg:       cfg,
		local:     map[routeKey]*localRoute{},
		rib:       map[routeKey]ribEntry{},
		neighbors: map[int]*speakerNeighbor{},
	}
}

// AddNeighbor registers the adjacency reachable through port. send
// transmits one encoded message to that neighbor (the caller wraps it in
// the F_ctl control packet and puts it on the wire).
func (s *Speaker) AddNeighbor(port int, send func(msg []byte)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.neighbors[port] = &speakerNeighbor{port: port, send: send, up: true}
}

// Originate adds an entry to the speaker's own advertisement set. nh is
// the local egress (used to suppress the advertisement while that port is
// down); the route itself is assumed already installed in the FIB.
func (s *Speaker) Originate(e RouteEntry, nh fib.NextHop) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.local[keyOf(e)] = &localRoute{nh: nh}
}

// OriginateFromFIBs walks the configured FIB tables and originates every
// route currently installed — the static configuration becomes the
// speaker's advertisement seed.
func (s *Speaker) OriginateFromFIBs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	add := func(kind RouteKind) func(prefix []byte, plen int, nh fib.NextHop) bool {
		return func(prefix []byte, plen int, nh fib.NextHop) bool {
			e := RouteEntry{Kind: kind, Plen: uint8(plen)}
			copy(e.Prefix[:], prefix)
			s.local[keyOf(e)] = &localRoute{nh: nh}
			n++
			return true
		}
	}
	if s.cfg.FIB32 != nil {
		s.cfg.FIB32.Walk(add(Kind32))
	}
	if s.cfg.FIB128 != nil {
		s.cfg.FIB128.Walk(add(Kind128))
	}
	if s.cfg.NameFIB != nil {
		s.cfg.NameFIB.Walk(add(KindName))
	}
	return n
}

// Stats snapshots the counters.
func (s *Speaker) Stats() SpeakerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.RIB = len(s.rib)
	st.Local = len(s.local)
	return st
}

// NeighborCatalog returns the FN catalog the neighbor on port last
// advertised (§2.3 gossip), if any.
func (s *Speaker) NeighborCatalog(port int) (Catalog, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	nb := s.neighbors[port]
	if nb == nil || nb.catalog == nil {
		return nil, false
	}
	return nb.catalog, true
}

// Refresh runs one periodic cycle: expire learned routes past HoldFor
// (flooding withdraws for them), then advertise the full route set to
// every up neighbor. Call it on a timer; faster refresh means faster
// convergence when triggered updates are lost.
func (s *Speaker) Refresh() {
	s.mu.Lock()
	now := s.cfg.Now()
	var expired []RouteEntry
	if s.cfg.HoldFor > 0 {
		tx := s.txns()
		for k, e := range s.rib {
			if time.Duration(now-e.lastSeen) > s.cfg.HoldFor {
				delete(s.rib, k)
				tx.remove(k)
				expired = append(expired, k.entry(s.cfg.MaxMetric))
				s.stats.RoutesExpired++
			}
		}
		tx.commit(s)
	}
	var out []outMsg
	if len(expired) > 0 {
		s.logf("%s: expired %d stale routes", s.cfg.Name, len(expired))
		out = append(out, s.withdrawMsgs(expired, -1)...)
	}
	for _, nb := range s.neighbors {
		if !nb.up {
			continue
		}
		out = append(out, s.advertiseMsgs(s.exportTo(nb.port), nb)...)
	}
	s.mu.Unlock()
	s.dispatch(out)
}

// PortDown signals loss of the link on port (carrier loss, fault hook):
// the adjacency is marked down, every route learned through it is removed
// from the FIBs in one batch, withdraws flood to the remaining neighbors,
// and originated routes egressing the dead port stop being advertised.
func (s *Speaker) PortDown(port int) {
	s.mu.Lock()
	if nb := s.neighbors[port]; nb != nil {
		nb.up = false
	}
	tx := s.txns()
	var lost []RouteEntry
	for k, e := range s.rib {
		if e.port != port {
			continue
		}
		delete(s.rib, k)
		tx.remove(k)
		lost = append(lost, k.entry(s.cfg.MaxMetric))
		s.stats.RoutesWithdrawn++
	}
	for k, lr := range s.local {
		if lr.nh.Port == port && !lr.suppressed {
			lr.suppressed = true
			lost = append(lost, k.entry(s.cfg.MaxMetric))
		}
	}
	tx.commit(s)
	var out []outMsg
	if len(lost) > 0 {
		s.logf("%s: port %d down, withdrawing %d routes", s.cfg.Name, port, len(lost))
		out = s.withdrawMsgs(lost, port)
	}
	s.mu.Unlock()
	s.dispatch(out)
}

// PortUp signals link recovery: the adjacency resumes, suppressed local
// routes are re-originated, and a full advertisement goes to the revived
// neighbor immediately (plus a flood of the restored locals to everyone).
func (s *Speaker) PortUp(port int) {
	s.mu.Lock()
	var restored []RouteEntry
	for k, lr := range s.local {
		if lr.nh.Port == port && lr.suppressed {
			lr.suppressed = false
			restored = append(restored, k.entry(0))
		}
	}
	var out []outMsg
	if nb := s.neighbors[port]; nb != nil {
		nb.up = true
		out = append(out, s.advertiseMsgs(s.exportTo(port), nb)...)
	}
	if len(restored) > 0 {
		for _, nb := range s.neighbors {
			if !nb.up || nb.port == port {
				continue
			}
			out = append(out, s.advertiseMsgs(restored, nb)...)
		}
	}
	s.mu.Unlock()
	s.dispatch(out)
}

// Handle consumes one route-exchange message received on inPort, applying
// it to the FIBs through batched transactions and flooding triggered
// updates. It returns an error only for malformed messages (counted in
// Stats either way).
func (s *Speaker) Handle(msg []byte, inPort int) error {
	ex, err := DecodeExchange(msg)
	if err != nil {
		s.mu.Lock()
		s.stats.Malformed++
		s.mu.Unlock()
		return err
	}
	s.mu.Lock()
	nb := s.neighbors[inPort]
	if nb == nil || !nb.up {
		// Not an adjacency (or one we believe is down — a late packet in
		// flight); never install routes from it.
		s.stats.Stale++
		s.mu.Unlock()
		return nil
	}
	if nb.seen && int32(ex.Seq-nb.lastSeq) <= 0 {
		// Reordered or replayed: protocol state must only move forward.
		s.stats.Stale++
		s.mu.Unlock()
		return nil
	}
	nb.seen, nb.lastSeq = true, ex.Seq
	var out []outMsg
	if ex.Type == TypeAdvertise {
		s.stats.AdvertisesRecv++
		if ex.Catalog != nil {
			nb.catalog = ex.Catalog
		}
		out = s.applyAdvertise(ex, inPort)
	} else {
		s.stats.WithdrawsRecv++
		out = s.applyWithdraw(ex, inPort)
	}
	s.mu.Unlock()
	s.dispatch(out)
	return nil
}

// applyAdvertise installs new/better routes (one batched commit) and
// returns the triggered flood. Caller holds s.mu.
func (s *Speaker) applyAdvertise(ex *Exchange, inPort int) []outMsg {
	now := s.cfg.Now()
	tx := s.txns()
	var changed []RouteEntry
	for _, e := range ex.Routes {
		k := keyOf(e)
		if _, isLocal := s.local[k]; isLocal {
			continue // we originate it; nothing to learn
		}
		m := int(e.Metric) + 1
		if m > s.cfg.MaxMetric {
			// Unreachable (poisoned); treat as a withdraw if we were
			// routing through this neighbor.
			if cur, ok := s.rib[k]; ok && cur.port == inPort {
				delete(s.rib, k)
				tx.remove(k)
				changed = append(changed, k.entry(s.cfg.MaxMetric))
				s.stats.RoutesWithdrawn++
			}
			continue
		}
		cur, ok := s.rib[k]
		switch {
		case ok && cur.port == inPort:
			cur.lastSeen = now
			if cur.metric != m {
				cur.metric = m
				changed = append(changed, k.entry(m))
			}
			s.rib[k] = cur
		case !ok || m < cur.metric:
			s.rib[k] = ribEntry{metric: m, port: inPort, lastSeen: now}
			tx.add(k, fib.NextHop{Port: inPort})
			changed = append(changed, k.entry(m))
			s.stats.RoutesInstalled++
		}
	}
	tx.commit(s)
	if len(changed) == 0 {
		return nil
	}
	s.logf("%s: learned %d routes from port %d", s.cfg.Name, len(changed), inPort)
	var out []outMsg
	for _, nb := range s.neighbors {
		if !nb.up || nb.port == inPort {
			continue // split horizon: all changes point at inPort
		}
		out = append(out, s.advertiseMsgs(changed, nb)...)
	}
	return out
}

// applyWithdraw removes routes learned via inPort (one batched commit),
// floods the loss onward, and answers with any alternatives this speaker
// still has — the withdraw response that bounds blackhole duration.
// Caller holds s.mu.
func (s *Speaker) applyWithdraw(ex *Exchange, inPort int) []outMsg {
	tx := s.txns()
	var lost, survive []RouteEntry
	for _, e := range ex.Routes {
		k := keyOf(e)
		if lr, isLocal := s.local[k]; isLocal {
			if !lr.suppressed {
				survive = append(survive, k.entry(0))
			}
			continue
		}
		cur, ok := s.rib[k]
		if !ok {
			continue
		}
		if cur.port == inPort {
			delete(s.rib, k)
			tx.remove(k)
			lost = append(lost, k.entry(s.cfg.MaxMetric))
			s.stats.RoutesWithdrawn++
		} else {
			// We route around the withdrawing neighbor already: offer the
			// alternative straight back.
			survive = append(survive, k.entry(cur.metric))
		}
	}
	tx.commit(s)
	var out []outMsg
	if len(lost) > 0 {
		s.logf("%s: withdrew %d routes via port %d", s.cfg.Name, len(lost), inPort)
		out = append(out, s.withdrawMsgs(lost, inPort)...)
	}
	if nb := s.neighbors[inPort]; nb != nil && nb.up && len(survive) > 0 {
		out = append(out, s.advertiseMsgs(survive, nb)...)
	}
	return out
}

// exportTo builds the advertisement set for the neighbor on port: every
// unsuppressed local route at metric 0 plus every learned route at its
// metric — except, split horizon, those learned through that very port.
// Caller holds s.mu.
func (s *Speaker) exportTo(port int) []RouteEntry {
	out := make([]RouteEntry, 0, len(s.local)+len(s.rib))
	for k, lr := range s.local {
		if !lr.suppressed {
			out = append(out, k.entry(0))
		}
	}
	for k, e := range s.rib {
		if e.port != port {
			out = append(out, k.entry(e.metric))
		}
	}
	return out
}

// advertiseMsgs chunks routes into advertisement messages for nb.
// Caller holds s.mu.
func (s *Speaker) advertiseMsgs(routes []RouteEntry, nb *speakerNeighbor) []outMsg {
	if len(routes) == 0 {
		return nil
	}
	var out []outMsg
	for off := 0; off < len(routes); off += s.cfg.MaxRoutesPerMsg {
		end := off + s.cfg.MaxRoutesPerMsg
		if end > len(routes) {
			end = len(routes)
		}
		s.seq++
		out = append(out, outMsg{
			nb:  nb,
			msg: EncodeAdvertise(s.cfg.Name, s.seq, routes[off:end], s.cfg.Catalog),
			adv: true,
		})
	}
	return out
}

// withdrawMsgs chunks routes into withdraw messages for every up neighbor
// except exceptPort (-1 floods everywhere). Caller holds s.mu.
func (s *Speaker) withdrawMsgs(routes []RouteEntry, exceptPort int) []outMsg {
	var out []outMsg
	for _, nb := range s.neighbors {
		if !nb.up || nb.port == exceptPort {
			continue
		}
		for off := 0; off < len(routes); off += s.cfg.MaxRoutesPerMsg {
			end := off + s.cfg.MaxRoutesPerMsg
			if end > len(routes) {
				end = len(routes)
			}
			s.seq++
			out = append(out, outMsg{
				nb:  nb,
				msg: EncodeWithdraw(s.cfg.Name, s.seq, routes[off:end]),
			})
		}
	}
	return out
}

// dispatch sends staged messages outside the lock.
func (s *Speaker) dispatch(msgs []outMsg) {
	for _, m := range msgs {
		s.mu.Lock()
		if m.adv {
			s.stats.AdvertisesSent++
		} else {
			s.stats.WithdrawsSent++
		}
		s.mu.Unlock()
		m.nb.send(m.msg)
	}
}

func (s *Speaker) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log(format, args...)
	}
}

// txnSet lazily opens one batched transaction per FIB table so a whole
// message commits with at most one snapshot publish per table.
type txnSet struct {
	s                *Speaker
	t32, t128, tname *fib.Txn
}

func (s *Speaker) txns() *txnSet { return &txnSet{s: s} }

func (tx *txnSet) for_(kind RouteKind) *fib.Txn {
	switch kind {
	case Kind32:
		if tx.t32 == nil && tx.s.cfg.FIB32 != nil {
			tx.t32 = tx.s.cfg.FIB32.Txn()
		}
		return tx.t32
	case Kind128:
		if tx.t128 == nil && tx.s.cfg.FIB128 != nil {
			tx.t128 = tx.s.cfg.FIB128.Txn()
		}
		return tx.t128
	case KindName:
		if tx.tname == nil && tx.s.cfg.NameFIB != nil {
			tx.tname = tx.s.cfg.NameFIB.Txn()
		}
		return tx.tname
	}
	return nil
}

func (tx *txnSet) add(k routeKey, nh fib.NextHop) {
	if t := tx.for_(k.kind); t != nil {
		t.Add(k.prefix[:k.kind.prefixBytes()], int(k.plen), nh)
	}
}

func (tx *txnSet) remove(k routeKey) {
	if t := tx.for_(k.kind); t != nil {
		t.Remove(k.prefix[:k.kind.prefixBytes()], int(k.plen))
	}
}

// commit publishes each opened transaction (at most one snapshot publish
// per table; publish-free when nothing changed) and updates the stats.
func (tx *txnSet) commit(s *Speaker) {
	for _, t := range []*fib.Txn{tx.t32, tx.t128, tx.tname} {
		if t == nil {
			continue
		}
		if t.Changed() {
			s.stats.Commits++
		} else {
			s.stats.NoopBatches++
		}
		t.Commit()
	}
}
