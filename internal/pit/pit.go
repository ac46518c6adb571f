// Package pit implements the pending interest table behind F_PIT and the
// native NDN forwarder.
//
// A PIT records, per requested content name, the ports on which interests
// arrived; a returning data packet consumes the entry and is replicated to
// those ports, while a data packet with no entry is discarded (paper §3:
// "forwards it to the recorded request port (match hit) or discards the
// packet (match miss)"). Interests for a name already pending aggregate
// instead of being forwarded again — the caller learns this from
// AddInterest's created result.
//
// Entries expire after a TTL so abandoned interests cannot pin router state
// forever; a capacity bound enforces the paper's §2.4 state-exhaustion
// defense at the table level (the per-packet budget lives in core.Limits).
//
// The table is split into power-of-two shards keyed by name hash so
// concurrent forwarding workers contend only when they touch the same shard.
// The capacity bound and the per-port flood caps stay global — they are
// atomic counters shared by every shard — so sharding changes scalability,
// never semantics: ErrFull still fires at exactly cap entries and ErrPortCap
// at exactly the configured per-port allowance, wherever the keys hash.
package pit

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"dip/internal/core"
	"dip/internal/nhash"
)

// ErrFull reports an insert into a PIT at capacity.
var ErrFull = errors.New("pit: table full")

// ErrPortCap reports an insert refused because the ingress port already has
// its full allowance of pending entries — the interest-flood defense that
// keeps one aggressive consumer from exhausting the shared table.
var ErrPortCap = errors.New("pit: per-port pending cap reached")

// MaxPortsPerEntry bounds interest aggregation per name.
const MaxPortsPerEntry = 8

// EntryCost is the accounting size of one PIT entry in bytes, charged
// against per-packet state budgets.
const EntryCost = 64

// DefaultTTL is the interest lifetime New uses unless WithTTL overrides it
// (NDN's customary value).
const DefaultTTL = 4 * time.Second

// DefaultShards is the shard count New uses unless WithShards overrides it.
// Eight shards cost ~3KB of fixed overhead and keep 8 workers from
// serializing; single-threaded callers lose nothing measurable.
const DefaultShards = 8

// Table is a pending interest table keyed by K (a 32-bit name ID on the
// DIP wire, a name string in the native NDN forwarder). It is safe for
// concurrent use; see the package comment for the sharding discipline.
type Table[K comparable] struct {
	shards []shard[K]
	mask   uint64

	ttl time.Duration
	cap int64
	now func() int64
	// size is the live entry count across all shards. Creations reserve a
	// slot with a CAS loop against cap, so the bound is exact.
	size    atomic.Int64
	expired atomic.Int64

	// portCap bounds how many pending (entry, port) charges any single
	// ingress port may hold; 0 disables the check. ports tracks the live
	// charges globally (a port's interests spread across shards),
	// portCapHits the refusals.
	portCap     int64
	ports       portTab
	portCapHits atomic.Int64
}

// shard is one lock domain: a private map, and a free list of entries so
// the create/consume steady state allocates nothing.
type shard[K comparable] struct {
	mu      sync.Mutex
	entries map[K]*entry
	free    []*entry
	_       [24]byte // keep neighboring shard locks off one cache line
}

type entry struct {
	ports   [MaxPortsPerEntry]int
	nports  int
	expires int64 // ns on the table's clock
}

// portTab tracks per-port pending charges as shared atomic counters. The
// read/charge path is lock-free once a port's counter exists; the RWMutex
// only guards counter creation (once per distinct port, ever).
type portTab struct {
	mu sync.RWMutex
	m  map[int]*atomic.Int64
}

func (p *portTab) counter(port int) *atomic.Int64 {
	p.mu.RLock()
	c := p.m[port]
	p.mu.RUnlock()
	if c != nil {
		return c
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if c = p.m[port]; c == nil {
		if p.m == nil {
			p.m = make(map[int]*atomic.Int64)
		}
		c = new(atomic.Int64)
		p.m[port] = c
	}
	return c
}

// pending returns the port's live charge count without creating a counter.
func (p *portTab) pending(port int) int {
	p.mu.RLock()
	c := p.m[port]
	p.mu.RUnlock()
	if c == nil {
		return 0
	}
	return int(c.Load())
}

// Option configures a Table.
type Option[K comparable] func(*Table[K])

// WithTTL sets the interest lifetime (default DefaultTTL).
func WithTTL[K comparable](ttl time.Duration) Option[K] {
	return func(t *Table[K]) { t.ttl = ttl }
}

// WithClock injects the node's clock, in ns (a simulation's virtual
// clock; tests). Nil is core.Now.
func WithClock[K comparable](now func() int64) Option[K] {
	return func(t *Table[K]) {
		if now != nil {
			t.now = now
		}
	}
}

// WithPerPortCap bounds the pending entries any single ingress port may
// hold (default 0 = unbounded). A port at its cap has further interests
// refused with ErrPortCap while well-behaved ports keep inserting — the
// per-source isolation the shared capacity bound alone cannot give.
func WithPerPortCap[K comparable](n int) Option[K] {
	return func(t *Table[K]) { t.portCap = int64(n) }
}

// WithShards sets the lock-shard count (rounded down to a power of two,
// minimum 1; default DefaultShards). More shards help when more forwarding
// workers hammer the table; semantics never change.
func WithShards[K comparable](n int) Option[K] {
	return func(t *Table[K]) { t.shards = make([]shard[K], nhash.Pow2(n)) }
}

// New returns an empty PIT.
func New[K comparable](opts ...Option[K]) *Table[K] {
	t := &Table[K]{
		ttl: DefaultTTL,
		cap: 65536,
		now: core.Now,
	}
	for _, o := range opts {
		o(t)
	}
	if t.shards == nil {
		t.shards = make([]shard[K], DefaultShards)
	}
	t.mask = uint64(len(t.shards) - 1)
	for i := range t.shards {
		t.shards[i].entries = make(map[K]*entry)
	}
	return t
}

func (t *Table[K]) shardOf(k K) *shard[K] {
	return &t.shards[nhash.Of(k)&t.mask]
}

// getEntry takes an entry from the shard's free list, or allocates one.
// Called with the shard lock held.
func (s *shard[K]) getEntry() *entry {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return e
	}
	return new(entry)
}

// AddInterest records that an interest for k arrived on port. created is
// true when no live entry existed (the caller should forward the interest
// upstream) and false when the interest aggregated onto an existing entry
// (the caller should not forward). ErrFull means the table is at capacity.
func (t *Table[K]) AddInterest(k K, port int) (created bool, err error) {
	sh := t.shardOf(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	now := t.now()
	e, ok := sh.entries[k]
	if ok && now > e.expires {
		t.removeLocked(sh, k, e)
		ok = false
	}
	if !ok {
		// Reserve a capacity slot first; the CAS loop keeps the global
		// bound exact even with every shard inserting at once.
		for {
			cur := t.size.Load()
			if cur >= t.cap {
				return false, ErrFull
			}
			if t.size.CompareAndSwap(cur, cur+1) {
				break
			}
		}
		if !t.chargePort(port) {
			t.size.Add(-1) // release the reservation
			return false, ErrPortCap
		}
		e = sh.getEntry()
		e.expires = now + int64(t.ttl)
		e.ports[0] = port
		e.nports = 1
		sh.entries[k] = e
		return true, nil
	}
	e.expires = now + int64(t.ttl)
	for i := 0; i < e.nports; i++ {
		if e.ports[i] == port {
			return false, nil
		}
	}
	if e.nports < MaxPortsPerEntry {
		if !t.chargePort(port) {
			return false, ErrPortCap
		}
		e.ports[e.nports] = port
		e.nports++
	}
	return false, nil
}

// chargePort accounts one pending entry against port, refusing at the cap.
func (t *Table[K]) chargePort(port int) bool {
	c := t.ports.counter(port)
	if t.portCap <= 0 {
		c.Add(1)
		return true
	}
	for {
		cur := c.Load()
		if cur >= t.portCap {
			t.portCapHits.Add(1)
			return false
		}
		if c.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// removeLocked deletes an entry (shard lock held), releases its per-port
// charges and capacity slot, and recycles the entry.
func (t *Table[K]) removeLocked(sh *shard[K], k K, e *entry) {
	delete(sh.entries, k)
	for i := 0; i < e.nports; i++ {
		t.ports.counter(e.ports[i]).Add(-1)
	}
	t.size.Add(-1)
	*e = entry{}
	sh.free = append(sh.free, e)
}

// Consume pops the entry for k, appending its request ports to dst and
// returning the extended slice. ok is false (and dst unchanged) when no live
// entry exists — the data packet should then be discarded. Passing a
// caller-owned dst keeps the hot path allocation-free.
func (t *Table[K]) Consume(dst []int, k K) (ports []int, ok bool) {
	sh := t.shardOf(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, found := sh.entries[k]
	if !found {
		return dst, false
	}
	expired := t.now() > e.expires
	if !expired {
		dst = append(dst, e.ports[:e.nports]...)
	}
	t.removeLocked(sh, k, e)
	return dst, !expired
}

// Pending reports whether a live entry exists for k without consuming it.
func (t *Table[K]) Pending(k K) bool {
	sh := t.shardOf(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[k]
	return ok && t.now() <= e.expires
}

// Len returns the number of entries, counting ones not yet swept.
func (t *Table[K]) Len() int {
	return int(t.size.Load())
}

// Expire sweeps dead entries and returns how many were removed. Routers
// call this periodically; correctness does not depend on it because every
// read path re-checks expiry. Shards are swept one at a time, so the sweep
// never stalls the whole table.
func (t *Table[K]) Expire() int {
	now := t.now()
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for k, e := range sh.entries {
			if now > e.expires {
				t.removeLocked(sh, k, e)
				n++
			}
		}
		sh.mu.Unlock()
	}
	t.expired.Add(int64(n))
	return n
}

// PortPending returns the live pending-entry charges held by one ingress
// port.
func (t *Table[K]) PortPending(port int) int {
	return t.ports.pending(port)
}

// PortCapRejections returns how many interests the per-port cap has refused
// over the table's lifetime.
func (t *Table[K]) PortCapRejections() int64 {
	return t.portCapHits.Load()
}

// ExpiredTotal returns how many entries sweeps have removed over the
// table's lifetime (lazy expiry on the read paths is not counted: those
// entries were superseded, not abandoned).
func (t *Table[K]) ExpiredTotal() int64 {
	return t.expired.Load()
}

// Scheduler arms the periodic sweep; the netsim Simulator satisfies it, so
// sweeps run in virtual time during simulations and on any caller-supplied
// timer in a live deployment.
type Scheduler interface {
	Schedule(delay time.Duration, fn func())
}

// SweepEvery runs Expire every interval on sched until the returned cancel
// function is called. onExpired, when non-nil, is invoked after each sweep
// that removed at least one entry (wire it to telemetry).
func (t *Table[K]) SweepEvery(sched Scheduler, interval time.Duration, onExpired func(removed int)) (cancel func()) {
	var stopped atomic.Bool
	var tick func()
	tick = func() {
		if stopped.Load() {
			return
		}
		if n := t.Expire(); n > 0 && onExpired != nil {
			onExpired(n)
		}
		sched.Schedule(interval, tick)
	}
	sched.Schedule(interval, tick)
	return func() { stopped.Store(true) }
}
