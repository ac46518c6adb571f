// Cold tier: a file-backed slot arena (arena.go) under the store's RAM tier, in
// the shape of ndn-dpdk's memory+disk content-store hierarchy. OpenCold
// attaches it once, when the store is built; a store without one pays a nil
// check on each of the paths below and nothing else.
//
// The contract that shapes everything here is that a forwarder must never
// block on disk. The hot path sees exactly three cheap operations: Get (a
// shard-locked map hit, zero allocations), ColdContains (one mutex + map
// probe on the in-RAM cold index), and RequestCold (mark the key pending and
// hand it to the reader pool). The actual pread happens on a reader
// goroutine, which re-injects the recovered payload through the router's
// normal ingress — the parked interest is satisfied by the same F_PIT
// consume/replicate machinery that handles any other data packet, and the
// payload is promoted back into the RAM tier by the same cache insert.
//
// Population is eviction-driven with insert-on-second-hit admission: the RAM
// tier's eviction hook hands the evicted entry over with a "was it ever
// touched after insert" bit, and only touched entries are written to the
// arena. One-hit-wonder churn — the bulk of any Zipf tail — therefore never
// costs a disk write.
//
// Lock order is always RAM-shard lock → cold-tier lock, never the reverse;
// the re-inject callback is invoked with no store lock held so it may freely
// re-enter the store (and will, via the router's cache insert).
package cs

import (
	"errors"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"dip/internal/core"
	"dip/internal/nhash"
)

// HistBuckets is the cold-read latency histogram width: log2 nanosecond
// buckets, mirroring internal/telemetry's layout so the export layer can
// reuse telemetry.BucketUpper for the bucket edges.
const HistBuckets = 36

// coldBucketOf maps a nanosecond duration to its log2 bucket, exactly as
// telemetry does for FN latencies.
func coldBucketOf(ns int64) int {
	b := 0
	for ns > 1 && b < HistBuckets-1 {
		ns >>= 1
		b++
	}
	return b
}

// ColdConfig sizes and wires the cold tier.
type ColdConfig struct {
	// Path is the arena backing file; empty means an unlinked temp file
	// that vanishes with the process.
	Path string
	// Slots is the arena slot count (required, > 0).
	Slots int
	// SlotSize is the payload capacity per slot in bytes (default 2048).
	SlotSize int
	// Readers sets the async reader pool size. 0 selects synchronous mode:
	// RequestCold performs the read and re-injection inline on the caller's
	// goroutine — the deterministic choice for virtual-time simulations,
	// where a background goroutine would race the sim clock.
	Readers int
	// PendingCap bounds the number of in-flight cold reads; beyond it
	// RequestCold refuses and the interest falls through as a miss
	// (default 1024).
	PendingCap int
	// SpillQueue bounds the eviction→disk handoff queue in async mode;
	// when full, evicted entries are dropped rather than stalling the
	// RAM-tier shard lock (default 256).
	SpillQueue int
	// Now is the node's clock, in ns: it stamps the cold-read latency
	// histogram and the read's start and end (nil is core.Now).
	// Simulations pass their virtual clock.
	Now func() int64
	// ReadGate, when set, is invoked immediately before every slot pread.
	// It exists for tests: blocking in the gate holds cold reads in flight
	// while the test proves the hot path stays unblocked.
	ReadGate func()
}

// coldEntry is the in-RAM index record for one arena slot. Length and
// checksum double as the identity of the stored bytes, letting Put detect
// whether a re-inserted object already matches its cold copy (promotion)
// or has genuinely changed (stale slot to free).
type coldEntry struct {
	slot     int
	length   uint32
	checksum uint32
}

type spillReq[K comparable] struct {
	key  K
	data []byte
}

// reinjectFn receives a completed cold read: the key, the payload (owned
// by the callee), and the read's start/end timestamps for span emission.
type reinjectFn[K comparable] func(k K, data []byte, readStartNs, readEndNs int64)

// TierStats is a point-in-time snapshot of both tiers.
type TierStats struct {
	HotHits         uint64 // Get successes
	ColdHits        uint64 // ColdContains successes (cold index had the key)
	Misses          uint64 // ColdContains failures: neither tier holds the key
	Spilled         uint64 // evictions written to the arena
	SpillDropped    uint64 // evictions lost: queue full, arena full, too large, or write error
	AdmitFiltered   uint64 // evictions rejected by insert-on-second-hit admission
	ReadErrors      uint64 // cold reads that failed verification or raced a removal
	Reinjected      uint64 // cold reads completed and delivered
	PendingRejected uint64 // RequestCold refusals (pending table at capacity)
	PendingReads    int    // cold reads currently in flight
	ColdSlotsUsed   int
	ColdSlots       int
	ColdReadCount   uint64
	ColdReadTotalNs uint64
	ColdReadHist    [HistBuckets]uint64 // log2-ns buckets, telemetry layout
	HotLen          int
	HotBytes        int
}

// coldTier is the optional part of a Store: the arena, its in-RAM index,
// the pending-read table, the reader pool and the tier counters.
type coldTier[K comparable] struct {
	arena *arena

	mu      sync.Mutex
	index   map[K]coldEntry
	pending map[K]struct{}
	closed  bool

	pendingCap int
	spills     chan spillReq[K] // nil in synchronous mode
	readq      chan K           // nil in synchronous mode
	wg         sync.WaitGroup

	reinject atomic.Pointer[reinjectFn[K]]
	now      func() int64
	readGate func()

	hotHits         atomic.Uint64
	coldHits        atomic.Uint64
	misses          atomic.Uint64
	spilled         atomic.Uint64
	spillDropped    atomic.Uint64
	admitFiltered   atomic.Uint64
	readErrors      atomic.Uint64
	reinjected      atomic.Uint64
	pendingRejected atomic.Uint64
	readCount       atomic.Uint64
	readTotalNs     atomic.Uint64
	readHist        [HistBuckets]atomic.Uint64
}

// OpenCold attaches the cold tier: it opens the arena file, starts the reader
// pool and routes RAM-tier evictions to the arena under second-hit
// admission. Call it once, right after New and before the store is shared;
// the caller then owns Close. Opening the file is the only step that can fail.
func (s *Store[K]) OpenCold(cfg ColdConfig) error {
	if s.cold != nil {
		return errors.New("cs: cold tier already open")
	}
	if cfg.SlotSize <= 0 {
		cfg.SlotSize = 2048
	}
	a, err := newArena(cfg.Path, cfg.Slots, cfg.SlotSize)
	if err != nil {
		return err
	}
	if cfg.PendingCap <= 0 {
		cfg.PendingCap = 1024
	}
	if cfg.SpillQueue <= 0 {
		cfg.SpillQueue = 256
	}
	c := &coldTier[K]{
		arena:      a,
		index:      make(map[K]coldEntry),
		pending:    make(map[K]struct{}),
		pendingCap: cfg.PendingCap,
		now:        cfg.Now,
		readGate:   cfg.ReadGate,
	}
	if c.now == nil {
		c.now = core.Now
	}
	if cfg.Readers > 0 {
		c.spills = make(chan spillReq[K], cfg.SpillQueue)
		c.readq = make(chan K, cfg.PendingCap)
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			for req := range c.spills {
				c.writeCold(req.key, req.data)
			}
		}()
		for i := 0; i < cfg.Readers; i++ {
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				for k := range c.readq {
					s.completeRead(k)
				}
			}()
		}
	}
	s.cold, s.onEvict = c, c.spill
	return nil
}

// SetReinject installs the completion callback for cold reads. In async
// mode it runs on a reader goroutine; in synchronous mode it runs inline
// inside RequestCold. Ownership of the payload passes to the callback.
// Without a cold tier it does nothing.
func (s *Store[K]) SetReinject(fn func(k K, data []byte, readStartNs, readEndNs int64)) {
	if s.cold == nil {
		return
	}
	f := reinjectFn[K](fn)
	s.cold.reinject.Store(&f)
}

// ColdContains reports whether the cold index holds k, counting the outcome
// as a cold hit or a full miss. It touches only the in-RAM index — no disk —
// and on a store without a cold tier it is false and counts nothing.
func (s *Store[K]) ColdContains(k K) bool {
	return s.cold != nil && s.cold.contains(k)
}

func (c *coldTier[K]) contains(k K) bool {
	c.mu.Lock()
	_, ok := c.index[k]
	c.mu.Unlock()
	if ok {
		c.coldHits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return ok
}

// RequestCold schedules retrieval of k from the arena, reporting whether a
// read is (now or already) in flight. The caller parks the interest in its
// PIT before calling, exactly as for an upstream fetch; when the read
// completes, the re-inject callback carries the payload back through the
// normal data path. In synchronous mode (Readers 0) the read and callback
// run before RequestCold returns. A false return means there is no cold
// tier, the pending table is full or the entry vanished — treat it as a miss.
func (s *Store[K]) RequestCold(k K) bool {
	c := s.cold
	if c == nil {
		return false
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return false
	}
	if _, ok := c.index[k]; !ok {
		c.mu.Unlock()
		return false
	}
	if _, inflight := c.pending[k]; inflight {
		c.mu.Unlock()
		return true // the in-flight read will satisfy this interest too
	}
	if len(c.pending) >= c.pendingCap {
		c.mu.Unlock()
		c.pendingRejected.Add(1)
		return false
	}
	c.pending[k] = struct{}{}
	if c.readq != nil {
		// Sends happen only under mu and Close flips closed under mu
		// before closing the channel, so this cannot race a close.
		select {
		case c.readq <- k:
			c.mu.Unlock()
			return true
		default:
			delete(c.pending, k)
			c.mu.Unlock()
			c.pendingRejected.Add(1)
			return false
		}
	}
	c.mu.Unlock()
	s.completeRead(k)
	return true
}

// invalidate frees the cold copy of k if its bytes differ from data. A
// byte-identical cold copy is kept, so promoting a cold object back to the
// RAM tier does not churn the disk.
func (c *coldTier[K]) invalidate(k K, data []byte) {
	c.mu.Lock()
	if ce, ok := c.index[k]; ok {
		if ce.length != uint32(len(data)) || ce.checksum != crc32.Checksum(data, castagnoli) {
			delete(c.index, k)
			c.arena.Free(ce.slot)
		}
	}
	c.mu.Unlock()
}

// remove purges k from the cold tier, reporting whether it held it.
func (c *coldTier[K]) remove(k K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	ce, ok := c.index[k]
	if ok {
		delete(c.index, k)
		c.arena.Free(ce.slot)
	}
	return ok
}

// Stats snapshots both tiers. Without a cold tier only HotLen and HotBytes
// are filled: a RAM-only store counts nothing on its hit path.
func (s *Store[K]) Stats() TierStats {
	st := TierStats{HotLen: s.Len(), HotBytes: s.Bytes()}
	c := s.cold
	if c == nil {
		return st
	}
	st.HotHits = c.hotHits.Load()
	st.ColdHits = c.coldHits.Load()
	st.Misses = c.misses.Load()
	st.Spilled = c.spilled.Load()
	st.SpillDropped = c.spillDropped.Load()
	st.AdmitFiltered = c.admitFiltered.Load()
	st.ReadErrors = c.readErrors.Load()
	st.Reinjected = c.reinjected.Load()
	st.PendingRejected = c.pendingRejected.Load()
	st.ColdSlots = c.arena.Slots()
	st.ColdSlotsUsed = c.arena.Used()
	st.ColdReadCount = c.readCount.Load()
	st.ColdReadTotalNs = c.readTotalNs.Load()
	for i := range c.readHist {
		st.ColdReadHist[i] = c.readHist[i].Load()
	}
	c.mu.Lock()
	st.PendingReads = len(c.pending)
	c.mu.Unlock()
	return st
}

// Close stops the cold tier's worker pool and releases the arena; a store
// without one has nothing to release. No Put/RequestCold may run after Close
// returns.
func (s *Store[K]) Close() error {
	c := s.cold
	if c == nil {
		return nil
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	if c.spills != nil {
		close(c.spills)
	}
	if c.readq != nil {
		close(c.readq)
	}
	c.wg.Wait()
	return c.arena.Close()
}

// spill is the RAM tier's eviction hook. Runs with the evicting shard's lock
// held, so it must stay O(1) and never call back into the RAM tier: async
// mode does a non-blocking queue send, synchronous mode writes the slot
// inline (acceptable under a virtual clock).
func (c *coldTier[K]) spill(k K, data []byte, touched bool) {
	if !touched {
		// Insert-on-second-hit: cached once, never asked for again —
		// churn that must not cost a disk write.
		c.admitFiltered.Add(1)
		return
	}
	if c.spills != nil {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		select {
		case c.spills <- spillReq[K]{key: k, data: data}:
			c.mu.Unlock()
		default:
			c.mu.Unlock()
			c.spillDropped.Add(1)
		}
		return
	}
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if !closed {
		c.writeCold(k, data)
	}
}

// writeCold stores one evicted entry in the arena and indexes it. A
// byte-identical cold copy already on disk is left untouched.
func (c *coldTier[K]) writeCold(k K, data []byte) {
	if len(data) > c.arena.SlotSize() {
		c.spillDropped.Add(1)
		return
	}
	sum := crc32.Checksum(data, castagnoli)
	c.mu.Lock()
	ce, have := c.index[k]
	c.mu.Unlock()
	if have && ce.length == uint32(len(data)) && ce.checksum == sum {
		c.spilled.Add(1) // logically spilled; physically already there
		return
	}
	slot := ce.slot
	if !have {
		s, ok := c.arena.Alloc()
		if !ok {
			c.spillDropped.Add(1)
			return
		}
		slot = s
	}
	if err := c.arena.WriteSlot(slot, nhash.Of(k), data); err != nil {
		if !have {
			c.arena.Free(slot)
		}
		c.spillDropped.Add(1)
		return
	}
	c.mu.Lock()
	c.index[k] = coldEntry{slot: slot, length: uint32(len(data)), checksum: sum}
	c.mu.Unlock()
	c.spilled.Add(1)
}

// completeRead performs the pread for one pending key, then hands the
// payload to the re-inject callback (or, with no callback installed,
// promotes it straight into the RAM tier). Verification failures drop the
// slot; the parked interest recovers through PIT expiry and consumer
// retransmission, the same machinery that covers a lost upstream fetch.
func (s *Store[K]) completeRead(k K) {
	c := s.cold
	start := c.now()
	c.mu.Lock()
	ce, ok := c.index[k]
	c.mu.Unlock()
	var data []byte
	var err error
	if ok {
		if c.readGate != nil {
			c.readGate()
		}
		data, err = c.arena.ReadSlot(nil, ce.slot, nhash.Of(k))
	}
	end := c.now()
	c.mu.Lock()
	delete(c.pending, k)
	c.mu.Unlock()
	if !ok || err != nil {
		c.readErrors.Add(1)
		if ok {
			// Poisoned or torn slot: drop it so the next interest takes
			// the normal upstream path instead of spinning on bad bytes.
			c.mu.Lock()
			if cur, still := c.index[k]; still && cur.slot == ce.slot {
				delete(c.index, k)
				c.arena.Free(ce.slot)
			}
			c.mu.Unlock()
		}
		return
	}
	d := end - start
	if d < 0 {
		d = 0
	}
	c.readCount.Add(1)
	c.readTotalNs.Add(uint64(d))
	c.readHist[coldBucketOf(d)].Add(1)
	c.reinjected.Add(1)
	if fn := c.reinject.Load(); fn != nil {
		(*fn)(k, data, start, end)
		return
	}
	s.Put(k, data)
}
