// Package inband is the collection side of DIP's in-band telemetry (INT)
// pipeline. Routers stamp F_tel hop records into the packets themselves
// (internal/extops); the delivering edge strips the telemetry region and
// mails the decoded records here as a "postcard". The Collector turns
// postcards into fleet observability off the hot path:
//
//   - per-flow path digests — an order-sensitive hash of the hop-ID
//     sequence — so a route change shows up as a digest flip on the very
//     first packet that took the new path, with the old and new hop
//     sequences attached (packet-level attribution for control-plane
//     reconvergence);
//   - forwarding-loop detection (a hop ID repeating within one postcard);
//   - cross-checks against FIB-derived expected paths;
//   - per-link latency histograms (consecutive hop timestamp deltas) and
//     per-hop queue-depth aggregates with congestion and microburst flags.
//
// Everything here runs at postcard rate — a sampled, delivered-packets-only
// trickle — never at forwarding rate.
package inband

import (
	"sort"
	"sync"

	"dip/internal/extops"
	"dip/internal/nhash"
	"dip/internal/telemetry"
)

// Postcard is one delivered packet's stripped telemetry: the hop records it
// accumulated in flight plus where and when it was delivered.
type Postcard struct {
	// Flow keys the per-flow path state; packets of one conversation must
	// share it (see FlowOf).
	Flow uint64
	// Trace is the packet's journey trace fingerprint when known (0
	// otherwise) — the join key for INT↔journey cross-correlation.
	Trace uint64
	// Node names the delivering element.
	Node string
	// At is the delivery time on the collector's clock (ns).
	At int64
	// Dst is the packet's destination key (32-bit address or content name)
	// when the edge could extract one — the input to expected-path
	// prediction.
	Dst uint32
	// Proto labels the packet's profile ("interest", "data", "ipv4", …) so
	// predictors know which table the fabric routed it by.
	Proto string
	// Hops are the decoded slots, in path order.
	Hops []extops.HopRecord
	// Overflow is the region's overflow bit: the path outgrew the slots,
	// so Hops is a prefix of the real path.
	Overflow bool
}

// Digest returns the order-sensitive FNV-1a-64 hash of the hop-ID sequence.
// Two paths through the same set of hops in different orders digest
// differently; the empty path digests to the FNV offset basis.
func Digest(hops []extops.HopRecord) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := range hops {
		id := hops[i].HopID
		for s := 24; s >= 0; s -= 8 {
			h ^= uint64(byte(id >> s))
			h *= prime64
		}
	}
	return h
}

// FlowOf derives a flow key from a packet's FN-locations region, hashing
// only the bytes before the telemetry operand (telOff, in bytes; negative
// or out-of-range hashes the whole region). Addresses and names live before
// the appended telemetry region, and the region itself mutates per hop —
// so this keys a conversation stably across hops and packets.
func FlowOf(locations []byte, telOff int) uint64 {
	if telOff >= 0 && telOff <= len(locations) {
		locations = locations[:telOff]
	}
	return nhash.Bytes(locations)
}

// PathChange records one per-flow digest flip: the flow's packets stopped
// arriving over OldHops and started arriving over NewHops.
type PathChange struct {
	Flow      uint64
	At        int64 // collector clock, ns
	OldHops   []uint32
	NewHops   []uint32
	OldDigest uint64
	NewDigest uint64
}

// LinkStat aggregates one directed hop-pair (a → b appeared consecutively
// in postcards): transit latency from the hops' timestamp delta.
type LinkStat struct {
	From, To         uint32
	FromName, ToName string
	Count            int64
	SumNs            int64
	// Hist is the log2 latency histogram (telemetry.BucketUpper edges).
	Hist [telemetry.HistBuckets]int64
}

// HopStat aggregates one hop ID across all postcards that crossed it.
type HopStat struct {
	HopID uint32
	Name  string
	Count int64
	// Latency (admission→F_tel) as stamped by the hop itself.
	LatSumNs int64
	LatHist  [telemetry.HistBuckets]int64
	// Queue depth at admission.
	QueueSum    int64
	QueueMax    int
	Congested   int64 // records with the congestion flag set
	Microbursts int64 // records at or above Config.MicroburstDepth
}

// Stats is a Collector snapshot.
type Stats struct {
	Postcards        int64
	Overflows        int64
	Flows            int
	PathChanges      int64
	Loops            int64
	Microbursts      int64
	ExpectedMismatch int64
	DecodeErrors     int64
	Links            []LinkStat   // sorted by (From, To)
	Hops             []HopStat    // sorted by HopID
	Changes          []PathChange // most recent, oldest first
}

// Config tunes a Collector. Zero values select the noted defaults.
type Config struct {
	// Expected, when set, maps a postcard to the hop-ID path the control
	// plane currently predicts for it (ok=false: no prediction, skip the
	// check). A mismatch increments ExpectedMismatch — either stale FIBs
	// (reconvergence in progress) or telemetry lying.
	Expected func(pc *Postcard) (hops []uint32, ok bool)
	// HopName, when set, resolves hop IDs to display names for stats.
	HopName func(id uint32) string
	// MicroburstDepth is the queue depth at/above which a record counts as
	// a microburst (default 32; negative disables).
	MicroburstDepth int
	// MaxChanges bounds the retained PathChange ring (default 64).
	MaxChanges int
	// MaxFlows bounds per-flow digest state (default 65536). Beyond it,
	// new flows are aggregated but not change-tracked.
	MaxFlows int
	// Tap, when set, observes every postcard after it is filed — the hook
	// tests and exporters use to see individual postcards, which the
	// Collector itself only retains in aggregate.
	Tap func(pc Postcard)
}

func (c *Config) fill() {
	if c.MicroburstDepth == 0 {
		c.MicroburstDepth = 32
	}
	if c.MaxChanges <= 0 {
		c.MaxChanges = 64
	}
	if c.MaxFlows <= 0 {
		c.MaxFlows = 65536
	}
}

type flowState struct {
	digest uint64
	hops   []uint32
}

// Collector aggregates postcards. Safe for concurrent use.
type Collector struct {
	cfg Config

	mu    sync.Mutex
	flows map[uint64]*flowState
	links map[uint64]*LinkStat
	hops  map[uint32]*HopStat

	postcards    int64
	overflows    int64
	pathChanges  int64
	loops        int64
	microbursts  int64
	expectedMism int64
	decodeErrors int64
	changes      []PathChange
}

// NewCollector builds a Collector.
func NewCollector(cfg Config) *Collector {
	cfg.fill()
	return &Collector{
		cfg:   cfg,
		flows: map[uint64]*flowState{},
		links: map[uint64]*LinkStat{},
		hops:  map[uint32]*HopStat{},
	}
}

// CountDecodeError records a telemetry region that failed DecodeTel at the
// edge — corruption made visible instead of silently dropped.
func (c *Collector) CountDecodeError() {
	c.mu.Lock()
	c.decodeErrors++
	c.mu.Unlock()
}

// SetTap installs (or replaces) the per-postcard observer after
// construction. The tap runs outside the collector lock, so it may call
// Stats or Changes.
func (c *Collector) SetTap(fn func(Postcard)) {
	c.mu.Lock()
	c.cfg.Tap = fn
	c.mu.Unlock()
}

// Add files one postcard.
func (c *Collector) Add(pc Postcard) {
	c.add(pc)
	c.mu.Lock()
	tap := c.cfg.Tap
	c.mu.Unlock()
	if tap != nil {
		tap(pc)
	}
}

func (c *Collector) add(pc Postcard) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.postcards++
	if pc.Overflow {
		c.overflows++
	}

	looped := false
	for i := range pc.Hops {
		r := &pc.Hops[i]
		c.hopStatLocked(r.HopID).fold(r, c.cfg.MicroburstDepth)
		if c.cfg.MicroburstDepth >= 0 && int(r.QueueDepth) >= c.cfg.MicroburstDepth {
			c.microbursts++
		}
		for j := 0; j < i; j++ {
			if pc.Hops[j].HopID == r.HopID {
				looped = true
			}
		}
		if i > 0 {
			c.linkStatLocked(pc.Hops[i-1].HopID, r.HopID).fold(&pc.Hops[i-1], r)
		}
	}
	if looped {
		c.loops++
	}

	// An overflowed postcard carries a truncated prefix of the real path:
	// comparing its digest against a full path would report phantom
	// changes, so flow tracking and the expected-path check skip it.
	if pc.Overflow {
		return
	}

	if c.cfg.Expected != nil {
		if want, ok := c.cfg.Expected(&pc); ok && !sameIDs(want, pc.Hops) {
			c.expectedMism++
		}
	}

	d := Digest(pc.Hops)
	fs := c.flows[pc.Flow]
	if fs == nil {
		if len(c.flows) >= c.cfg.MaxFlows {
			return
		}
		c.flows[pc.Flow] = &flowState{digest: d, hops: hopIDs(pc.Hops)}
		return
	}
	if fs.digest == d {
		return
	}
	ch := PathChange{
		Flow:      pc.Flow,
		At:        pc.At,
		OldHops:   fs.hops,
		NewHops:   hopIDs(pc.Hops),
		OldDigest: fs.digest,
		NewDigest: d,
	}
	c.pathChanges++
	c.changes = append(c.changes, ch)
	if n := len(c.changes) - c.cfg.MaxChanges; n > 0 {
		c.changes = append(c.changes[:0], c.changes[n:]...)
	}
	fs.digest = d
	fs.hops = ch.NewHops
}

func hopIDs(hops []extops.HopRecord) []uint32 {
	out := make([]uint32, len(hops))
	for i := range hops {
		out[i] = hops[i].HopID
	}
	return out
}

func sameIDs(want []uint32, hops []extops.HopRecord) bool {
	if len(want) != len(hops) {
		return false
	}
	for i := range want {
		if want[i] != hops[i].HopID {
			return false
		}
	}
	return true
}

func (c *Collector) hopStatLocked(id uint32) *HopStat {
	hs := c.hops[id]
	if hs == nil {
		hs = &HopStat{HopID: id}
		if c.cfg.HopName != nil {
			hs.Name = c.cfg.HopName(id)
		}
		c.hops[id] = hs
	}
	return hs
}

func (hs *HopStat) fold(r *extops.HopRecord, microburstAt int) {
	hs.Count++
	hs.LatSumNs += int64(r.LatencyNs)
	hs.LatHist[bucketOf(int64(r.LatencyNs))]++
	hs.QueueSum += int64(r.QueueDepth)
	if int(r.QueueDepth) > hs.QueueMax {
		hs.QueueMax = int(r.QueueDepth)
	}
	if r.Congested() {
		hs.Congested++
	}
	if microburstAt >= 0 && int(r.QueueDepth) >= microburstAt {
		hs.Microbursts++
	}
}

func (c *Collector) linkStatLocked(a, b uint32) *LinkStat {
	key := uint64(a)<<32 | uint64(b)
	ls := c.links[key]
	if ls == nil {
		ls = &LinkStat{From: a, To: b}
		if c.cfg.HopName != nil {
			ls.FromName, ls.ToName = c.cfg.HopName(a), c.cfg.HopName(b)
		}
		c.links[key] = ls
	}
	return ls
}

func (ls *LinkStat) fold(a, b *extops.HopRecord) {
	// Timestamps are µs truncated to 32 bits; unsigned subtraction stays
	// correct across the wrap.
	ns := int64(b.TimestampUs-a.TimestampUs) * 1000
	ls.Count++
	ls.SumNs += ns
	ls.Hist[bucketOf(ns)]++
}

func bucketOf(ns int64) int {
	b := 0
	for ns > 1 && b < telemetry.HistBuckets-1 {
		ns >>= 1
		b++
	}
	return b
}

// Stats snapshots the collector.
func (c *Collector) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Postcards:        c.postcards,
		Overflows:        c.overflows,
		Flows:            len(c.flows),
		PathChanges:      c.pathChanges,
		Loops:            c.loops,
		Microbursts:      c.microbursts,
		ExpectedMismatch: c.expectedMism,
		DecodeErrors:     c.decodeErrors,
	}
	for _, ls := range c.links {
		st.Links = append(st.Links, *ls)
	}
	sort.Slice(st.Links, func(i, j int) bool {
		if st.Links[i].From != st.Links[j].From {
			return st.Links[i].From < st.Links[j].From
		}
		return st.Links[i].To < st.Links[j].To
	})
	for _, hs := range c.hops {
		st.Hops = append(st.Hops, *hs)
	}
	sort.Slice(st.Hops, func(i, j int) bool { return st.Hops[i].HopID < st.Hops[j].HopID })
	st.Changes = append([]PathChange(nil), c.changes...)
	return st
}
