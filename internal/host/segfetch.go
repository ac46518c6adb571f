// Segmented, congestion-controlled fetch: the consumer half of a
// multi-packet object transfer. Objects are named ranges — segment i of
// object base is the content name base+i (`/name/seg=i` in NDN terms,
// realized in the 32-bit name space by giving objects disjoint name
// strides) — fetched with up to cwnd interests pipelined in flight, where
// cwnd comes from a per-flow congestion controller (internal/cc): RTT-
// adaptive RTO with Karn's rule, additive increase on satisfy,
// multiplicative decrease on genuine timeout. This replaces "retry until
// dead" with "degrade proportionally": when a shared bottleneck drops
// packets, the window shrinks and the retransmission timer backs off
// adaptively instead of blasting a fixed schedule into the loss.
package host

import (
	"fmt"
	"sync"
	"time"

	"dip/internal/cc"
	"dip/internal/core"
	"dip/internal/profiles"
	"dip/internal/telemetry"
)

// SegName is the content name of segment seg of the object whose first
// segment is base. Objects must be spaced at least their segment count
// apart in the name space.
func SegName(base uint32, seg int) uint32 { return base + uint32(seg) }

// SegConfig tunes a SegFetcher. Zero values select the defaults noted.
type SegConfig struct {
	// CC configures the flow's congestion controller (see cc.Config; the
	// zero value is AIMD with an adaptive RTO).
	CC cc.Config
	// MaxRetx bounds retransmissions per segment before the whole object
	// is dead-lettered (default 4).
	MaxRetx int
	// Metrics, when set, receives EventRetransmit / EventDeadLetter /
	// EventCwndCut.
	Metrics *telemetry.Metrics
	// Observer, when set, receives every fetch lifecycle event with the
	// segment's content name (journey tracing). Called outside the lock;
	// must not block.
	Observer FetchObserver
}

func (c *SegConfig) fill() {
	if c.MaxRetx == 0 {
		c.MaxRetx = 4
	}
}

// SegStats snapshots a SegFetcher's counters.
type SegStats struct {
	// PendingObjects / PendingSegments count work not yet resolved
	// (in flight or queued behind the window).
	PendingObjects  int
	PendingSegments int
	// ObjectsCompleted / ObjectsFailed count finished objects.
	ObjectsCompleted int64
	ObjectsFailed    int64
	// SegmentsCompleted counts satisfied segments across all objects.
	SegmentsCompleted int64
	// Retransmits counts interest retransmissions.
	Retransmits int64
	// DeadLettered counts segments abandoned at the retransmission cap.
	DeadLettered int64
	// CwndCuts counts multiplicative decreases of the window.
	CwndCuts int64
	// GoodputBytes counts payload bytes of completed objects (goodput,
	// not throughput: retransmitted duplicates do not double-count).
	GoodputBytes int64
}

type segObject struct {
	base      uint32
	total     int
	reasm     *Reassembly
	remaining int
	failed    bool
}

type segFlight struct {
	obj      *segObject
	seg      int
	gen      uint64
	attempts int
	sentAt   time.Duration
	// retransmitted poisons the RTT sample per Karn's rule: a satisfy for
	// a segment that was ever retransmitted is ambiguous.
	retransmitted bool
}

type segQueued struct {
	obj *segObject
	seg int
}

// SegFetcher fetches multi-segment objects with pipelined interests under
// a congestion window. It is the one consumer-side fetcher: a single name
// is a one-segment object, and cc.AlgoBlind with InitCwnd at least the
// names in flight is the fixed-timeout, exponential-backoff retransmitter.
// Safe for concurrent use; with a single-goroutine netsim clock it is
// fully deterministic.
type SegFetcher struct {
	clock Clock
	send  func(pkt []byte)
	cfg   SegConfig

	// OnObject, when set, is called (outside the lock) with each object's
	// fully reassembled payload, segments concatenated in order.
	OnObject func(base uint32, data []byte)
	// OnObjectFail, when set, is called (outside the lock) for each
	// object abandoned because a segment hit the retransmission cap.
	OnObjectFail func(base uint32)

	mu       sync.Mutex
	flow     *cc.Flow
	gen      uint64
	objects  map[uint32]*segObject
	inflight map[uint32]*segFlight
	queue    []segQueued

	objectsCompleted  int64
	objectsFailed     int64
	segmentsCompleted int64
	retransmits       int64
	deadLettered      int64
	goodputBytes      int64
}

// NewSegFetcher builds a segmented fetcher that transmits packets through
// send and arms timeouts on clock.
func NewSegFetcher(clock Clock, send func(pkt []byte), cfg SegConfig) *SegFetcher {
	cfg.fill()
	return &SegFetcher{
		clock:    clock,
		send:     send,
		cfg:      cfg,
		flow:     cc.NewFlow(cfg.CC),
		objects:  map[uint32]*segObject{},
		inflight: map[uint32]*segFlight{},
	}
}

// FetchObject starts fetching the object whose segments are named
// base..base+segments-1. The first min(cwnd, segments) interests go out
// immediately; the rest are released as the window opens. Fetching the
// same object again while it is in progress is a no-op; a range that
// wraps past 0xFFFFFFFF or overlaps another object in progress is an
// error (one name can be in flight for only one object).
func (f *SegFetcher) FetchObject(base uint32, segments int) error {
	if segments <= 0 {
		return fmt.Errorf("host: object %#x needs at least one segment", base)
	}
	end := uint64(base) + uint64(segments)
	if end > 1<<32 {
		return fmt.Errorf("host: object %#x with %d segments wraps the name space", base, segments)
	}
	f.mu.Lock()
	if obj, exists := f.objects[base]; exists && obj.total == segments {
		f.mu.Unlock()
		return nil
	}
	for _, obj := range f.objects {
		if uint64(base) < uint64(obj.base)+uint64(obj.total) && uint64(obj.base) < end {
			f.mu.Unlock()
			return fmt.Errorf("host: names %#x..%#x overlap object %#x in progress", base, end-1, obj.base)
		}
	}
	obj := &segObject{base: base, total: segments, reasm: NewReassembly(segments), remaining: segments}
	f.objects[base] = obj
	for s := 0; s < segments; s++ {
		f.queue = append(f.queue, segQueued{obj: obj, seg: s})
	}
	sends := f.fillLocked()
	f.mu.Unlock()
	f.transmit(sends)
	return nil
}

// segSend is one deferred transmission decided under the lock and executed
// outside it.
type segSend struct {
	name    uint32
	pkt     []byte
	rto     time.Duration
	gen     uint64
	ev      FetchEvent
	metrics telemetry.Event
	hasMet  bool
}

// fillLocked releases queued segments into flight until the window is
// full, returning the transmissions to perform outside the lock.
func (f *SegFetcher) fillLocked() []segSend {
	var sends []segSend
	for len(f.inflight) < f.flow.Cwnd() && len(f.queue) > 0 {
		q := f.queue[0]
		f.queue = f.queue[1:]
		if q.obj.failed {
			continue
		}
		name := SegName(q.obj.base, q.seg)
		pkt, err := BuildPacket(profiles.NDNInterest(name), nil)
		if err != nil {
			// Unbuildable interest: treat as instantly dead. Cannot
			// happen for well-formed profiles; accounted for anyway.
			f.failObjectLocked(q.obj)
			continue
		}
		f.gen++
		fl := &segFlight{obj: q.obj, seg: q.seg, gen: f.gen, attempts: 1, sentAt: f.clock.Now()}
		f.inflight[name] = fl
		sends = append(sends, segSend{name: name, pkt: pkt, rto: f.flow.RTO(), gen: fl.gen, ev: FetchSend})
	}
	return sends
}

// transmit performs the sends decided under the lock: packet out, observer
// callbacks, timers armed.
func (f *SegFetcher) transmit(sends []segSend) {
	for _, s := range sends {
		if s.pkt != nil {
			f.send(s.pkt)
		}
		if s.hasMet && f.cfg.Metrics != nil {
			f.cfg.Metrics.RecordEvent(s.metrics)
		}
		if f.cfg.Observer != nil {
			f.cfg.Observer(s.ev, s.name, s.pkt)
		}
		if s.pkt != nil {
			name, gen := s.name, s.gen
			f.clock.Schedule(s.rto, func() { f.onTimeout(name, gen) })
		}
	}
}

// failObjectLocked marks obj failed and strips its in-flight segments so
// late timers and data become no-ops. Queued segments are skipped lazily.
func (f *SegFetcher) failObjectLocked(obj *segObject) {
	if obj.failed {
		return
	}
	obj.failed = true
	f.objectsFailed++
	delete(f.objects, obj.base)
	for name, fl := range f.inflight {
		if fl.obj == obj {
			delete(f.inflight, name)
		}
	}
}

func (f *SegFetcher) onTimeout(name uint32, gen uint64) {
	f.mu.Lock()
	fl, ok := f.inflight[name]
	if !ok || fl.gen != gen {
		f.mu.Unlock()
		return // satisfied, or its object failed, since the timer was armed
	}
	now := f.clock.Now()
	var sends []segSend

	// Congestion response first: back off the timer, and cut the window
	// at most once per congestion event. The cut is observable — it is
	// the mechanism the whole layer exists for.
	if f.flow.OnTimeout(now) {
		sends = append(sends, segSend{name: name, ev: FetchCwndCut,
			metrics: telemetry.EventCwndCut, hasMet: f.cfg.Metrics != nil})
	}

	if fl.attempts > f.cfg.MaxRetx {
		// Segment exhausted: the object dies with it.
		obj := fl.obj
		f.deadLettered++
		f.failObjectLocked(obj)
		cb := f.OnObjectFail
		sends = append(sends, segSend{name: name, ev: FetchDeadLetter,
			metrics: telemetry.EventDeadLetter, hasMet: f.cfg.Metrics != nil})
		// The window may have room now that the object's flights are gone.
		sends = append(sends, f.fillLocked()...)
		f.mu.Unlock()
		f.transmit(sends)
		if cb != nil {
			cb(obj.base)
		}
		return
	}

	// Retransmit under the backed-off RTO. The in-flight count does not
	// change (the retransmission replaces the lost interest), so no
	// window check applies; Karn poisons this segment's RTT sample.
	fl.attempts++
	fl.retransmitted = true
	fl.sentAt = now
	f.gen++
	fl.gen = f.gen
	f.retransmits++
	if pkt, err := BuildPacket(profiles.NDNInterest(name), nil); err == nil {
		sends = append(sends, segSend{name: name, pkt: pkt, rto: f.flow.RTO(), gen: fl.gen,
			ev: FetchRetx, metrics: telemetry.EventRetransmit, hasMet: f.cfg.Metrics != nil})
	}
	f.mu.Unlock()
	f.transmit(sends)
}

// HandleData inspects a received packet; if it is an NDN data packet for
// an in-flight segment the segment completes (feeding the congestion
// controller), and when it is the object's last missing segment the whole
// object completes. Duplicate or unknown data returns matched=false.
func (f *SegFetcher) HandleData(pkt []byte) (name uint32, matched bool) {
	ctx := ctxPool.Get().(*core.ExecContext)
	err := ctx.Load(pkt, 0)
	v := ctx.View
	releaseCtx(ctx)
	if err != nil {
		return 0, false
	}
	name, ok := DataName(v)
	if !ok {
		return 0, false
	}
	f.mu.Lock()
	fl, ok := f.inflight[name]
	if !ok {
		f.mu.Unlock()
		return name, false
	}
	delete(f.inflight, name)
	now := f.clock.Now()
	var rtt time.Duration
	if !fl.retransmitted {
		rtt = now - fl.sentAt
	}
	f.flow.OnSatisfy(now, rtt)
	f.segmentsCompleted++

	obj := fl.obj
	obj.reasm.Add(fl.seg, v.Payload())
	obj.remaining--
	var done bool
	var data []byte
	if obj.remaining == 0 {
		done = true
		data = obj.reasm.Bytes()
		f.goodputBytes += int64(len(data))
		f.objectsCompleted++
		delete(f.objects, obj.base)
	}
	cb := f.OnObject
	sends := f.fillLocked()
	f.mu.Unlock()

	if f.cfg.Observer != nil {
		f.cfg.Observer(FetchSatisfy, name, pkt)
	}
	f.transmit(sends)
	if done && cb != nil {
		cb(obj.base, data)
	}
	return name, true
}

// Stats snapshots the counters.
func (f *SegFetcher) Stats() SegStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	pendingSegs := len(f.inflight)
	for _, q := range f.queue {
		if !q.obj.failed {
			pendingSegs++
		}
	}
	return SegStats{
		PendingObjects:    len(f.objects),
		PendingSegments:   pendingSegs,
		ObjectsCompleted:  f.objectsCompleted,
		ObjectsFailed:     f.objectsFailed,
		SegmentsCompleted: f.segmentsCompleted,
		Retransmits:       f.retransmits,
		DeadLettered:      f.deadLettered,
		CwndCuts:          f.flow.Snapshot().Cuts,
		GoodputBytes:      f.goodputBytes,
	}
}

// CC snapshots the flow controller (cwnd, sRTT, RTO, cut count) for
// telemetry export.
func (f *SegFetcher) CC() cc.Snapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.flow.Snapshot()
}
