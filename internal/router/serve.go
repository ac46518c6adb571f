package router

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"dip/internal/core"
	"dip/internal/guard"
	"dip/internal/nhash"
	"dip/internal/telemetry"
)

// Batching defaults. DefaultBatch is the run-to-completion burst bound —
// the same order of magnitude DPDK-style dataplanes use (32–64), large
// enough to amortize queue locking and sampling, small enough to keep
// control-class preemption latency at one burst.
const (
	DefaultBatch = 64
	maxBatch     = 1024
	// dispatchShards sizes the flow-dispatch table (a power of two, doubled
	// until every forwarder has a shard). Flows hash — NDT-style, over the
	// FN locations region — into shards, and each shard is pinned to
	// exactly one forwarder, so all packets of one flow are processed by one
	// goroutine in submission order with no cross-core locks on the way.
	dispatchShards = 256
	// stallAfter is how long a worker may chew on one burst before Health
	// counts it stalled.
	stallAfter = time.Second
	// maxSubmitBurst bounds one SubmitBurst chunk so its per-packet
	// scratch (class, destination, outcome) fits in fixed stack arrays;
	// larger bursts are split transparently.
	maxSubmitBurst = 256
)

// ServeConfig tunes the guarded ingress. The zero value (normalized by
// ServeGuarded) gives pump mode, 64-deep queues, 64-packet bursts, no
// admission control and byte-level classification. Every Ingress keeps a
// default-sized quarantine ring and counts a worker stalled after a second
// on one burst.
type ServeConfig struct {
	// Workers is the forwarding pool size. 0 selects pump mode: no
	// goroutines are started and the caller drains the queues with Pump —
	// the deterministic single-goroutine mode virtual-time simulations use.
	Workers int
	// HighDepth and LowDepth bound the control and bulk queues of each
	// forwarder (default 64 each). The low queue sheds first by
	// construction: bursts always drain the high queue before the low one,
	// so under sustained overload bulk waits and overflows while control
	// keeps flowing.
	HighDepth, LowDepth int
	// Batch bounds the run-to-completion burst: a forwarder (or Pump)
	// takes up to Batch packets from its queue in one lock round and runs
	// them all through the pipeline before touching the queue again,
	// amortizing queue operations, heartbeats, and observers' shared-counter
	// charges. 0 selects DefaultBatch; 1 degenerates to the packet-at-a-time
	// pipeline.
	Batch int
	// Admission, when set, polices packets before they enter a queue
	// (per-inport and per-class token buckets). Nil admits everything.
	Admission *guard.Admission
	// Classify maps raw packet bytes to an admission class. Nil uses
	// guard.Classify (DIP control next-headers → ClassControl).
	Classify func(pkt []byte) guard.Class
	// Clock is the node's clock, in ns: it stamps each burst's admission
	// (ExecContext.AdmittedAt, which F_tel turns into per-hop latency) and
	// the heartbeats stall detection reads. Nil is core.Now; a simulation
	// passes its virtual clock.
	Clock func() int64
}

// Ingress is a running queue-and-forwarders front end for a router: a
// batched run-to-completion dataplane. Submitted packets hash by flow
// (flowHash over the FN locations) through a dispatch table onto exactly
// one forwarder's two-class queue; each forwarder drains its queue in
// bursts of up to Batch packets and runs every burst to completion behind
// the panic quarantine. Because a queue has exactly one consumer and
// dispatch is deterministic, per-flow FIFO order is a structural property
// of the design, not a locking discipline — and the burst loop pays its
// queue lock, heartbeat stamp, and observers' shared-counter charge once
// per burst instead of once per packet.
type Ingress struct {
	r   *Router
	cfg ServeConfig
	// quarantine holds poison-packet captures from recovered panics.
	quarantine *guard.Quarantine

	// queues holds one burst queue per forwarder (exactly one in pump
	// mode). Each queue is consumed only by its pinned forwarder.
	queues []*burstQueue
	// dispatch maps flow-hash shards to forwarder indexes.
	dispatch  []int32
	shardMask uint64

	wg sync.WaitGroup

	// state packs a closed bit above an in-flight Submit count, making the
	// hot path one atomic add with no lock. Close sets the bit (no new
	// submitters pass), waits for in-flight submitters to drain, and only
	// then marks the queues closed — so Submit never races queue teardown.
	state     atomic.Int64
	closeOnce sync.Once

	dropped   atomic.Int64                   // total sheds (queue full), both classes
	shed      [guard.NumClasses]atomic.Int64 // sheds by class
	rejected  atomic.Int64                   // admission-control refusals
	processed atomic.Int64                   // packets handed to HandlePacket
	panics    atomic.Int64                   // recovered HandlePacket panics

	workers []workerState

	// pumpCtx and pumpBurst are the workerless drain loop's forwarder
	// state. Pump must not run concurrently with itself, so plain fields
	// suffice.
	pumpCtx   core.ExecContext
	pumpBurst []queuedPacket
}

const ingressClosedBit = int64(1) << 62

type queuedPacket struct {
	pkt    []byte
	inPort int
}

// workerState is one worker's heartbeat, read by the Health watchdog.
type workerState struct {
	busy atomic.Bool
	beat atomic.Int64 // clock reading (ns) when the current burst started
}

// pktRing is a bounded FIFO over a preallocated buffer. Combined with the
// owning queue's mutex it replaces a channel: both ends amortize — a
// submit burst pushes its packets under one lock round, and a forwarder
// pops a whole burst per acquisition — which a channel's per-element
// send/receive protocol cannot do.
type pktRing struct {
	buf  []queuedPacket
	head int
	n    int
}

func (r *pktRing) push(q queuedPacket) bool {
	if r.n == len(r.buf) {
		return false
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = q
	r.n++
	return true
}

func (r *pktRing) pop() queuedPacket {
	q := r.buf[r.head]
	r.buf[r.head] = queuedPacket{} // drop the buffer reference
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return q
}

// burstQueue is one forwarder's two-class ingress queue: bounded rings
// under one mutex with a condition variable for the (single) consumer.
type burstQueue struct {
	mu     sync.Mutex
	ready  sync.Cond
	high   pktRing
	low    pktRing
	closed bool
}

// collect moves up to max queued packets into burst, control class first.
// When block is set it waits for work; an empty return then means the
// queue is closed and drained. One lock round per burst — instead of one
// channel operation per packet — is where batching's queue-cost
// amortization comes from.
func (q *burstQueue) collect(burst []queuedPacket, max int, block bool) []queuedPacket {
	q.mu.Lock()
	for block && !q.closed && q.high.n == 0 && q.low.n == 0 {
		q.ready.Wait()
	}
	for q.high.n > 0 && len(burst) < max {
		burst = append(burst, q.high.pop())
	}
	for q.low.n > 0 && len(burst) < max {
		burst = append(burst, q.low.pop())
	}
	q.mu.Unlock()
	return burst
}

// ServeGuarded starts the ingress guard layer: classification, admission
// control, flow-pinned two-class burst queues, panic quarantine, and
// worker heartbeats. Stop it with Close.
func (r *Router) ServeGuarded(cfg ServeConfig) *Ingress {
	if cfg.HighDepth < 1 {
		cfg.HighDepth = 64
	}
	if cfg.LowDepth < 1 {
		cfg.LowDepth = 64
	}
	if cfg.Batch < 1 {
		cfg.Batch = DefaultBatch
	}
	if cfg.Batch > maxBatch {
		cfg.Batch = maxBatch
	}
	if cfg.Classify == nil {
		cfg.Classify = guard.Classify
	}
	if cfg.Clock == nil {
		cfg.Clock = core.Now
	}
	nq := cfg.Workers
	if nq < 1 {
		nq = 1 // pump mode: one queue, drained by the caller
	}
	shards := dispatchShards
	for shards < nq {
		shards *= 2 // at least one shard per forwarder
	}
	in := &Ingress{r: r, cfg: cfg, quarantine: guard.NewQuarantine(0)}
	in.queues = make([]*burstQueue, nq)
	for i := range in.queues {
		q := &burstQueue{
			high: pktRing{buf: make([]queuedPacket, cfg.HighDepth)},
			low:  pktRing{buf: make([]queuedPacket, cfg.LowDepth)},
		}
		q.ready.L = &q.mu
		in.queues[i] = q
	}
	in.dispatch = make([]int32, shards)
	for i := range in.dispatch {
		in.dispatch[i] = int32(i % nq)
	}
	in.shardMask = uint64(shards - 1)
	in.workers = make([]workerState, cfg.Workers)
	in.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go in.forwarder(in.queues[i], &in.workers[i])
	}
	if cfg.Workers == 0 {
		in.pumpBurst = make([]queuedPacket, 0, cfg.Batch)
	}
	r.ingress.Store(in)
	return in
}

// flowHash is the NDT-style dispatch key: a hash of the packet's FN
// locations — the region every address, name, and tag lives in — so all
// packets of one conversation land on the same forwarder regardless of
// which protocol their FN list composes. Packets that are not DIP-shaped
// (tunnel outers, garbage headed for quarantine) hash their leading bytes
// instead: they still get a stable forwarder, just not a semantic one.
func flowHash(pkt []byte) uint64 {
	if region := core.FlowRegion(pkt); region != nil {
		return nhash.Bytes(region)
	}
	n := len(pkt)
	if n > 32 {
		n = 32
	}
	return nhash.Bytes(pkt[:n])
}

// forwarderOf returns the index of the forwarder (and queue) pinned to
// pkt's flow: 0, with nothing hashed, when there is one (or pump mode).
func (in *Ingress) forwarderOf(pkt []byte) int {
	if len(in.queues) == 1 {
		return 0
	}
	return int(in.dispatch[flowHash(pkt)&in.shardMask])
}

// forwarder is one pinned forwarding goroutine: it owns exactly one queue
// and one execution context for life — the context's packet ordinal is the
// forwarder's exact 1-in-N sampling countdown, which a pooled context
// could not keep — and runs each collected burst to completion before
// touching the queue again. It exits when the queue is closed and drained.
func (in *Ingress) forwarder(q *burstQueue, w *workerState) {
	defer in.wg.Done()
	ctx := new(core.ExecContext)
	burst := make([]queuedPacket, 0, in.cfg.Batch)
	for {
		burst = q.collect(burst[:0], in.cfg.Batch, true)
		if len(burst) == 0 {
			return
		}
		in.runBurst(ctx, burst, w)
	}
}

// runBurst processes one burst run-to-completion on its forwarder's
// context: a single heartbeat stamp and one burst stamp cover the whole
// burst. The burst executes behind the panic quarantine, so a poison packet
// costs exactly itself — the rest of its burst completes.
func (in *Ingress) runBurst(ctx *core.ExecContext, burst []queuedPacket, w *workerState) {
	at := in.cfg.Clock()
	if w != nil {
		w.beat.Store(at)
		w.busy.Store(true)
	}
	// One clock read and one depth reading amortized over the burst: F_tel
	// (when a packet carries it) turns them into per-hop latency and queue
	// depth. The stamp also leaves the context's tally to one fold here, at
	// the burst's end, before Processed counts the burst.
	ctx.BeginBurst(len(burst), at)
	for i := 0; i < len(burst); {
		i = in.safeRun(ctx, burst, i)
	}
	in.r.engine.Fold(ctx)
	scrub(ctx)
	if w != nil {
		w.busy.Store(false)
	}
	in.processed.Add(int64(len(burst)))
}

// safeRun is the panic isolation boundary: it runs burst[i:] behind one
// deferred recover and returns where to resume — len(burst), or the packet
// after one that crashed the pipeline. That packet costs exactly itself: its
// bytes, ingress port, panic value, and stack are captured into the
// quarantine ring for offline dissection (guard.Capture renders
// dipdump-ready dumps).
func (in *Ingress) safeRun(ctx *core.ExecContext, burst []queuedPacket, i int) (next int) {
	defer func() {
		if p := recover(); p != nil {
			q := burst[next]
			burst[next] = queuedPacket{}
			next++
			in.panics.Add(1)
			cp := make([]byte, len(q.pkt))
			copy(cp, q.pkt)
			in.quarantine.Add(guard.Capture{
				InPort: q.inPort,
				Packet: cp,
				Panic:  fmt.Sprint(p),
				Stack:  string(debug.Stack()),
			})
			in.event(telemetry.EventQuarantine)
		}
	}()
	for next = i; next < len(burst); next++ {
		in.r.handlePacket(ctx, burst[next].pkt, burst[next].inPort)
		burst[next] = queuedPacket{} // drop the buffer reference promptly
	}
	return next
}

func (in *Ingress) event(e telemetry.Event) {
	if in.r.cfg.Metrics != nil {
		in.r.cfg.Metrics.RecordEvent(e)
	}
}

// Submit hands one packet to its flow's forwarder. Ownership of pkt
// transfers to the router (it is mutated in place and must not be reused
// by the caller). It returns false when the ingress is closed, admission
// control refuses the packet, or its class's ring on the pinned
// forwarder's queue is full (a shed).
func (in *Ingress) Submit(pkt []byte, inPort int) bool {
	if in.state.Add(1)&ingressClosedBit != 0 {
		in.state.Add(-1)
		return false
	}
	defer in.state.Add(-1)
	class := in.cfg.Classify(pkt)
	if in.cfg.Admission != nil && !in.cfg.Admission.Admit(inPort, class) {
		in.rejected.Add(1)
		in.event(telemetry.EventAdmitReject)
		return false
	}
	q := in.queues[in.forwarderOf(pkt)]
	q.mu.Lock()
	ring := &q.low
	if class == guard.ClassControl {
		ring = &q.high
	}
	ok := ring.push(queuedPacket{pkt: pkt, inPort: inPort})
	if ok {
		q.ready.Signal()
	}
	q.mu.Unlock()
	if !ok {
		in.countShed(class)
	}
	return ok
}

// countShed records one packet shed at a full ring of its class.
func (in *Ingress) countShed(class guard.Class) {
	in.dropped.Add(1)
	in.shed[class].Add(1)
	if class == guard.ClassControl {
		in.event(telemetry.EventShedHigh)
	} else {
		in.event(telemetry.EventShedLow)
	}
}

// SubmitBurst hands a whole received burst to the forwarders, returning
// how many packets were enqueued. It is the amortized ingress edge: one
// in-flight accounting round, per-class admission charged in runs (one
// clock read and one bucket update per run, so bulk exhaustion never
// starves the control packets interleaved with it), and one queue lock
// round per destination forwarder instead of one per packet. Ownership of
// every packet transfers to the router; rejected and shed packets are
// simply never referenced again, but the caller cannot tell which they
// were, so it must treat the whole burst as handed off. Relative
// submission order is preserved per flow.
func (in *Ingress) SubmitBurst(pkts [][]byte, inPort int) int {
	accepted := 0
	for len(pkts) > 0 {
		chunk := pkts
		if len(chunk) > maxSubmitBurst {
			chunk = chunk[:maxSubmitBurst]
		}
		accepted += in.submitChunk(chunk, inPort)
		pkts = pkts[len(chunk):]
	}
	return accepted
}

// submitChunk is SubmitBurst's bounded worker: len(pkts) ≤ maxSubmitBurst
// so per-packet scratch lives in fixed stack arrays (no allocation).
func (in *Ingress) submitChunk(pkts [][]byte, inPort int) int {
	if in.state.Add(1)&ingressClosedBit != 0 {
		in.state.Add(-1)
		return 0
	}
	defer in.state.Add(-1)
	n := len(pkts)
	var (
		cls  [maxSubmitBurst]guard.Class
		dst  [maxSubmitBurst]int32
		take [maxSubmitBurst]bool
		done [maxSubmitBurst]bool
	)
	for i, p := range pkts {
		cls[i] = in.cfg.Classify(p)
		dst[i] = int32(in.forwarderOf(p))
	}
	if in.cfg.Admission == nil {
		for i := 0; i < n; i++ {
			take[i] = true
		}
	} else {
		// Charge admission in same-class runs: each run costs one
		// AdmitBurst (one clock read, one update per bucket), and each
		// class is admitted on its own budget — a rejected bulk run never
		// blocks the control packets behind it.
		for i := 0; i < n; {
			j := i + 1
			for j < n && cls[j] == cls[i] {
				j++
			}
			granted := in.cfg.Admission.AdmitBurst(inPort, cls[i], j-i)
			for k := i; k < j; k++ {
				take[k] = k-i < granted
			}
			if rej := (j - i) - granted; rej > 0 {
				in.rejected.Add(int64(rej))
				for k := 0; k < rej; k++ {
					in.event(telemetry.EventAdmitReject)
				}
			}
			i = j
		}
	}
	accepted := 0
	for i := 0; i < n; i++ {
		if !take[i] || done[i] {
			continue
		}
		// Enqueue every not-yet-placed packet bound for this forwarder
		// under one lock round, in submission order.
		q := in.queues[dst[i]]
		q.mu.Lock()
		for k := i; k < n; k++ {
			if !take[k] || done[k] || dst[k] != dst[i] {
				continue
			}
			done[k] = true
			ring := &q.low
			if cls[k] == guard.ClassControl {
				ring = &q.high
			}
			if ring.push(queuedPacket{pkt: pkts[k], inPort: inPort}) {
				accepted++
			} else {
				in.countShed(cls[k])
			}
		}
		q.ready.Signal()
		q.mu.Unlock()
	}
	return accepted
}

// Pump synchronously drains every packet currently queued (control first,
// in bursts of up to Batch) on the caller's goroutine, returning how many
// it processed. It is the workerless (Workers: 0) drain loop: virtual-time
// simulations schedule Pump from simulator events so queue service happens
// in deterministic order inside virtual time — burst-shaped, but with no
// goroutine interleaving to perturb it. Pump must not run concurrently
// with itself or with goroutine workers.
func (in *Ingress) Pump() int {
	n := 0
	for {
		in.pumpBurst = in.queues[0].collect(in.pumpBurst[:0], in.cfg.Batch, false)
		if len(in.pumpBurst) == 0 {
			return n
		}
		in.runBurst(&in.pumpCtx, in.pumpBurst, nil)
		n += len(in.pumpBurst)
	}
}

// Dropped returns the tail-drop (queue shed) count across both classes.
func (in *Ingress) Dropped() int64 { return in.dropped.Load() }

// Processed returns how many packets have been handed to the pipeline.
func (in *Ingress) Processed() int64 { return in.processed.Load() }

// Quarantine returns the poison-packet ring for inspection.
func (in *Ingress) Quarantine() *guard.Quarantine { return in.quarantine }

// Close stops accepting packets, drains the queues, and waits for the
// forwarders to finish in-flight bursts. Safe to call multiple times and
// concurrently with Submit.
func (in *Ingress) Close() {
	in.closeOnce.Do(func() {
		in.state.Add(ingressClosedBit)
		// Wait out submitters that passed the closed check before the bit
		// was set; none can touch the queues after this loop exits.
		for in.state.Load() != ingressClosedBit {
			runtime.Gosched()
		}
		for _, q := range in.queues {
			q.mu.Lock()
			q.closed = true
			q.ready.Broadcast()
			q.mu.Unlock()
		}
		if len(in.workers) == 0 {
			in.Pump() // workerless mode: drain what remains inline
		}
		in.wg.Wait()
		in.r.ingress.CompareAndSwap(in, nil)
	})
}

// Health is a point-in-time snapshot of the guard layer: queue pressure
// per class, everything the guards turned away, quarantine volume, and
// worker liveness.
type Health struct {
	// Workers is the forwarding pool size (0 in pump mode).
	Workers int
	// Stalled counts workers that have been busy on a single burst for
	// longer than the stall threshold.
	Stalled int
	// HighDepth/LowDepth are current queue occupancies summed across
	// forwarders; HighCap/LowCap the summed bounds.
	HighDepth, HighCap int
	LowDepth, LowCap   int
	// ShedHigh/ShedLow count queue-full drops per class.
	ShedHigh, ShedLow int64
	// AdmitRejected counts admission-control refusals.
	AdmitRejected int64
	// Quarantined counts packets captured after panicking a worker.
	Quarantined int64
	// Processed counts packets handed to the pipeline.
	Processed int64
}

// String renders the snapshot as one diagnostic line.
func (h Health) String() string {
	return fmt.Sprintf(
		"workers=%d stalled=%d high=%d/%d low=%d/%d shed-high=%d shed-low=%d admit-rejected=%d quarantined=%d processed=%d",
		h.Workers, h.Stalled, h.HighDepth, h.HighCap, h.LowDepth, h.LowCap,
		h.ShedHigh, h.ShedLow, h.AdmitRejected, h.Quarantined, h.Processed)
}

// Health captures the current guard-layer state. Each call acts as the
// watchdog tick: newly observed worker stalls are recorded to telemetry.
func (in *Ingress) Health() Health {
	h := Health{
		Workers:       len(in.workers),
		HighCap:       in.cfg.HighDepth * len(in.queues),
		LowCap:        in.cfg.LowDepth * len(in.queues),
		ShedHigh:      in.shed[guard.ClassControl].Load(),
		ShedLow:       in.shed[guard.ClassBulk].Load(),
		AdmitRejected: in.rejected.Load(),
		Quarantined:   in.panics.Load(),
		Processed:     in.processed.Load(),
	}
	for _, q := range in.queues {
		q.mu.Lock()
		h.HighDepth += q.high.n
		h.LowDepth += q.low.n
		q.mu.Unlock()
	}
	now := in.cfg.Clock()
	for i := range in.workers {
		w := &in.workers[i]
		if w.busy.Load() && time.Duration(now-w.beat.Load()) > stallAfter {
			h.Stalled++
		}
	}
	if h.Stalled > 0 {
		in.event(telemetry.EventWorkerStall)
	}
	return h
}
