// Package netsim is a small discrete-event network simulator: virtual
// time, an event queue, and links with propagation delay and serialization
// (bandwidth) delay. It stands in for the paper's lab testbed when
// exercising multi-hop DIP scenarios — NDN interest/data exchanges with PIT
// state at every hop, OPT tag chains across a path, tunnels across legacy
// domains — deterministically and without real sockets.
package netsim

import (
	"container/heap"
	"time"
)

// Receiver is anything that accepts packets on numbered ports (routers,
// host stacks, tunnel endpoints).
type Receiver interface {
	Receive(pkt []byte, port int)
}

// ReceiverFunc adapts a function to Receiver.
type ReceiverFunc func(pkt []byte, port int)

// Receive implements Receiver.
func (f ReceiverFunc) Receive(pkt []byte, port int) { f(pkt, port) }

type event struct {
	at  time.Duration
	seq int64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// Simulator owns virtual time and the event queue. Not safe for concurrent
// use: everything runs on the caller's goroutine, which is what makes runs
// reproducible.
type Simulator struct {
	now time.Duration
	pq  eventHeap
	seq int64
	// Delivered counts packets handed to receivers, for sanity checks.
	Delivered int64
}

// New returns a simulator at time zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Schedule queues fn to run after delay (≥ 0) of virtual time.
func (s *Simulator) Schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	s.seq++
	heap.Push(&s.pq, event{at: s.now + delay, seq: s.seq, fn: fn})
}

// Run drains the event queue, returning how many events ran.
func (s *Simulator) Run() int { return s.RunUntil(1<<62 - 1) }

// RunUntil processes events with timestamps ≤ t, leaving later ones queued.
func (s *Simulator) RunUntil(t time.Duration) int {
	n := 0
	for len(s.pq) > 0 && s.pq[0].at <= t {
		e := heap.Pop(&s.pq).(event)
		s.now = e.at
		e.fn()
		n++
	}
	if t < 1<<62-1 && s.now < t {
		s.now = t
	}
	return n
}

// Pending returns the number of queued events.
func (s *Simulator) Pending() int { return len(s.pq) }

// Endpoint is one direction of a link: a router.Port-compatible sender that
// copies the packet and schedules its arrival at the destination after
// propagation plus serialization delay.
type Endpoint struct {
	sim     *Simulator
	dst     Receiver
	dstPort int
	delay   time.Duration
	bps     int64 // 0 = infinite bandwidth
	// busyUntil models serialization occupancy: a packet cannot start
	// transmitting before the previous one finished, so bursts queue.
	busyUntil time.Duration
	// QueueLimit bounds queued transmission time; a packet whose start
	// would lag now by more than this is tail-dropped. Zero = unbounded.
	QueueLimit time.Duration
	// Dropped, when set, makes the link black-hole packets (failure
	// injection for tests).
	Dropped bool
	// Sent counts packets offered to the link.
	Sent int64
	// Bytes counts payload bytes offered.
	Bytes int64
	// TailDrops counts packets shed by the queue limit.
	TailDrops int64
	// impair, when set, applies the seeded fault model to every packet
	// (see impair.go). Nil means a perfect link, exactly as before.
	impair *Impairment
	// obs, when set, receives every transit's fate (see observe.go).
	obs TransitObserver
	// inFlight counts packet copies scheduled but not yet delivered — the
	// link's instantaneous occupancy, which telemetry uses as a queue-depth
	// proxy on bps=0 links where serialization occupancy is always zero.
	inFlight int
}

// InFlight returns how many packet copies are currently in transit on this
// endpoint (scheduled, not yet delivered).
func (e *Endpoint) InFlight() int { return e.inFlight }

// Pipe creates an endpoint that delivers into dst's dstPort with the given
// propagation delay and bandwidth (bits per second; 0 means infinite).
// Options (fault injection, queue limits) apply in order.
func (s *Simulator) Pipe(dst Receiver, dstPort int, delay time.Duration, bps int64, opts ...LinkOption) *Endpoint {
	e := &Endpoint{sim: s, dst: dst, dstPort: dstPort, delay: delay, bps: bps}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Send implements the router Port contract: the packet is copied, so the
// caller's buffer is free for reuse when Send returns. With finite
// bandwidth, back-to-back packets queue behind each other on the link
// (serialization occupancy), and QueueLimit sheds excess queue.
func (e *Endpoint) Send(pkt []byte) {
	e.Sent++
	e.Bytes += int64(len(pkt))
	now := e.sim.Now()
	if e.Dropped {
		e.observeDrop(pkt, now, now, "link-down")
		return
	}
	start := now
	if e.bps > 0 && e.busyUntil > start {
		start = e.busyUntil
	}
	if e.QueueLimit > 0 && start-now > e.QueueLimit {
		e.TailDrops++
		e.observeDrop(pkt, now, start, "tail-drop")
		return
	}
	var tx time.Duration
	if e.bps > 0 {
		tx = time.Duration(int64(len(pkt)) * 8 * int64(time.Second) / e.bps)
		e.busyUntil = start + tx
	}
	arrival := start - now + tx + e.delay
	copies := 1
	corrupted := false
	orig := pkt
	if im := e.impair; im != nil {
		v := im.decide(now, len(pkt))
		if v.drop {
			// decide does not say which fault fired, but DownAt is pure
			// (no RNG), so re-checking it attributes the drop without
			// perturbing the deterministic fault sequence.
			cause := "loss"
			if im.DownAt(now) {
				cause = "down"
			}
			e.observeDrop(pkt, now, start, cause)
			return
		}
		arrival += v.extraDelay
		copies = v.copies
		if v.corruptAt >= 0 {
			// Flip one bit in a scratch copy so the sender's buffer (which
			// the contract says we must not retain or mutate) stays intact.
			cp := make([]byte, len(pkt))
			copy(cp, pkt)
			cp[v.corruptAt] ^= 0x01
			pkt = cp
			corrupted = true
		}
	}
	if e.obs != nil {
		// Report the pre-corruption bytes so content-derived correlation
		// (journey fingerprints) matches the sender's view of the packet.
		e.obs(Transit{
			Pkt:       orig,
			Offered:   now,
			Start:     start,
			Arrival:   now + arrival,
			Queue:     start - now,
			Wire:      arrival - (start - now),
			Copies:    copies,
			Corrupted: corrupted,
		})
	}
	dst, port := e.dst, e.dstPort
	sim := e.sim
	for i := 0; i < copies; i++ {
		cp := make([]byte, len(pkt))
		copy(cp, pkt)
		at := arrival
		if i > 0 {
			// Duplicates trail the original by the reorder lag.
			lag := e.impair.ReorderDelay
			if lag == 0 {
				lag = time.Millisecond
			}
			at += lag
		}
		e.inFlight++
		sim.Schedule(at, func() {
			e.inFlight--
			sim.Delivered++
			dst.Receive(cp, port)
		})
	}
}

// observeDrop reports a transit that died on this link. Queue covers the
// time the packet would have waited before the fault killed it (nonzero
// only for tail drops, which are decided by queue depth).
func (e *Endpoint) observeDrop(pkt []byte, now, start time.Duration, cause string) {
	if e.obs == nil {
		return
	}
	e.obs(Transit{
		Pkt:     pkt,
		Offered: now,
		Start:   start,
		Queue:   start - now,
		Dropped: true,
		Cause:   cause,
	})
}
