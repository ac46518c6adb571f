package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// The wire generator: one goroutine, locked to its thread, owning at most
// two non-blocking UDP sockets that it polls without ever sleeping. Socket 0
// is router port 0's peer and socket 1 is port 1's. Everything it sends is
// pre-built; the timed loops allocate nothing.

const (
	keySpace  = 1 << 16 // distinct request keys (packets or content names)
	ringSize  = 1 << 13 // outstanding-op ring; > paced rate × op timeout
	opTimeout = 200 * time.Millisecond
)

// verdict classifies a datagram the generator received.
type verdict uint8

const (
	stray    verdict = iota // not an answer to anything in flight: a failed op
	replyOK                 // byte-correct answer for key k
	replyBad                // answer for key k with wrong bytes
	forward                 // router forwarded a request upstream; resp answers it
)

// wireLoad is what differs between the wire workloads: how a request for
// key k is built and how datagrams arriving on each socket are judged.
type wireLoad interface {
	// request returns the datagram asking for key k. The generator sends it
	// on socket 0 before calling request again.
	request(k, seq uint32, due int64) []byte
	// onSock judges a datagram received on socket s. For forward, resp is
	// the datagram to send back on the same socket.
	onSock(s int, pkt []byte) (k uint32, v verdict, resp []byte)
	// polled reports which sockets can legitimately receive traffic; the
	// other is checked rarely, only to catch misdelivery.
	polled() [2]bool
}

type wireOp struct {
	key  uint32
	due  int64
	done bool
	fwd  bool // the router passed the request upstream and holds state for it
}

type wireGen struct {
	load wireLoad
	fd   [2]int // -1 = absent
	keys []uint32
	base time.Time

	ring       []wireOp
	head, tail uint32
	slot       []int32 // key → ring index + 1 while in flight
	inflight   int
	cursor     int
	seq        uint32
	rbuf       []byte

	attempted, completed, failed, timeouts, strays int64
	polls, idlePolls, ioErrs                       int64
	forwards                                       int64 // requests the router passed upstream (socket 1)
	pending, pendingPeak                           int   // forwarded requests not yet answered: the router's pending-interest entries, as seen from outside
	lat, late                                      *samples
	lateCount                                      int64
	lateAfter                                      int64 // a paced op sent this long after it was due is "late"
	record                                         bool
}

func newWireGen(load wireLoad, fd [2]int, keys []uint32, latCap int) *wireGen {
	return &wireGen{
		load: load, fd: fd, keys: keys, base: time.Now(),
		ring: make([]wireOp, ringSize),
		slot: make([]int32, keySpace),
		rbuf: make([]byte, 2048),
		lat:  newSamples(latCap),
		late: newSamples(latCap),
	}
}

func (g *wireGen) now() int64 { return int64(time.Since(g.base)) }

// reset forgets everything outstanding and zeroes the counters; used after
// probing, whose lost datagrams are not ops.
func (g *wireGen) reset() {
	for i := range g.slot {
		g.slot[i] = 0
	}
	g.head, g.tail, g.inflight, g.pending, g.pendingPeak = 0, 0, 0, 0, 0
	g.attempted, g.completed, g.failed, g.timeouts, g.strays = 0, 0, 0, 0, 0
	g.polls, g.idlePolls, g.ioErrs, g.forwards, g.lateCount = 0, 0, 0, 0, 0
	g.lat.reset()
	g.late.reset()
}

// lookAhead is how far send searches the key sequence for a key that is
// not in flight.
const lookAhead = 16

// send issues the next request of the key sequence, timed from due. A
// consumer does not ask twice for what it is already waiting for: when the
// next key is still in flight, the first of the following keys that is not
// takes its place and the postponed key keeps its turn for the next send, so
// one slow answer delays only requests for the same key. It reports false
// when nothing was sent: every key in reach is in flight, the op ring is
// full, or the socket would block.
func (g *wireGen) send(due, now int64) bool {
	k := g.keys[g.cursor]
	for j := 1; g.slot[k] != 0; j++ {
		if j > lookAhead {
			return false
		}
		o := g.cursor + j
		if o >= len(g.keys) {
			o -= len(g.keys)
		}
		if g.slot[g.keys[o]] == 0 {
			g.keys[g.cursor], g.keys[o] = g.keys[o], k
			k = g.keys[g.cursor]
		}
	}
	if g.tail-g.head == ringSize {
		return false
	}
	if _, err := syscall.Write(g.fd[0], g.load.request(k, g.seq, due)); err != nil {
		if err != syscall.EAGAIN && err != syscall.ENOBUFS {
			g.ioErrs++
		}
		return false
	}
	i := g.tail & (ringSize - 1)
	g.ring[i] = wireOp{key: k, due: due}
	g.slot[k] = int32(i) + 1
	g.tail++
	g.inflight++
	g.attempted++
	g.seq++
	if g.cursor++; g.cursor == len(g.keys) {
		g.cursor = 0
	}
	if g.record {
		if now-due > g.lateAfter {
			g.lateCount++
		}
		g.late.add(now - due)
	}
	return true
}

// poll makes one non-blocking read on socket s and handles what arrived.
func (g *wireGen) poll(s int) {
	n, err := syscall.Read(g.fd[s], g.rbuf)
	g.polls++
	if err != nil {
		if err == syscall.EAGAIN {
			g.idlePolls++
		} else {
			g.ioErrs++
		}
		return
	}
	k, v, resp := g.load.onSock(s, g.rbuf[:n])
	if v != stray && g.slot[k] == 0 {
		v = stray // well-formed, but nothing in flight asked for it
	}
	switch v {
	case stray:
		g.strays++
		g.failed++
	case forward:
		g.forwards++
		if op := &g.ring[g.slot[k]-1]; !op.fwd {
			op.fwd = true
			g.pending++
			g.pendingPeak = max(g.pendingPeak, g.pending)
		}
		if _, err := syscall.Write(g.fd[s], resp); err != nil {
			g.ioErrs++
		}
	case replyOK, replyBad:
		op := &g.ring[g.slot[k]-1]
		op.done = true
		g.slot[k] = 0
		g.inflight--
		if op.fwd {
			g.pending--
		}
		if v == replyBad {
			g.failed++
			return
		}
		g.completed++
		if g.record {
			g.lat.add(g.now() - op.due)
		}
	}
}

// expire retires finished ops at the head of the ring and fails the oldest
// one once its reply is opTimeout overdue.
func (g *wireGen) expire(now int64) {
	for g.head != g.tail {
		op := &g.ring[g.head&(ringSize-1)]
		if !op.done {
			if now-op.due < int64(opTimeout) {
				return
			}
			g.slot[op.key] = 0
			g.inflight--
			if op.fwd {
				g.pending--
			}
			g.timeouts++
			g.failed++
		}
		g.head++
	}
}

// pollAll polls the sockets the load expects traffic on; every 256th call
// it also polls the other one, where any datagram is a misdelivery.
func (g *wireGen) pollAll(iter int) {
	hot := g.load.polled()
	for s := 0; s < 2; s++ {
		if g.fd[s] >= 0 && (hot[s] || iter&255 == 0) {
			g.poll(s)
		}
	}
}

// phase describes one timed stretch of generator activity.
type phase struct {
	dur      time.Duration
	inFlight int           // closed loop: ops kept in flight; paced: cap on outstanding ops
	interval time.Duration // 0 = closed loop; otherwise one op is due every interval
	windows  int           // cut dur into this many slices (0 = none)
	record   bool          // log latency and lateness
}

// cpuProbe samples the CPU seconds of the process under test at slice
// boundaries; nil where a phase has no use for them.
type cpuProbe func() float64

// run executes one phase and returns its slice statistics. Ops still in
// flight when the phase ends are drained (or time out) before it returns.
// A scraper, if given, is polled from the loop: the generator is one thread
// and has nobody else to fetch /metrics while it drives.
func (g *wireGen) run(p phase, probe cpuProbe, sc *scraper) []windowStat {
	g.record = p.record
	// Late means the generator missed the slot: the next op was already due.
	g.lateAfter = int64(p.interval)
	wins := make([]windowStat, 0, p.windows)
	winLen := int64(p.dur)
	if p.windows > 0 {
		winLen = int64(p.dur) / int64(p.windows)
	}
	if probe == nil {
		probe = func() float64 { return 0 }
	}
	cpuAt := probe()
	start := g.now()
	end := start + int64(p.dur)
	nextDue, winStart, opsAt := start, start, g.completed
	scraped := false
	for iter := 0; ; iter++ {
		now := g.now()
		if len(wins) < p.windows && now-winStart >= winLen {
			// Reading the child's CPU time takes a few file reads; the
			// next slice starts after them and a paced schedule is put off
			// by as much.
			cpu := probe()
			wins = append(wins, windowStat{ops: g.completed - opsAt, wall: float64(now-winStart) / 1e9, cpu: cpu - cpuAt, latEnd: len(g.lat.ns), scraped: scraped})
			cpuAt, scraped = cpu, sc.busy()
			resume := g.now()
			nextDue += resume - now
			now, winStart, opsAt = resume, resume, g.completed
		}
		// A sliced phase ends with its last slice, whose start drifted by
		// however late the earlier boundaries were noticed.
		if len(wins) == p.windows && now >= end {
			break
		}
		if p.interval == 0 {
			for g.inflight < p.inFlight && g.send(now, now) {
			}
		} else if now >= nextDue && g.inflight < p.inFlight && g.send(nextDue, now) {
			nextDue += int64(p.interval)
		}
		g.pollAll(iter)
		g.expire(now)
		if sc != nil && iter&63 == 0 {
			sc.poll(now)
			scraped = scraped || sc.busy()
		}
	}
	for iter := 1; g.inflight > 0; iter++ {
		g.pollAll(iter)
		g.expire(g.now())
	}
	g.record = false
	return wins
}

// probeUntilUp sends requests for rarely used keys until the first one is
// answered correctly, which is when set-up ends. Datagrams sent before the
// child has bound its socket are lost; they are not ops, so the generator
// is reset afterwards.
func (g *wireGen) probeUntilUp(limit time.Duration) error {
	saved := g.keys
	probeKeys := make([]uint32, 1024)
	for i := range probeKeys {
		probeKeys[i] = uint32(keySpace - 1 - i)
	}
	g.keys, g.cursor = probeKeys, 0
	defer func() { g.keys, g.cursor = saved, 0 }()

	start := g.now()
	nextSend := start
	for iter := 0; g.completed == 0; iter++ {
		now := g.now()
		if now-start > int64(limit) {
			return fmt.Errorf("no verified reply within %v of starting the child", limit)
		}
		if now >= nextSend {
			g.send(now, now)
			nextSend = now + int64(500*time.Microsecond)
		}
		g.pollAll(iter)
		g.expire(now)     // recycle the keys of probes that were lost
		runtime.Gosched() // set-up is not a timed loop; let the runtime breathe
	}
	// Let answers to the other probes arrive, then forget them all.
	quiet := g.now() + int64(20*time.Millisecond)
	for iter := 0; g.now() < quiet; iter++ {
		g.pollAll(iter)
	}
	g.reset()
	return nil
}

func closeSockets(fd [2]int) {
	for _, f := range fd {
		if f >= 0 {
			syscall.Close(f)
		}
	}
}
