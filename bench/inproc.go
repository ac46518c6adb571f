package main

import (
	"bytes"
	crand "crypto/rand"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"dip"
	"dip/internal/telemetry"
	"dip/internal/workload"
)

// The in-process workloads: no sockets, the real dip.Router behind
// ServeGuarded, fed the mixed trace in bursts. With one P the submitter and
// the forwarder take turns on the same thread, so the order in which packets
// meet the content store and the PIT is the submission order and a
// single-threaded replay predicts every packet's fate.

const (
	mixBurst    = 64     // packets per SubmitBurst
	mixDepth    = 4096   // ingress ring depth = most packets in flight
	mixRate     = 200000 // paced packets/s
	mixCache    = 8192
	mixNames    = keySpace
	mixZipfS    = 1.1
	mixPorts    = 4
	obsEvery    = 1024 // -trace-every and -journey-every of the observed router
	mixUpLimit  = 10 * time.Second
	eventSynth  = 1 // expected-event flag: the router built the packet itself (cache reply)
	eventPortSh = 1
	eventIdxSh  = 3
)

// mixInputs is everything generated from the seed.
type mixInputs struct {
	secret *dip.SecretValue
	pkts   []workload.Packet
}

// genMix builds the five-protocol trace: IPv4 4 : IPv6 2 : NDN 2 : OPT 1 :
// NDN+OPT 1 over 65 536 Zipf(1.1) names, every packet arriving on port 0.
func genMix(seed int64, events int) (*mixInputs, error) {
	secret, err := dip.NewSecret("bench", bytes.Repeat([]byte{0x42}, 16))
	if err != nil {
		return nil, err
	}
	dst, err := dip.NewSecret("dst", bytes.Repeat([]byte{0xD0}, 16))
	if err != nil {
		return nil, err
	}
	// NewSession draws the session ID from crypto/rand; a seeded reader for
	// the duration of the call keeps the packets a function of the seed.
	saved := crand.Reader
	crand.Reader = rand.New(rand.NewSource(seed))
	sess, err := dip.NewSession(dip.MAC2EM, []dip.HopConfig{{Secret: secret}}, dst)
	crand.Reader = saved
	if err != nil {
		return nil, err
	}
	tr, err := workload.Generate(workload.Spec{
		Weights: map[workload.Protocol]float64{
			workload.ProtoIPv4: 4, workload.ProtoIPv6: 2, workload.ProtoNDN: 2,
			workload.ProtoOPT: 1, workload.ProtoNDNOPT: 1,
		},
		Names: mixNames, ZipfS: mixZipfS, Ports: 1, Session: sess, Seed: seed,
	}, events)
	if err != nil {
		return nil, err
	}
	return &mixInputs{secret: secret, pkts: tr.Packets}, nil
}

// mixNode is one router over its own state.
type mixNode struct {
	state   *dip.NodeState
	r       *dip.Router
	metrics *telemetry.Metrics // nil without observation
	tracer  *dip.TraceRecorder // nil below full observation
}

// newMixState builds the tables every mix router and engine twin shares in
// shape: a content store an eighth of the name population, OPT enabled,
// and one route per address family, each to its own port.
func newMixState(secret *dip.SecretValue) *dip.NodeState {
	st := dip.NewNodeState()
	st.EnableCache(mixCache)
	st.EnableOPT(secret, dip.MAC2EM, [16]byte{}, 0)
	st.FIB32.AddUint32(uint32(workload.AddrPrefixByte)<<24, 8, dip.NextHop{Port: 1})
	pfx := make([]byte, 16)
	pfx[0] = workload.Addr6PrefixByte
	st.FIB128.Add(pfx, 8, dip.NextHop{Port: 2})
	st.NameFIB.AddUint32(workload.NamePrefix, 8, dip.NextHop{Port: 3})
	return st
}

// newNode wires a router over st to egress, observed at the given level
// (see newRecorder), the way cmd/diprouter assembles one.
func newNode(st *dip.NodeState, level int, egress func(port int, pkt []byte), deliver func([]byte, int)) *mixNode {
	n := &mixNode{state: st}
	rec, metrics, tr := newRecorder(level)
	n.metrics, n.tracer = metrics, tr
	n.r = dip.NewRouter(st.OpsConfig(), dip.RouterOptions{Name: "bench", LocalDelivery: deliver, Metrics: metrics, Trace: tr})
	if level == obsFull {
		n.r.SetRecorder(rec)
	}
	for p := 0; p < mixPorts; p++ {
		p := p
		n.r.AttachPort(dip.PortFunc(func(pkt []byte) { egress(p, pkt) }))
	}
	return n
}

// verdictCounts is what telemetry.Metrics can say about packet fates.
type verdictCounts struct{ forwarded, delivered, absorbed, noAction, dropped int64 }

func countsOf(m *telemetry.Metrics) verdictCounts {
	s := m.Snapshot()
	return verdictCounts{s.Forwarded, s.Delivered, s.Absorbed, s.NoAction, s.Dropped}
}

func (a verdictCounts) sub(b verdictCounts) verdictCounts {
	return verdictCounts{a.forwarded - b.forwarded, a.delivered - b.delivered, a.absorbed - b.absorbed, a.noAction - b.noAction, a.dropped - b.dropped}
}

func (a verdictCounts) plusTimes(b verdictCounts, n int64) verdictCounts {
	return verdictCounts{a.forwarded + n*b.forwarded, a.delivered + n*b.delivered, a.absorbed + n*b.absorbed, a.noAction + n*b.noAction, a.dropped + n*b.dropped}
}

// reference is the oracle: the egress events and verdict counts of a cold
// pass over the trace and of every pass after it.
type reference struct {
	events   [2][]uint32 // [0] first pass (cold store), [1] steady passes
	verdicts [2]verdictCounts
}

// replayReference runs the trace through a fresh router on one goroutine,
// packet by packet through Router.HandlePacket, three times over. Each
// packet is replayed from a scratch copy, so the inputs stay as generated.
// The second and third passes must agree: a pass touches more distinct
// names than the store holds, so the store ends every pass in the same state
// and all later passes repeat the second.
func replayReference(in *mixInputs) (*reference, error) {
	ref := &reference{}
	var (
		cur     []uint32
		idx     int
		scratch []byte
	)
	node := newNode(newMixState(in.secret), obsMetrics,
		func(port int, pkt []byte) {
			e := uint32(idx)<<eventIdxSh | uint32(port)<<eventPortSh
			if &pkt[0] != &scratch[0] {
				e |= eventSynth
			}
			cur = append(cur, e)
		},
		func([]byte, int) { cur = append(cur, ^uint32(0)) }) // a local delivery: no mix packet should cause one
	var passes [3][]uint32
	var counts [4]verdictCounts
	for p := range passes {
		cur = make([]uint32, 0, len(in.pkts))
		for idx = range in.pkts {
			scratch = append(scratch[:0], in.pkts[idx].Buf...)
			node.r.HandlePacket(scratch, in.pkts[idx].InPort)
		}
		passes[p] = cur
		counts[p+1] = countsOf(node.metrics)
	}
	if !equalU32(passes[1], passes[2]) || counts[2].sub(counts[1]) != counts[3].sub(counts[2]) {
		return nil, fmt.Errorf("reference replay is not periodic: passes 2 and 3 differ, so later passes cannot be predicted")
	}
	ref.events = [2][]uint32{passes[0], passes[1]}
	ref.verdicts = [2]verdictCounts{counts[1], counts[2].sub(counts[1])}
	return ref, nil
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mixSys is one started in-process instance under measurement.
type mixSys struct {
	in   *mixInputs
	ref  *reference
	node *mixNode
	ing  *dip.Ingress
	base time.Time

	burst     [][]byte
	cursor    int   // next packet of the trace
	passes    int64 // completed submission passes
	submitted int64

	// Egress side, written by the forwarder goroutine. One P and the
	// Processed() hand-shake order these against the submitter's reads.
	evPass, evCur int
	events        int64
	failed        int64
	delivered     int64
	pitPeak       int
	traced        bool

	pacing     bool
	curDue     int64
	firstEvent bool
	lat, first *samples
}

func (s *mixSys) now() int64 { return int64(time.Since(s.base)) }

// egress checks one packet leaving the router against the next expected
// event: same port, and either the very buffer that was submitted or, for a
// cache reply, a packet the router built for the same name.
func (s *mixSys) egress(port int, pkt []byte) {
	exp := s.ref.events[s.evPass]
	if s.evCur == len(exp) {
		s.evPass, s.evCur = 1, 0
		exp = s.ref.events[1]
	}
	s.events++
	if len(exp) == 0 {
		s.failed++ // nothing may leave in a pass the reference saw nothing leave
		return
	}
	e := exp[s.evCur]
	s.evCur++
	orig := s.in.pkts[e>>eventIdxSh].Buf
	ok := int(e>>eventPortSh&3) == port
	if e&eventSynth == 0 {
		ok = ok && &pkt[0] == &orig[0]
	} else {
		// Interest and data headers are the same size; the name sits last.
		n := len(orig)
		ok = ok && &pkt[0] != &orig[0] && len(pkt) > n && bytes.Equal(pkt[n-4:n], orig[n-4:n])
	}
	if !ok {
		s.failed++
	}
	if s.pacing {
		t := s.now()
		s.lat.add(t - s.curDue)
		if s.firstEvent {
			s.first.add(t - s.curDue)
			s.firstEvent = false
		}
	}
	if s.traced && s.events&63 == 0 {
		s.pitPeak = max(s.pitPeak, s.node.state.PIT.Len())
	}
}

// submitNext hands the next mixBurst packets of the trace to the ingress.
func (s *mixSys) submitNext() {
	for j := range s.burst {
		p := &s.in.pkts[s.cursor]
		p.Rearm()
		s.burst[j] = p.Buf
		if s.cursor++; s.cursor == len(s.in.pkts) {
			s.cursor = 0
			s.passes++
		}
	}
	// Every packet arrives on port 0 (the trace is generated that way), so
	// a burst shares one in-port as SubmitBurst requires.
	if n := s.ing.SubmitBurst(s.burst, 0); n != len(s.burst) {
		s.failed += int64(len(s.burst) - n) // shed at the ring: the op is lost
	}
	s.submitted += int64(len(s.burst))
}

// drain yields to the forwarder until everything submitted is processed.
func (s *mixSys) drain() {
	for s.ing.Processed()+s.ing.Dropped() < s.submitted {
		runtime.Gosched()
	}
}

// startMix is one complete set-up: generate the inputs, build the router
// with its tables, start the guarded ingress and push the first burst
// through it; set-up ends when that burst has been processed and its
// packets left as the reference says.
func startMix(cfg config, ref *reference) (*mixSys, error) {
	in, err := genMix(cfg.seed, cfg.size.events)
	if err != nil {
		return nil, err
	}
	s := &mixSys{in: in, ref: ref, base: time.Now(), burst: make([][]byte, mixBurst), traced: cfg.traced}
	level := obsNone
	if cfg.workload == "inproc-mix-obs" {
		level = obsFull
	}
	s.node = newNode(newMixState(in.secret), level, s.egress, func([]byte, int) { s.delivered++ })
	s.ing = s.node.r.ServeGuarded(dip.ServeConfig{Workers: 1, Batch: mixBurst, HighDepth: mixDepth, LowDepth: mixDepth})
	s.submitNext()
	deadline := time.Now().Add(mixUpLimit)
	for s.ing.Processed() < s.submitted {
		if time.Now().After(deadline) {
			s.ing.Close()
			return nil, fmt.Errorf("%s: first burst not processed within %v", cfg.workload, mixUpLimit)
		}
		runtime.Gosched()
	}
	if s.failed > 0 {
		s.ing.Close()
		return nil, fmt.Errorf("%s: the first burst left the router differently from the reference replay", cfg.workload)
	}
	return s, nil
}

// saturate keeps the ingress ring as full as it goes for the given number
// of slices (or, with none, for one slice length, unmeasured) and returns
// their statistics. The clock is read between slices, outside their time:
// with one P the forwarder only runs when this goroutine yields.
func (s *mixSys) saturate(slice time.Duration, slices int) []windowStat {
	wins := make([]windowStat, 0, slices)
	step := stepNs()
	winStart := s.now()
	end := winStart + int64(slice)*int64(max(slices, 1))
	doneAt := s.ing.Processed()
	cpuAt := selfCPUSeconds()
	for {
		now := s.now()
		if len(wins) < slices && now-winStart >= int64(slice) {
			w := windowStat{ops: s.ing.Processed() - doneAt, wall: float64(now-winStart) / 1e9, cpu: selfCPUSeconds() - cpuAt}
			next := stepNs()
			w.step, step = (step+next)/2, next
			wins = append(wins, w)
			now = s.now()
			winStart, doneAt, cpuAt = now, s.ing.Processed(), selfCPUSeconds()
		}
		if len(wins) == slices && now >= end {
			break
		}
		for s.submitted-s.ing.Processed() <= mixDepth-mixBurst {
			s.submitNext()
		}
		runtime.Gosched() // the forwarder drains the ring and parks; then we run again
	}
	s.drain()
	return wins
}

// paced submits one burst every mixBurst/mixRate seconds, each timed from
// when it was due, and waits for it to be processed before the next.
func (s *mixSys) paced(slice time.Duration, slices int, ph *phases) {
	interval := int64(time.Second) * mixBurst / mixRate
	ph.late = newSamples(int(int64(slice)*int64(slices)/interval) + 1024)
	step := stepNs()
	winStart := s.now()
	nextDue := winStart
	s.pacing = true
	for len(ph.paced) < slices {
		now := s.now()
		if now-winStart >= int64(slice) {
			// The ring is empty between bursts; the schedule is put off by
			// the time the clock reading takes.
			next := stepNs()
			ph.paced = append(ph.paced, windowStat{latEnd: len(s.lat.ns), step: (step + next) / 2})
			step = next
			winStart = s.now()
			nextDue += winStart - now
			continue
		}
		if now < nextDue {
			continue
		}
		if now-nextDue > interval {
			ph.lateCount++ // missed the slot: the next burst was already due
		}
		ph.late.add(now - nextDue)
		s.curDue, s.firstEvent = nextDue, true
		s.submitNext()
		s.drain()
		nextDue += interval
	}
	s.pacing = false
}

// finish completes the current pass, stops the ingress and checks the
// totals the per-packet checks cannot see.
func (s *mixSys) finish() (violations []string) {
	for s.cursor != 0 {
		s.submitNext()
		s.drain()
	}
	s.ing.Close()
	if s.evCur != len(s.ref.events[s.evPass]) {
		violations = append(violations, fmt.Sprintf("%d egress events of the last pass never happened", len(s.ref.events[s.evPass])-s.evCur))
	}
	if s.delivered != 0 {
		violations = append(violations, fmt.Sprintf("%d unexpected local deliveries", s.delivered))
	}
	if got, want := s.ing.Processed(), s.submitted; got != want {
		violations = append(violations, fmt.Sprintf("processed %d of %d submitted packets (%d shed)", got, want, s.ing.Dropped()))
	}
	if s.node.metrics != nil {
		want := s.ref.verdicts[0].plusTimes(s.ref.verdicts[1], s.passes-1)
		if got := countsOf(s.node.metrics); got != want {
			violations = append(violations, fmt.Sprintf("verdict counts %+v differ from the reference replay's %+v over %d passes", got, want, s.passes))
		}
	}
	return violations
}

// mixSetups times n complete set-ups and appends them to ph, as measured
// and at the reference clock: a set-up is a tenth of a second of this
// thread's CPU work, and follows the clock as the timed phases do. The
// previous instance's inputs are garbage by the time the next is built;
// collecting them first keeps the memory peak at one set. The last instance
// started is returned running.
func mixSetups(cfg config, ref *reference, n int, ph *phases) (*mixSys, error) {
	var sys *mixSys
	for i := 0; i < n; i++ {
		if sys != nil {
			sys.ing.Close()
			sys = nil
		}
		runtime.GC()
		step := stepNs()
		t0 := time.Now()
		var err error
		if sys, err = startMix(cfg, ref); err != nil {
			return nil, err
		}
		took := time.Since(t0).Seconds()
		ph.setupsRaw = append(ph.setupsRaw, took)
		ph.setups = append(ph.setups, took/((step+stepNs())/2/refStepNs))
	}
	return sys, nil
}

// runInproc measures an in-process workload end to end and, in a traced
// run, the per-layer replay as well.
func runInproc(cfg config) (*outcome, error) {
	p := cfg.plan
	t0 := time.Now()
	in0, err := genMix(cfg.seed, cfg.size.events)
	if err != nil {
		return nil, err
	}
	buildS := time.Since(t0).Seconds()
	ref, err := replayReference(in0)
	if err != nil {
		return nil, err
	}
	note("trace: %d packets from %d events; reference: %d egress events cold, %d steady", len(in0.pkts), cfg.size.events, len(ref.events[0]), len(ref.events[1]))
	var lay *layers
	if cfg.traced {
		if lay, err = replayLayers(cfg, mixReplayInputs(in0, cfg.size.replay), func() *dip.NodeState { return newMixState(in0.secret) }); err != nil {
			return nil, err
		}
	}
	in0 = nil

	ph := &phases{}
	sys, err := mixSetups(cfg, ref, p.setups, ph)
	if err != nil {
		return nil, err
	}
	// spare times a group of throw-away set-ups while the router idles.
	spare := func() error {
		if cfg.traced {
			return nil
		}
		extra, err := mixSetups(cfg, ref, p.setups, ph)
		if err != nil {
			return err
		}
		extra.ing.Close()
		return nil
	}
	latCap := int(mixRate*p.paced().Seconds()*1.25) + 1024
	sys.lat, sys.first = newSamples(latCap), newSamples(latCap/mixBurst+1024)

	// The process under test is this process, and so far it has mostly held
	// the generator's garbage: earlier inputs, the reference replay. Return
	// that to the kernel and restart the high-water mark, so that rss_mb is
	// the peak of the saturating phase: one set of inputs plus the router.
	debug.FreeOSMemory()
	resetPeakRSS()
	sys.saturate(p.warm, 0)
	ph.sat = sys.saturate(p.slice, p.satSlices)
	ph.rssMiB = peakRSSMiB(os.Getpid())
	if err := spare(); err != nil {
		return nil, err
	}
	sys.paced(p.slice, p.pacedSlices, ph)
	if err := spare(); err != nil {
		return nil, err
	}
	dropped, processed := sys.ing.Dropped(), sys.ing.Processed()
	violations := sys.finish()
	ph.lat = sys.lat

	out := &outcome{attempted: sys.submitted, failed: sys.failed, violations: violations}
	ringWait := sys.first.all(0.5)[0] * 1e3 / medianAtRef(ph.paced)
	d := ph.reduce()
	note("paced at %d pkt/s in bursts of %d; %d passes over the trace", mixRate, mixBurst, sys.passes)
	if !cfg.traced {
		out.metrics = ph.endToEndSet(d)
		return out, nil
	}

	m := newMetricSet(layerSpec(false))
	lay.fill(m)
	fillGenerator(m, d, buildS)
	m.set("router.dropped", float64(dropped))
	m.set("router.processed", float64(processed))
	m.set("pit.len_peak", float64(sys.pitPeak))
	// Hand-off: from a burst being due to its first packet leaving, less
	// the one handle that packet itself cost.
	m.set("router.ring_wait_ns", ringWait-m.get("router.handle_ns"))
	// Conservation: what the replay attributes to submit (which classifies)
	// and handle against the per-packet time of the saturating phase. The
	// rest is the ring hand-off, the scheduler, the GC and this generator.
	explained := m.get("router.submit_ns_per_pkt") + m.get("router.handle_ns")
	m.set("ledger.unexplained_frac", 1-explained/(1e9/d.opsPerS))
	if u := m.get("ledger.unexplained_frac"); u > maxUnexplained {
		flagNote("ledger: %.0f%% of the per-packet time is not in any measured layer", 100*u)
	}
	out.metrics = m
	return out, nil
}

// mixReplayInputs are the first n packets of the trace.
func mixReplayInputs(in *mixInputs, n int) []replayInput {
	n = min(n, len(in.pkts))
	out := make([]replayInput, n)
	for i := range out {
		out[i] = replayInput{buf: in.pkts[i].Buf, inPort: in.pkts[i].InPort}
	}
	return out
}
