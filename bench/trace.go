package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"time"

	"dip"
	"dip/internal/core"
	"dip/internal/cs"
	"dip/internal/guard"
	"dip/internal/pit"
	"dip/internal/telemetry"
)

// The traced run's per-layer replay. The benchmark may not instrument the
// program, so it times the program's public functions from outside: the
// first inputs of the workload are replayed on one goroutine through a real
// router (Router.HandlePacket) and, packet for packet, through an engine
// twin over identical state (core.ParseView, Engine.Process) whose spans
// are recorded as children of the router's, as if they had run inside it.
// The tables the operations use are then timed on the same keys.

// Layers a span can belong to; the index is what the span file stores.
const (
	lHandle = iota
	lParse
	lProcess
	lClassify
	lAdmit
	lSubmit
	lLookup32
	lLookup128
	lLookupName
	lPITCycle
	lCSGet
	lCSPut
	numLayers
)

var layerNames = [numLayers]string{
	"router.handle", "core.parse", "core.process", "guard.classify", "guard.admit", "router.submit",
	"fib.lookup32", "fib.lookup128", "fib.lookup_name", "pit.cycle", "cs.get", "cs.put",
}

// Packet kinds, told apart by the first FN's operation.
const (
	kindIP32 = iota
	kindIP128
	kindInterest
	kindData
	kindOPT    // standalone OPT
	kindNDNOPT // NDN+OPT data
	numKinds
)

// replayInput is one datagram as the router receives it.
type replayInput struct {
	buf    []byte
	inPort int
}

type span struct {
	id, parent, pkt uint32
	layer           uint8
	start, end      int64
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	base    time.Time
	spans   []span
	clockNs float64 // what an empty span measures: the cost of reading the clock
}

func newTracer(capacity int) *tracer {
	t := &tracer{base: time.Now(), spans: make([]span, 0, capacity)}
	durs := make([]float64, 4096)
	for i := range durs {
		id := t.open(lHandle, 0, 0)
		t.close(id)
		durs[i] = float64(t.spans[id-1].end - t.spans[id-1].start)
	}
	t.clockNs = quantile(durs, 0.5)
	t.spans = t.spans[:0]
	return t
}

// open starts a span; the clock is read last so the bookkeeping stays
// outside the span.
func (t *tracer) open(layer uint8, parent, pkt uint32) uint32 {
	id := uint32(len(t.spans) + 1)
	t.spans = append(t.spans, span{id: id, parent: parent, pkt: pkt, layer: layer})
	t.spans[id-1].start = int64(time.Since(t.base))
	return id
}

func (t *tracer) close(id uint32) {
	t.spans[id-1].end = int64(time.Since(t.base))
}

// dur is a span's duration with the clock's own cost taken out.
func (t *tracer) dur(s *span) float64 {
	return max(float64(s.end-s.start)-t.clockNs, 0)
}

// write stores the spans as CSV: one header comment naming the layers, then
// id,parent,packet,layer,start_ns,end_ns. Parent 0 means a root span.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "# spans recorded by bench/ around calls into the program; clock cost %.1f ns per span is included\n", t.clockNs)
	fmt.Fprintln(w, "id,parent,packet,layer,start_ns,end_ns")
	for i := range t.spans {
		s := &t.spans[i]
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d\n", s.id, s.parent, s.pkt, layerNames[s.layer], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers is the replay's result.
type layers struct {
	mean        [numLayers]float64 // calibrated mean span duration, ns
	self        [numLayers]float64 // mean self time (span − children), ns, per span of the layer
	processKind [numKinds]float64  // Σ calibrated core.process ns by packet kind
	countKind   [numKinds]int
	fnPerPkt    float64
	allocs      float64
	untracedNs  float64 // HandlePacket per packet, timed as one loop
	rawHandleNs float64 // mean router.handle span with the clock cost left in
	csHit       float64
	csEvict     float64
	obsOn       float64
	obsOff      float64
	sampled     float64
	atRef       float64 // how much slower than the reference clock the replay ran (clock.go)
}

// Observation levels of a replay router.
const (
	obsNone    = iota // no recorder: inproc-mix
	obsMetrics        // telemetry.Metrics only: what diprouter always installs
	obsFull           // + trace recorder + journey tap: inproc-mix-obs
)

// newRecorder builds the recorder stack of an observation level, the way
// cmd/diprouter assembles it.
func newRecorder(level int) (rec core.Recorder, metrics *telemetry.Metrics, tr *dip.TraceRecorder) {
	if level == obsNone {
		return nil, nil, nil
	}
	metrics = &telemetry.Metrics{}
	if level == obsMetrics {
		return metrics, metrics, nil
	}
	tr = dip.NewTraceRecorder(metrics, obsEvery, 0)
	return dip.NewRouterJourneyTap("bench", dip.NewJourneyEmitter(0), tr, obsEvery, nil), metrics, tr
}

func kindOf(v core.View) int {
	switch v.FN(0).Key {
	case core.KeyMatch32:
		return kindIP32
	case core.KeyMatch128:
		return kindIP128
	case core.KeyFIB:
		return kindInterest
	case core.KeyPIT:
		if v.FNNum() > 1 {
			return kindNDNOPT
		}
		return kindData
	}
	return kindOPT
}

func copyInputs(in []replayInput) [][]byte {
	out := make([][]byte, len(in))
	for i := range in {
		out[i] = append([]byte(nil), in[i].buf...)
	}
	return out
}

func discard(int, []byte) {}

// replayLayers runs the per-layer replay over in, building every router and
// table from newState, and writes the span file.
func replayLayers(cfg config, in []replayInput, newState func() *dip.NodeState) (*layers, error) {
	level := obsMetrics // the wire workloads: diprouter's own default
	switch cfg.workload {
	case "inproc-mix":
		level = obsNone
	case "inproc-mix-obs":
		level = obsFull
	}
	l := &layers{}
	t := newTracer(len(in) * 8)
	n := float64(len(in))
	// The replay takes a fraction of a second; the clock is read before,
	// between and after its parts and the mean scales every time reported.
	steps := []float64{stepNs()}

	// 1. The router, then its engine twin: the twin's spans become children
	// of the handle span of the same packet. Two loops, not one, so the
	// twins do not evict each other's tables from the cache.
	routerA := newNode(newState(), level, discard, nil)
	bufA := copyInputs(in)
	handleID := make([]uint32, len(in))
	for i := range in {
		handleID[i] = t.open(lHandle, 0, uint32(i))
		routerA.r.HandlePacket(bufA[i], in[i].inPort)
		t.close(handleID[i])
	}
	engB := core.NewEngine(dip.NewRouterRegistry(newState().OpsConfig()), dip.Limits{})
	if rec, _, _ := newRecorder(level); rec != nil {
		engB.SetRecorder(rec)
	}
	bufB := copyInputs(in)
	processID := make([]uint32, len(in))
	kinds := make([]int, len(in))
	var ctx core.ExecContext
	for i := range in {
		pkt := uint32(i)
		ps := t.open(lParse, handleID[i], pkt)
		v, err := core.ParseView(bufB[i])
		t.close(ps)
		if err != nil {
			return nil, fmt.Errorf("replay input %d does not parse: %w", i, err)
		}
		v.DecHopLimit()
		ctx.Reset(v, in[i].inPort)
		processID[i] = t.open(lProcess, handleID[i], pkt)
		engB.Process(&ctx)
		t.close(processID[i])
		kinds[i] = kindOf(v)
		for f := 0; f < v.FNNum(); f++ {
			if !v.FN(f).Host {
				l.fnPerPkt += 1 / n
			}
		}
	}

	steps = append(steps, stepNs())

	// 2. The guard's per-packet decisions. No workload configures admission
	// control; the row says what turning it on would add.
	adm := guard.NewAdmission(guard.Policy{PerPort: guard.Rate{PerSec: 1e12, Burst: 1e12}}, nil)
	for i := range in {
		c := t.open(lClassify, 0, uint32(i))
		class := guard.Classify(in[i].buf)
		t.close(c)
		a := t.open(lAdmit, 0, uint32(i))
		adm.Admit(in[i].inPort, class)
		t.close(a)
	}

	// 3. The tables, on the workload's own keys, as children of the process
	// span of the packet that carries the key.
	st := newState()
	pitT := pit.New[uint32]()
	store := cs.New[uint32](mixCache)
	var gets, hits, puts int
	var ports [pit.MaxPortsPerEntry]int
	for i := range in {
		v, _ := core.ParseView(in[i].buf)
		locs, pkt, parent := v.Locations(), uint32(i), processID[i]
		switch kinds[i] {
		case kindIP32:
			s := t.open(lLookup32, parent, pkt)
			st.FIB32.LookupUint32(binary.BigEndian.Uint32(locs))
			t.close(s)
		case kindIP128:
			s := t.open(lLookup128, parent, pkt)
			st.FIB128.Lookup(locs[:16], 128)
			t.close(s)
		case kindInterest:
			name := binary.BigEndian.Uint32(locs)
			s := t.open(lCSGet, parent, pkt)
			_, hit := store.Get(name)
			t.close(s)
			gets++
			if hit {
				hits++
				continue
			}
			s = t.open(lLookupName, parent, pkt)
			st.NameFIB.LookupUint32(name)
			t.close(s)
		case kindData, kindNDNOPT:
			// The data that answers a forwarded interest: consume the PIT
			// entry (inserted here too, so the cycle is whole) and cache.
			name := binary.BigEndian.Uint32(locs)
			s := t.open(lPITCycle, parent, pkt)
			pitT.AddInterest(name, 0) //nolint:errcheck // a fresh, uncapped table cannot refuse
			pitT.Consume(ports[:0], name)
			t.close(s)
			if _, cached := store.Get(name); !cached {
				s = t.open(lCSPut, parent, pkt)
				store.Put(name, v.Payload())
				t.close(s)
				puts++
			}
		}
	}
	if gets > 0 {
		l.csHit = float64(hits) / float64(gets)
	}
	l.csEvict = float64(puts - store.Len())

	// 4. SubmitBurst alone: an ingress without forwarders, pumped by hand
	// after each burst so the ring never fills.
	routerD := newNode(newState(), level, discard, nil)
	ing := routerD.r.ServeGuarded(dip.ServeConfig{Workers: 0, Batch: mixBurst, HighDepth: mixDepth, LowDepth: mixDepth})
	bufD := copyInputs(in)
	for i := 0; i+mixBurst <= len(in); i += mixBurst {
		s := t.open(lSubmit, 0, uint32(i))
		ing.SubmitBurst(bufD[i:i+mixBurst], in[i].inPort)
		t.close(s)
		ing.Pump()
	}
	ing.Close()

	steps = append(steps, stepNs())

	// 5. HandlePacket untraced, as one timed loop: the yardstick for what
	// the spans themselves cost, and the allocation count.
	routerC := newNode(newState(), level, discard, nil)
	bufC := copyInputs(in)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for i := range in {
		routerC.r.HandlePacket(bufC[i], in[i].inPort)
	}
	l.untracedNs = float64(time.Since(t0)) / n
	runtime.ReadMemStats(&ms1)
	l.allocs = float64(ms1.Mallocs-ms0.Mallocs) / n

	// 6. Observation on and off, same packets, same loop, interleaved in
	// chunks so both sides see the same disturbances.
	off, on := newNode(newState(), obsNone, discard, nil), newNode(newState(), obsFull, discard, nil)
	l.obsOff, l.obsOn = onOff(off, on, in)
	if seen := on.tracer.Seen(); seen > 0 {
		l.sampled = float64(on.tracer.Sampled()) / float64(seen)
	}
	// ROADMAP's ~84 → ~280 ns was taken on a DIP-32 loop; the same pair on
	// this workload's DIP-32 packets alone is the number to hold against it.
	var ip32 []replayInput
	for i := range in {
		if kinds[i] == kindIP32 {
			ip32 = append(ip32, in[i])
		}
	}
	if len(ip32) > 0 {
		o, w := onOff(off, on, ip32)
		note("observation on the DIP-32 packets alone: %.0f ns off, %.0f ns on, %.2f× (ROADMAP: ~84 → ~280 ns)", o, w, w/o)
	}

	steps = append(steps, stepNs())
	l.atRef = mean(steps) / refStepNs

	l.aggregate(t, kinds)
	if err := t.write(cfg.traceFile); err != nil {
		return nil, fmt.Errorf("span file: %w", err)
	}
	note("wrote %d spans to %s (clock cost %.1f ns per span)", len(t.spans), cfg.traceFile, t.clockNs)
	return l, nil
}

// onOff replays in through an unobserved and a fully observed router in
// alternating chunks and returns the per-packet time of each side.
func onOff(off, on *mixNode, in []replayInput) (offNs, onNs float64) {
	bufOff, bufOn := copyInputs(in), copyInputs(in)
	var dOff, dOn time.Duration
	const chunk = 256
	for i := 0; i < len(in); i += chunk {
		end := min(i+chunk, len(in))
		t0 := time.Now()
		for j := i; j < end; j++ {
			off.r.HandlePacket(bufOff[j], in[j].inPort)
		}
		t1 := time.Now()
		for j := i; j < end; j++ {
			on.r.HandlePacket(bufOn[j], in[j].inPort)
		}
		dOff += t1.Sub(t0)
		dOn += time.Since(t1)
	}
	n := float64(len(in))
	return float64(dOff) / n, float64(dOn) / n
}

// aggregate turns the spans into per-layer means and self times.
func (l *layers) aggregate(t *tracer, kinds []int) {
	children := make([]float64, len(t.spans)+1) // Σ calibrated child durations by parent id
	var count [numLayers]float64
	var raw float64
	for i := range t.spans {
		s := &t.spans[i]
		d := t.dur(s)
		l.mean[s.layer] += d
		count[s.layer]++
		children[s.parent] += d
		if s.layer == lProcess {
			l.processKind[kinds[s.pkt]] += d
			l.countKind[kinds[s.pkt]]++
		}
		if s.layer == lHandle {
			raw += float64(s.end - s.start)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		l.self[s.layer] += max(t.dur(s)-children[s.id], 0)
	}
	for k := range l.mean {
		if count[k] > 0 {
			l.mean[k] /= count[k]
			l.self[k] /= count[k]
		}
	}
	if count[lHandle] > 0 {
		l.rawHandleNs = raw / count[lHandle]
	}
}

// fill reports the replay's metrics, times at the reference clock.
func (l *layers) fill(m *metricSet) {
	ns := func(name string, v float64) { m.set(name, v/l.atRef) }
	kindMean := func(kinds ...int) float64 {
		var sum float64
		var n int
		for _, k := range kinds {
			sum += l.processKind[k]
			n += l.countKind[k]
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	ns("router.handle_ns", l.mean[lHandle])
	// The twin's parse and process stand in for the calls inside the handle
	// span; what is left is the router's own: context pool, hop limit,
	// verdict switch, egress, cache replies.
	ns("router.self_ns", l.self[lHandle])
	ns("router.submit_ns_per_pkt", l.mean[lSubmit]/mixBurst)
	ns("guard.classify_ns", l.mean[lClassify])
	ns("guard.admit_ns", l.mean[lAdmit])
	ns("core.parse_ns", l.mean[lParse])
	ns("core.process_ns", l.mean[lProcess])
	ns("core.process_ns.ip32", kindMean(kindIP32))
	ns("core.process_ns.ip128", kindMean(kindIP128))
	ns("core.process_ns.ndn", kindMean(kindInterest, kindData))
	ns("core.process_ns.opt", kindMean(kindOPT, kindNDNOPT))
	m.set("core.fn_per_pkt", l.fnPerPkt)
	m.set("core.allocs_per_pkt", l.allocs)
	ns("fib.lookup32_ns", l.mean[lLookup32])
	ns("fib.lookup128_ns", l.mean[lLookup128])
	ns("fib.lookup_name_ns", l.mean[lLookupName])
	ns("pit.cycle_ns", l.mean[lPITCycle])
	ns("cs.get_ns", l.mean[lCSGet])
	ns("cs.put_ns", l.mean[lCSPut])
	m.set("cs.hit_ratio", l.csHit)
	m.set("cs.evictions", l.csEvict)
	ns("opt.process_ns", kindMean(kindOPT, kindNDNOPT))
	var all, opt float64
	for k, v := range l.processKind {
		all += v
		if k == kindOPT || k == kindNDNOPT {
			opt += v
		}
	}
	if all > 0 {
		m.set("opt.mac_share", opt/all)
	}
	ns("obs.handle_ns_on", l.obsOn)
	ns("obs.handle_ns_off", l.obsOff)
	m.set("obs.on_off_ratio", l.obsOn/l.obsOff)
	m.set("obs.sampled_frac", l.sampled)
	m.set("trace.overhead_frac", (l.rawHandleNs-l.untracedNs)/l.untracedNs)
}
