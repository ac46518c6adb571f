package node

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dip/internal/bootstrap"
	"dip/internal/core"
	"dip/internal/cs"
	"dip/internal/drkey"
	"dip/internal/export"
	"dip/internal/extops"
	"dip/internal/fib"
	"dip/internal/guard"
	"dip/internal/host"
	"dip/internal/inband"
	"dip/internal/journey"
	"dip/internal/netsim"
	"dip/internal/nhash"
	"dip/internal/ops"
	"dip/internal/opt"
	"dip/internal/pit"
	"dip/internal/profiles"
	"dip/internal/router"
	"dip/internal/telemetry"
	"dip/internal/trace"
)

// Env is what genuinely differs between a live process and a virtual-time
// simulation. None of it is a user option: WallEnv and SimEnv are the only
// two values in the tree.
type Env struct {
	// Now is the node's one clock, in ns: every instant the node stamps —
	// admission, trace records and spans, F_tel, postcards, PIT expiry,
	// token refills, cold reads, the speaker's soft state — is a reading of
	// it, so any two are comparable. Nil is core.Now (wall-anchored,
	// monotonic); a simulation passes its virtual clock.
	Now func() int64
	// Schedule runs fn after delay on Now's timeline: the simulator's event
	// queue, or a wall-clock timer. The PIT's TTL sweep runs on it.
	Schedule func(delay time.Duration, fn func())
	// Defer schedules work that must not run re-entrantly inside the
	// current packet: a synchronous cold read completes inside the
	// interest's own handling, so its re-inject (and a pump-mode burst)
	// enters the router as a separate event. Nil runs fn inline — correct
	// for a live process, where cold reads complete on reader goroutines.
	Defer func(fn func())
	// QueueDepth is F_tel's fabric queue-depth probe (a simulation counts
	// in-flight packets on the node's egress links). Nil leaves only the
	// serve layer's burst depth.
	QueueDepth func() int
	// SyncCold makes cold-tier reads synchronous (no reader goroutines), so
	// a simulation stays single-goroutine deterministic.
	SyncCold bool
	// Journeys receives a traced node's journey spans (one per packet its
	// TraceEvery sampler takes, plus cold-read spans). A simulation passes
	// one collector shared by every node; nil gives the node its own
	// emitter ring, exported on /journeys.
	Journeys journey.SpanSink
	// Log receives a line per notable event; nil discards.
	Log func(format string, args ...any)
}

// WallEnv is the live-process environment: core.Now, timers on
// time.AfterFunc, inline re-injects, async cold reads.
func WallEnv(log func(format string, args ...any)) Env {
	return Env{
		Schedule: func(d time.Duration, fn func()) { time.AfterFunc(d, fn) },
		Log:      log,
	}
}

// SimEnv is the virtual-time environment over sim: one virtual clock for
// every timestamp, re-injects and pump-mode bursts as Schedule(0) events,
// synchronous cold reads — a run stays single-goroutine deterministic. The
// caller adds what only it knows (QueueDepth, Journeys, Log).
func SimEnv(sim *netsim.Simulator) Env {
	return Env{
		Now:      func() int64 { return int64(sim.Now()) },
		Schedule: sim.Schedule,
		Defer:    func(fn func()) { sim.Schedule(0, fn) },
		SyncCold: true,
	}
}

// Node is a built DIP node: a router over its state (the content store
// with its cold tier, when the Spec has one), with whichever of the guarded
// ingress, recorder stack, F_tel, postcard collector and speaker its Spec
// asked for already wired together, and its PIT swept on the Env's timer.
// The exported fields are read-only after Build.
type Node struct {
	Spec    Spec               // as given, with derived defaults (PITTTL, HopID, IntSlots) filled in
	State   *State             // forwarding tables
	Router  *router.Router     // the pipeline
	Ingress *router.Ingress    // guard layer; nil when packets are handled inline
	Metrics *telemetry.Metrics // always counting
	Speaker *bootstrap.Speaker // nil when off

	env      Env
	now      func() int64 // env.Now, or core.Now where that is nil: stamps postcards
	tracer   *trace.Recorder
	journeys *journey.Emitter // nil when Env.Journeys collects instead
	spans    journey.SpanSink // nil when the node is not traced
	intc     *inband.Collector
	intSeen  atomic.Int64
	// pumpMu serializes pump-mode bursts: Ingress.Pump must not run
	// concurrently with itself, and in a live process the socket loop and
	// the cold readers both enter Handle. pump is the bound method, made
	// once so Handle does not allocate a closure per packet.
	pumpMu sync.Mutex
	pump   func()
	// parked holds the PIT sweep's next tick while the table is empty (see
	// sweepTimer); stopSweep cancels the sweep.
	parked    atomic.Pointer[func()]
	stopSweep func()
}

// Build assembles the node s describes in environment env.
func Build(s Spec, env Env) (*Node, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	n := &Node{Spec: s, env: env, now: env.Now, State: NewState(), Metrics: &telemetry.Metrics{}}
	if n.now == nil {
		n.now = core.Now
	}
	n.pump = n.runPump
	st := n.State
	for _, t := range []struct {
		table  *fib.Table
		routes []Route
	}{{st.FIB32, s.Routes32}, {st.FIB128, s.Routes128}, {st.NameFIB, s.Names}} {
		for _, r := range t.routes {
			if err := t.table.Add(r.Prefix, r.Len, fib.NextHop{Port: r.Port}); err != nil {
				return nil, err
			}
		}
	}
	// PIT time is the Env's: under SimEnv entries age in virtual time.
	if n.Spec.PITTTL == 0 {
		n.Spec.PITTTL = pit.DefaultTTL
	}
	popts := []pit.Option[uint32]{
		pit.WithTTL[uint32](n.Spec.PITTTL),
		pit.WithClock[uint32](env.Now),
	}
	if s.PITPerPort > 0 {
		popts = append(popts, pit.WithPerPortCap[uint32](s.PITPerPort))
	}
	if s.PITShards > 0 {
		popts = append(popts, pit.WithShards[uint32](s.PITShards))
	}
	st.PIT = pit.New[uint32](popts...)
	n.stopSweep = st.PIT.SweepEvery(sweepTimer{n}, n.Spec.PITTTL, func(removed int) {
		for range removed {
			n.Metrics.RecordEvent(telemetry.EventPITExpired)
		}
	})
	if len(s.Secret) > 0 {
		sv, err := drkey.NewSecretValue(s.Name, s.Secret)
		if err != nil {
			return nil, err
		}
		st.EnableOPT(sv, opt.Kind2EM, [16]byte{}, s.HopIndex)
	}
	st.RequirePass = s.RequirePass
	if s.Cache > 0 {
		st.ContentStore = cs.New[uint32](s.Cache, cs.WithShards[uint32](s.CSShards))
	}
	if s.CSCold > 0 { // Validate has checked there is a cache to put it under
		readers := s.CSReaders
		if env.SyncCold {
			readers = 0
		} else if readers == 0 {
			readers = 2
		}
		if err := st.ContentStore.OpenCold(cs.ColdConfig{
			Path: s.CSColdFile, Slots: s.CSCold, SlotSize: s.CSSlot, Readers: readers, Now: env.Now,
		}); err != nil {
			return nil, fmt.Errorf("cscold: %w", err)
		}
		st.ContentStore.SetReinject(n.reinject)
	}

	// Recorder stack, innermost first: metrics always count; with TraceEvery
	// the node's one sampler wraps them. It stamps records on the Env's
	// clock and hands each one it seals to the journey sink as this router's
	// span, so /trace and /journeys show the same packets at the same times.
	if s.TraceEvery > 0 {
		if n.spans = env.Journeys; n.spans == nil {
			n.journeys = journey.NewEmitter(0)
			n.spans = n.journeys
		}
		n.tracer = trace.NewRecorder(n.Metrics, s.TraceEvery, s.TraceRing, env.Now, journey.RouterSpans(s.Name, n.spans))
	}
	n.Router = router.New(ops.NewRouterRegistry(st.OpsConfig()), router.Config{
		Name:          s.Name,
		Limits:        core.Limits{MaxFNs: s.MaxFNs},
		Metrics:       n.Metrics,
		Trace:         n.tracer,
		LocalDelivery: n.deliver,
	})

	if s.IntEvery > 0 {
		if n.Spec.HopID == 0 {
			n.Spec.HopID = uint32(nhash.Bytes([]byte(s.Name)))
		}
		if n.Spec.IntSlots == 0 {
			n.Spec.IntSlots = 8
		}
		n.intc = inband.NewCollector(inband.Config{})
		// env.Now, not n.now: it is the clock the serve layer stamps
		// AdmittedAt with, and left nil under WallEnv F_tel reuses the
		// engine's reading on timed packets.
		n.Router.Registry().MustRegister(extops.NewTel(extops.TelConfig{
			HopID:      n.Spec.HopID,
			Now:        env.Now,
			QueueDepth: env.QueueDepth,
			Epoch:      func() uint32 { return st.FIB32.Epoch() + st.FIB128.Epoch() + st.NameFIB.Epoch() },
		}))
	}

	if s.Speaker {
		hold := s.SpeakerHold
		if hold == 0 {
			hold = 3 * s.SpeakerRefresh
		}
		n.Speaker = bootstrap.NewSpeaker(bootstrap.SpeakerConfig{
			Name:      s.Name,
			FIB32:     st.FIB32,
			FIB128:    st.FIB128,
			NameFIB:   st.NameFIB,
			Catalog:   bootstrap.CatalogOf(n.Router.Registry()),
			Now:       env.Now,
			HoldFor:   hold,
			MaxMetric: s.SpeakerMaxMetric,
			Log:       env.Log,
		})
		n.Speaker.OriginateFromFIBs()
	}

	// With the guard layer on, classification, admission control, priority
	// queues and the panic quarantine sit between Handle and the pipeline.
	// It starts last: forwarders must find the recorder installed above.
	if s.guarded() {
		var admission *guard.Admission
		if (s.AdmitPort != guard.Rate{} || s.AdmitBulk != guard.Rate{}) {
			policy := guard.Policy{PerPort: s.AdmitPort}
			policy.PerClass[guard.ClassBulk] = s.AdmitBulk
			admission = guard.NewAdmission(policy, env.Now)
		}
		queue := s.Queue
		if queue == 0 {
			queue = 256
		}
		n.Ingress = n.Router.ServeGuarded(router.ServeConfig{
			Workers:   s.Workers,
			HighDepth: queue,
			LowDepth:  queue,
			Batch:     s.Batch,
			Admission: admission,
			Clock:     env.Now,
		})
	}
	return n, nil
}

// Handle is the node's one packet entry point — sockets, simulated links and
// cold-tier re-injects all come through here. Without the guard layer it
// runs the pipeline inline. With it, ownership of pkt passes to the ingress
// (callers reusing their buffer hand over a copy); in pump mode the admitted
// packet's burst is then run through Env.Defer.
func (n *Node) Handle(pkt []byte, inPort int) {
	n.unparkSweep()
	switch {
	case n.Ingress == nil:
		n.Router.HandlePacket(pkt, inPort)
	case n.Ingress.Submit(pkt, inPort) && n.Spec.Workers == 0:
		n.deferred(n.pump)
	}
}

// sweepTimer is the PIT sweep's scheduler: the Env's, except that a tick
// finding the table empty parks, and the next Handle arms it one PITTTL
// out — a sweep re-armed forever would keep a simulation from draining.
type sweepTimer struct{ n *Node }

func (t sweepTimer) Schedule(_ time.Duration, fn func()) {
	t.n.parked.Store(&fn)
	if t.n.State.PIT.Len() > 0 {
		t.n.unparkSweep()
	}
}

func (n *Node) unparkSweep() {
	if p := n.parked.Load(); p != nil && n.parked.CompareAndSwap(p, nil) {
		n.env.Schedule(n.Spec.PITTTL, *p)
	}
}

func (n *Node) runPump() {
	n.pumpMu.Lock()
	n.Ingress.Pump()
	n.pumpMu.Unlock()
}

func (n *Node) deferred(fn func()) {
	if n.env.Defer != nil {
		n.env.Defer(fn)
	} else {
		fn()
	}
}

func (n *Node) logf(format string, args ...any) {
	if n.env.Log != nil {
		n.env.Log(format, args...)
	}
}

// reinject is the cold tier's completion callback. The payload re-enters
// through Handle as an ordinary NDN data packet: it consumes the parked PIT
// entry, replicates to the requesting ports, and the cache insert promotes
// it back to the hot tier.
func (n *Node) reinject(cname uint32, data []byte, start, end int64) {
	profile := profiles.NDNData(cname)
	if n.Spec.IntEvery > 0 {
		// Locally originated packets get a fresh telemetry region: this hop
		// and everything downstream stamp into it.
		profile = profiles.WithTelemetry(profile, n.Spec.IntSlots)
	}
	pkt, err := host.BuildPacket(profile, data)
	if err != nil {
		return
	}
	n.deferred(func() {
		if n.spans != nil {
			n.spans.AddSpan(journey.Span{
				Trace:   journey.TraceOf(pkt),
				Kind:    journey.SpanCSCold,
				Node:    n.Spec.Name,
				Start:   start,
				End:     end,
				Name:    cname,
				HasName: true,
				Proto:   "ndn-data",
			})
		}
		n.logf("%s: cold read %#08x re-injected (%d bytes, %v)", n.Spec.Name, cname, len(data), time.Duration(end-start))
		n.Handle(pkt, 0)
	})
}

// deliver is the router's local-delivery sink: route-exchange control
// packets go to the speaker, telemetry-carrying packets are terminated into
// the postcard collector, and nothing else happens — a router is not a host.
func (n *Node) deliver(pkt []byte, inPort int) {
	if n.Speaker != nil || n.intc != nil {
		if v, err := core.ParseView(pkt); err == nil {
			if n.Speaker != nil && v.NextHeader() == profiles.NHRouteExchange {
				if err := n.Speaker.Handle(v.Payload(), inPort); err != nil {
					n.logf("%s: route exchange from port %d: %v", n.Spec.Name, inPort, err)
				}
				return
			}
			if n.intc != nil {
				every := int64(n.Spec.IntEvery)
				if region, off, ok := profiles.TelemetryRegion(v); ok && (n.intSeen.Add(1)-1)%every == 0 {
					AddPostcard(n.intc, v, pkt, region, off, inband.Postcard{
						Node: n.Spec.Name, At: n.now(), Proto: journey.ProtoOf(v),
					})
				}
			}
		}
	}
	if n.env.Log != nil { // per-packet path: no argument boxing when quiet
		n.env.Log("%s: delivered locally: %d bytes from port %d", n.Spec.Name, len(pkt), inPort)
	}
}

// AddPostcard is the delivering-edge telemetry termination: decode the
// packet's F_tel region (as located by profiles.TelemetryRegion) into pc's
// hop list, file pc with the collector, and zero the region so local
// consumers never see fabric state. The caller fills pc's Node, At, Proto
// and Dst.
func AddPostcard(c *inband.Collector, v core.View, pkt, region []byte, off int, pc inband.Postcard) {
	var err error
	if pc.Hops, pc.Overflow, err = extops.DecodeTel(region); err != nil {
		c.CountDecodeError()
		return
	}
	// Fold the leading FN key into the flow identity so an interest and its
	// data reply (same name bytes, opposite paths) stay distinct flows.
	pc.Flow = inband.FlowOf(v.Locations(), off) ^ (uint64(v.FN(0).Key)+1)*0x9E3779B97F4A7C15
	pc.Trace = uint64(journey.TraceOf(pkt))
	c.Add(pc)
	for i := range region {
		region[i] = 0
	}
}

// AttachPort registers an egress port and returns its index. With neighbor
// set and the speaker running, the port is also a route-exchange adjacency:
// the speaker's messages ride DIP control packets straight out of the port
// (not through the forwarding pipeline — they are this hop's own control
// traffic, not transit).
func (n *Node) AttachPort(p router.Port, neighbor bool) int {
	idx := n.Router.AttachPort(p)
	if neighbor && n.Speaker != nil {
		n.Speaker.AddNeighbor(idx, func(msg []byte) {
			if pkt, err := host.BuildPacket(profiles.RouteExchange(), msg); err == nil {
				p.Send(pkt)
			}
		})
	}
	return idx
}

// MetricsSource bundles everything the node exposes over a metrics
// listener. Interface fields are left nil rather than filled with typed
// nils, which the exporter would dereference on scrape.
func (n *Node) MetricsSource() export.Source {
	src := export.Source{
		Node:     n.Spec.Name,
		Metrics:  n.Metrics,
		Health:   n.Router.Health,
		PIT:      n.State.PIT,
		Trace:    n.tracer,
		Journeys: n.journeys,
	}
	if n.State.ContentStore != nil {
		src.CS = n.State.ContentStore
	}
	if n.Spec.CSCold > 0 {
		src.CSTier = n.State.ContentStore.Stats
	}
	if n.Speaker != nil {
		src.Routes = n.Speaker.Stats
	}
	if n.intc != nil {
		src.INT = n.intc.Stats
	}
	return src
}

// Close stops the ingress forwarders and the PIT sweep and releases the cold
// arena. Safe to call more than once.
func (n *Node) Close() {
	if n.Ingress != nil {
		n.Ingress.Close()
	}
	n.stopSweep()
	if n.State.ContentStore != nil {
		n.State.ContentStore.Close()
	}
}
