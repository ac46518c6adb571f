// Package dip is the public API of this DIP implementation — a from-scratch
// Go realization of "DIP: Unifying Network Layer Innovations using Shared
// L3 Core Functions" (Wang, Liu, Wang, Fu, Xu; HotNets 2022).
//
// DIP replaces fixed per-protocol packet processing with one primitive, the
// Field Operation (FN): a triple (field location, field length, operation
// key) carried in the packet header. Routers execute the operations the
// packet names against the operands it carries, so the packet itself —
// not the router's protocol stack — decides how it is processed. Radically
// different network layers then become mere header compositions:
//
//	h := dip.IPv4Profile(src, dst)          // canonical IP forwarding
//	h  = dip.NDNInterestProfile(nameID)     // named-data interest
//	h, _ = dip.OPTProfile(sess, payload, t) // source auth + path validation
//	h, _ = dip.NDNOPTDataProfile(...)       // the derived NDN+OPT protocol
//	pkt, _ := dip.BuildPacket(h, payload)
//
// A Router executes Algorithm 1 of the paper over a Registry of operation
// modules; a Host constructs packets and runs the host-tagged operations
// (destination verification) on receipt. See DESIGN.md for the system map
// and EXPERIMENTS.md for the reproduction of the paper's evaluation.
//
// # Quick start
//
//	cfg := dip.NewNodeState()
//	cfg.FIB32.AddUint32(0x0A000000, 8, dip.NextHop{Port: 1})
//	r := dip.NewRouter(cfg.OpsConfig(), dip.RouterOptions{Name: "r1"})
//	r.AttachPort(...)
//	r.HandlePacket(pkt, 0)
//
// The examples/ directory contains six runnable scenarios; cmd/ contains
// a UDP-overlay router and host (diprouter, diphost), a packet dissector
// (dipdump), and a topology scenario runner (diptopo). The paper's
// evaluation is the testing.B benchmarks in bench_test.go (EXPERIMENTS.md).
package dip

import (
	"net"

	"dip/internal/bootstrap"
	"dip/internal/cc"
	"dip/internal/core"
	"dip/internal/cs"
	"dip/internal/drkey"
	"dip/internal/export"
	"dip/internal/fib"
	"dip/internal/guard"
	"dip/internal/host"
	"dip/internal/journey"
	"dip/internal/ndn"
	"dip/internal/node"
	"dip/internal/ops"
	"dip/internal/opt"
	"dip/internal/pisa"
	"dip/internal/pit"
	"dip/internal/profiles"
	"dip/internal/router"
	"dip/internal/telemetry"
	"dip/internal/trace"
	"dip/internal/workload"
	"dip/internal/xia"
)

// Core protocol types.
type (
	// Header is the builder-side DIP header (hosts construct these).
	Header = core.Header
	// FN is one field-operation triple.
	FN = core.FN
	// View is a zero-copy parse of a DIP packet.
	View = core.View
	// Key identifies an operation module.
	Key = core.Key
	// Verdict is a packet's fate after Algorithm 1.
	Verdict = core.Verdict
	// DropReason explains a dropped packet.
	DropReason = core.DropReason
	// Registry is the operation dispatch table.
	Registry = core.Registry
	// Operation is one FN operation module.
	Operation = core.Operation
	// ExecContext carries one packet through the engine.
	ExecContext = core.ExecContext
	// Engine executes Algorithm 1.
	Engine = core.Engine
	// Limits are the per-packet security limits of §2.4.
	Limits = core.Limits
)

// Operation keys (the paper's Table 1, plus F_pass from §2.4).
const (
	KeyMatch32  = core.KeyMatch32
	KeyMatch128 = core.KeyMatch128
	KeySource   = core.KeySource
	KeyFIB      = core.KeyFIB
	KeyPIT      = core.KeyPIT
	KeyParm     = core.KeyParm
	KeyMAC      = core.KeyMAC
	KeyMark     = core.KeyMark
	KeyVer      = core.KeyVer
	KeyDAG      = core.KeyDAG
	KeyIntent   = core.KeyIntent
	KeyPass     = core.KeyPass
)

// Verdicts.
const (
	VerdictContinue = core.VerdictContinue
	VerdictAbsorb   = core.VerdictAbsorb
	VerdictForward  = core.VerdictForward
	VerdictDeliver  = core.VerdictDeliver
	VerdictDrop     = core.VerdictDrop
)

// Node-state and infrastructure types.
type (
	// FIB is a longest-prefix-match forwarding table.
	FIB = fib.Table
	// NextHop is a FIB entry's target.
	NextHop = fib.NextHop
	// PIT is a pending interest table keyed by 32-bit content names.
	PIT = pit.Table[uint32]
	// ContentStore is the LRU content cache. ContentStore.OpenCold gives it
	// a file-backed cold slot arena under the RAM tier, with non-blocking
	// cold reads satisfied by async re-injection (SetReinject, Close).
	ContentStore = cs.Store[uint32]
	// TieredConfig sizes the cold tier ContentStore.OpenCold attaches
	// (slots, slot size, reader pool).
	TieredConfig = cs.ColdConfig
	// TierStats is a two-tier content-store snapshot (per-tier hit ratios,
	// cold-read latency histogram, arena occupancy).
	TierStats = cs.TierStats
	// SecretValue is a router's DRKey secret.
	SecretValue = drkey.SecretValue
	// Session is a negotiated OPT session (held by hosts).
	Session = opt.Session
	// HopConfig is one hop's OPT contribution.
	HopConfig = opt.HopConfig
	// MACKind selects the OPT MAC algorithm.
	MACKind = opt.Kind
	// OpsConfig binds node state to operation modules.
	OpsConfig = ops.Config
	// Router is a DIP-capable node.
	Router = router.Router
	// RouterOptions tunes a router.
	RouterOptions = router.Config
	// Port is a router attachment point.
	Port = router.Port
	// PortFunc adapts a function to Port.
	PortFunc = router.PortFunc
	// Host is a DIP host stack.
	Host = host.Stack
	// Rx is a host receive outcome.
	Rx = host.Rx
	// RxKind classifies a host receive outcome.
	RxKind = host.RxKind
	// Metrics collects forwarding telemetry: exact verdict and per-FN counts,
	// and per-FN latency histograms over the packets the engine timed (1 in
	// 64, plus every packet a trace sampler took).
	Metrics = telemetry.Metrics
	// MetricsSnapshot is a point-in-time copy of a node's counters.
	MetricsSnapshot = telemetry.Snapshot
	// Recorder is the engine's one observer interface: a BeginPacket/
	// EndPacket bracket around each packet its Period can sample, whose
	// executed FNs the engine has written into the context's observation
	// record by EndPacket, and a Fold of the counts every packet adds to its
	// context's tally. Metrics and TraceRecorder satisfy it; a TraceRecorder
	// wraps an inner Recorder.
	Recorder = core.Recorder
	// TraceRecorder samples per-packet FN journeys into a lock-free ring
	// (and, built by NewRouterJourneyTap, emits each as a journey span).
	TraceRecorder = trace.Recorder
	// TraceRecord is one sampled packet's journey.
	TraceRecord = trace.Record
	// JourneySpan is one element's observation of one packet.
	JourneySpan = journey.Span
	// Journey is one packet instance's stitched span sequence.
	Journey = journey.Journey
	// JourneyEmitter buffers spans for /journeys export from live processes.
	JourneyEmitter = journey.Emitter
	// FlightRecorder is the bounded ring of frozen anomalous journeys.
	FlightRecorder = journey.FlightRecorder
	// FrozenJourney is one flight-recorder entry.
	FrozenJourney = journey.FrozenJourney
	// MetricsSource bundles what one node exposes over its metrics listener.
	MetricsSource = export.Source
	// SegFetcher pipelines congestion-controlled multi-segment object
	// fetches: up to cwnd interests in flight, in-order reassembly,
	// adaptive RTO, dead-lettering at the retransmission cap. A single
	// name is a one-segment object; CCAlgoBlind is the fixed-timeout,
	// exponential-backoff retransmitter.
	SegFetcher = host.SegFetcher
	// SegConfig tunes a SegFetcher (congestion control + retx cap).
	SegConfig = host.SegConfig
	// SegStats snapshots a SegFetcher's counters.
	SegStats = host.SegStats
	// Reassembly is the first-write-wins in-order segment buffer behind
	// SegFetcher.
	Reassembly = host.Reassembly
	// CCConfig configures a fetch flow's congestion controller.
	CCConfig = cc.Config
	// CCAlgo selects the window algorithm (AIMD, CUBIC, or the blind
	// fixed-window baseline).
	CCAlgo = cc.Algo
	// CCFlow is one flow's congestion state: Jacobson/Karn RTT estimation
	// plus an AIMD/CUBIC window.
	CCFlow = cc.Flow
	// CCSnapshot is a flow controller state snapshot (cwnd, sRTT, RTO…).
	CCSnapshot = cc.Snapshot
	// RTTConfig bounds the adaptive RTO estimator (RFC 6298 shape).
	RTTConfig = cc.RTTConfig
	// FleetConfig shapes a consumer-fleet run (population, catalog,
	// bottleneck, phases, seed).
	FleetConfig = workload.FleetConfig
	// Fleet is one constructed consumer-fleet scenario.
	Fleet = workload.Fleet
	// FleetResult aggregates a fleet run (Jain index, goodput,
	// completion percentiles, recovery counters).
	FleetResult = workload.FleetResult
	// ConsumerStats is one fleet consumer's outcome.
	ConsumerStats = workload.ConsumerStats
	// Ingress is a router's guarded queue-and-workers front end.
	Ingress = router.Ingress
	// ServeConfig tunes the ingress guard layer (workers, priority queue
	// depths, burst size, admission control, classification, clock).
	ServeConfig = router.ServeConfig
	// Health is a point-in-time ingress guard snapshot.
	Health = router.Health
	// AdmissionPolicy configures the ingress token-bucket limiters.
	AdmissionPolicy = guard.Policy
	// AdmissionRate is one token-bucket configuration (zero = unlimited).
	AdmissionRate = guard.Rate
	// Admission is a router ingress's admission-control state.
	Admission = guard.Admission
	// QuarantineCapture is one quarantined poison packet.
	QuarantineCapture = guard.Capture
	// Catalog is an advertised FN availability set.
	Catalog = bootstrap.Catalog
	// Speaker is a per-router route-exchange agent: it advertises local
	// prefixes and FN catalogs to neighbors over the DIP fabric itself and
	// commits learned routes to the FIBs in batched transactions.
	Speaker = bootstrap.Speaker
	// SpeakerConfig wires a Speaker to a node's FIBs, catalog, and clock.
	SpeakerConfig = bootstrap.SpeakerConfig
	// SpeakerStats is a point-in-time route-exchange counter snapshot.
	SpeakerStats = bootstrap.SpeakerStats
	// DAG is an XIA address.
	DAG = xia.DAG
	// DAGNode is one XIA address node.
	DAGNode = xia.Node
	// XID is an XIA typed identifier.
	XID = xia.XID
	// Pipeline is a PISA switch model running the compiled DIP program.
	Pipeline = pisa.Pipeline
)

// MAC kinds for OPT sessions.
const (
	MAC2EM     = opt.Kind2EM
	MACAESCMAC = opt.KindAESCMAC
)

// Host receive outcomes.
const (
	RxDelivered     = host.RxDelivered
	RxRejected      = host.RxRejected
	RxFNUnsupported = host.RxFNUnsupported
	RxMalformed     = host.RxMalformed
)

// Local is the next hop meaning "deliver to this node".
var Local = fib.Local

// Ingress admission classes: bulk data sheds first under pressure; control
// and probe traffic is protected.
const (
	ClassBulk    = guard.ClassBulk
	ClassControl = guard.ClassControl
)

// NewSpeaker builds a route-exchange agent for one router. Peer it with
// AddNeighbor (the send func typically wraps the message in a
// route-exchange packet toward that neighbor), feed received control
// payloads to Handle, and call Refresh periodically to re-advertise and
// expire stale routes. A NodeSpec with Speaker set does all of that.
var NewSpeaker = bootstrap.NewSpeaker

// CatalogOf derives the advertised FN catalog from a router registry.
func CatalogOf(reg *Registry) Catalog { return bootstrap.CatalogOf(reg) }

// NHRouteExchange is the next-header value of an in-fabric route-exchange
// packet; a local-delivery sink demultiplexes on it to feed the Speaker.
const NHRouteExchange = profiles.NHRouteExchange

// NodeState bundles the forwarding state a fully-featured DIP node keeps
// (see node.State: EnableCache, EnableOPT, OpsConfig).
type NodeState = node.State

// NewNodeState allocates fresh tables (no content store; pass csCapacity
// via EnableCache).
func NewNodeState() *NodeState { return node.NewState() }

// One node description, one constructor: a NodeSpec is the plain-data
// description of a router (every field is a diprouter flag or topo DSL
// key), a NodeEnv is the live-process or simulator environment, and
// BuildNode assembles the running Node — content store and cold tier, PIT
// sizing and its sweep on the environment's clock, guarded ingress,
// recorder stack, F_tel, postcard collector and speaker included.
// Node.ServeUDP is the socket loop cmd/diprouter runs.
type (
	NodeSpec  = node.Spec
	NodeRoute = node.Route
	NodeEnv   = node.Env
	Node      = node.Node
)

var (
	// BuildNode validates spec and assembles the node it describes.
	BuildNode = node.Build
	// WallEnv is the live-process NodeEnv (log may be nil).
	WallEnv = node.WallEnv
)

// NewRouter builds a DIP router: an operation registry over cfg plus the
// per-hop pipeline (hop limit, Algorithm 1, verdict handling).
func NewRouter(cfg OpsConfig, rc RouterOptions) *Router {
	return router.New(ops.NewRouterRegistry(cfg), rc)
}

// NewRouterRegistry exposes the registry builder for callers who want to
// customize policies or add their own operation modules before building a
// router with NewRouterWithRegistry.
func NewRouterRegistry(cfg OpsConfig) *Registry {
	return ops.NewRouterRegistry(cfg)
}

// NewRouterWithRegistry builds a router over an explicitly prepared
// registry (custom operation modules, adjusted unknown-key policies).
func NewRouterWithRegistry(reg *Registry, rc RouterOptions) *Router {
	return router.New(reg, rc)
}

// Unknown-key policies (§2.4): what a router does with a router-tagged FN
// it has no module for.
const (
	PolicyIgnore = core.PolicyIgnore
	PolicySignal = core.PolicySignal
)

// NewHost builds a DIP host stack (session store + host-side engine).
func NewHost() *Host { return host.NewStack() }

// NewTraceRecorder builds a 1-in-every packet trace sampler over a ring of
// the given record capacity. inner (typically the node's *Metrics) keeps
// observing every packet underneath. Install it via RouterOptions.Trace.
func NewTraceRecorder(inner *Metrics, every, ring int) *TraceRecorder {
	if inner == nil {
		return trace.NewRecorder(nil, every, ring, nil, nil)
	}
	return trace.NewRecorder(inner, every, ring, nil, nil)
}

// NewJourneyEmitter builds a span ring for live-process /journeys export
// (size < 1 selects the default 4096).
func NewJourneyEmitter(size int) *JourneyEmitter { return journey.NewEmitter(size) }

// NewRouterJourneyTap builds a trace recorder whose samples (every every-th
// packet, 1 = all) also become journey spans on sink — the one sampler a
// traced node runs, over any inner recorder (the node's *Metrics, or a
// *TraceRecorder sampling at its own rate). now stamps records and spans,
// in ns (nil = the wall-anchored monotonic clock every node defaults to).
// Its own ring is tapRing records: they matter as spans, and the ring only
// has to outnumber the packets sampled at once. Install via
// RouterOptions.Trace, or Router.SetRecorder before ServeGuarded.
func NewRouterJourneyTap(node string, sink journey.SpanSink, inner core.Recorder, every int, now func() int64) *TraceRecorder {
	return trace.NewRecorder(inner, max(every, 1), tapRing, now, journey.RouterSpans(node, sink))
}

// tapRing sizes NewRouterJourneyTap's record ring: at least one slot per
// concurrently sampling forwarder, without the default ring's ≈ 0.7 MiB.
const tapRing = 64

// ServeMetrics binds addr and serves src's observability surface (/metrics
// in Prometheus text format, /trace in dipdump-ready form, /debug/pprof)
// on a background goroutine, returning the bound address and a closer.
func ServeMetrics(addr string, src MetricsSource) (net.Addr, func() error, error) {
	return export.Serve(addr, src)
}

// Congestion-window algorithms for CCConfig.Algo.
const (
	// CCAlgoAIMD is Reno-style slow start + additive increase,
	// multiplicative decrease.
	CCAlgoAIMD = cc.AlgoAIMD
	// CCAlgoCUBIC grows along the RFC 8312 cubic curve.
	CCAlgoCUBIC = cc.AlgoCUBIC
	// CCAlgoBlind is the fixed-window, fixed-RTO baseline (no adaptation).
	CCAlgoBlind = cc.AlgoBlind
)

// NewSegFetcher builds a congestion-controlled multi-segment fetcher
// sending interests through send, with timers on clock (netsim Simulator
// for simulations, a wall-clock shim for live hosts — see NewWallClock).
func NewSegFetcher(clock host.Clock, send func(pkt []byte), cfg SegConfig) *SegFetcher {
	return host.NewSegFetcher(clock, send, cfg)
}

// NewWallClock adapts real time onto the host.Clock interface fetchers
// arm timers on: Now is time since construction, Schedule is
// time.AfterFunc. Use it to run a SegFetcher against live sockets.
func NewWallClock() host.Clock { return host.NewWallClock() }

// NewFleet wires a consumer-fleet scenario (router, producer behind a
// shared bottleneck, consumer population) under netsim virtual time.
func NewFleet(cfg FleetConfig) (*Fleet, error) { return workload.NewFleet(cfg) }

// JainIndex is Jain's fairness index over per-consumer shares: 1 when all
// are equal, →1/n under starvation.
func JainIndex(xs []float64) float64 { return workload.JainIndex(xs) }

// NewSecret wraps a 16-byte DRKey secret for a named node.
func NewSecret(nodeID string, secret []byte) (*SecretValue, error) {
	return drkey.NewSecretValue(nodeID, secret)
}

// NewSession simulates OPT key negotiation across hops toward a
// destination, giving the source every hop key (see internal/opt).
func NewSession(kind MACKind, hops []HopConfig, destSecret *SecretValue) (*Session, error) {
	return opt.NewSession(kind, hops, destSecret)
}

// CompilePISA compiles the DIP dataplane onto the PISA switch model — the
// software stand-in for the paper's Tofino prototype (§4.1 constraints
// included).
func CompilePISA(cfg OpsConfig) (*Pipeline, error) { return pisa.Compile(cfg) }

// Profile builders (the §3 host constructions).
var (
	// IPv4Profile builds the DIP-32 forwarding header (Table 2: 26 B).
	IPv4Profile = profiles.IPv4
	// IPv6Profile builds the DIP-128 forwarding header (Table 2: 50 B).
	IPv6Profile = profiles.IPv6
	// NDNInterestProfile builds the one-FN NDN interest (Table 2: 16 B).
	NDNInterestProfile = profiles.NDNInterest
	// NDNDataProfile builds the one-FN NDN data header.
	NDNDataProfile = profiles.NDNData
	// OPTProfile builds the standalone OPT header (Table 2: 98 B).
	OPTProfile = profiles.OPT
	// NDNOPTDataProfile builds the derived NDN+OPT data header (108 B).
	NDNOPTDataProfile = profiles.NDNOPTData
	// XIAProfile builds the F_DAG + F_intent header over an XIA address.
	XIAProfile = profiles.XIA
	// WithTelemetry appends an F_tel hop-record region (N slots) to any
	// profile, making the packet's fabric path observable in band.
	WithTelemetry = profiles.WithTelemetry
	// BuildPacket serializes a header plus payload into a wire packet.
	BuildPacket = host.BuildPacket
	// ParsePacket parses a wire packet into a zero-copy view.
	ParsePacket = core.ParseView
)

// NativeNDNForwarder builds the non-DIP NDN baseline forwarder.
func NativeNDNForwarder(csCapacity int) *ndn.Forwarder { return ndn.NewForwarder(csCapacity) }
