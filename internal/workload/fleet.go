// Consumer fleet: a scaled-down stand-in for "millions of users" that
// still runs deterministically. Tens of thousands of simulated consumers
// share one DIP router and one bottleneck link to a producer under netsim
// virtual time; each consumer fetches multi-segment objects through a
// congestion-controlled SegFetcher (internal/cc), content popularity is
// Zipf, arrivals come in a steady-state phase plus an optional flash-crowd
// burst, and IP background traffic shares the same fabric so the NDN flows
// compete with non-NDN load. Everything — arrivals, think times, object
// choice, queueing, loss — derives from one seed, so a fleet run is a
// reproducible experiment, not an anecdote.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"dip/internal/cc"
	"dip/internal/core"
	"dip/internal/host"
	"dip/internal/netsim"
	"dip/internal/node"
	"dip/internal/profiles"
	"dip/internal/telemetry"
)

// The fleet's fixed shape: what no experiment varies.
const (
	// fleetPITTTL is the router's PIT entry lifetime: short enough that a
	// backed-off retransmission (MinRTO doubling: 20, 40, 80, 160ms…) finds
	// the stale entry expired and re-forwards; long enough to aggregate a
	// flash crowd's duplicate interests.
	fleetPITTTL = 120 * time.Millisecond
	// thinkTime is the mean exponential pause between a consumer's fetches.
	thinkTime = 50 * time.Millisecond
	// accessDelay and backboneDelay are the propagation delays of the
	// consumer access links and of the shared router↔producer link.
	accessDelay   = 200 * time.Microsecond
	backboneDelay = 2 * time.Millisecond
	// ipPacket is the background IP packet size in bytes.
	ipPacket = 600
)

// FleetConfig sizes and shapes a fleet run. Zero values select the
// defaults noted on each field.
type FleetConfig struct {
	// Consumers is the steady-state population (default 64).
	Consumers int
	// FlashConsumers join all at once at FlashAt (default 0 = no flash
	// crowd), spread across FlashWindow (default 10ms).
	FlashConsumers int
	FlashAt        time.Duration
	FlashWindow    time.Duration
	// RampWindow spreads steady-state consumer starts over [0, RampWindow)
	// (default 1s).
	RampWindow time.Duration

	// Objects is the catalog size (default 256); SegsPerObject segments
	// per object (default 8); SegSize payload bytes per segment (default
	// 1000). Object k's first segment is named NamePrefix + k·SegsPerObject.
	Objects       int
	SegsPerObject int
	SegSize       int
	// ZipfS is the content-popularity skew (>1 skews; default 1.2).
	ZipfS float64
	// ObjectsPerConsumer is the closed-loop fetch count per steady-state
	// consumer (default 4; flash consumers fetch one object each).
	ObjectsPerConsumer int

	// CC configures every consumer's congestion controller (default: AIMD
	// with a path-scaled adaptive RTO). MaxRetx bounds per-segment
	// retransmissions (default 6 — see fill).
	CC      cc.Config
	MaxRetx int

	// BottleneckBPS is the shared producer↔router link rate in bits/s
	// (default 20 Mbit/s); BottleneckQueue is its tail-drop queue limit
	// (default 20ms).
	BottleneckBPS   int64
	BottleneckQueue time.Duration
	// LossProb adds seeded random loss on the bottleneck's data
	// direction; DownFrom/DownTo schedule a loss window on it (both
	// optional).
	LossProb float64
	DownFrom time.Duration
	DownTo   time.Duration

	// CacheEntries sizes the router content store (default 512; 0 keeps
	// the default, use -1 for no cache). Zipf popularity makes the cache
	// absorb the hot head of the catalog.
	CacheEntries int

	// IPLoad offers IP background traffic on the data direction of the
	// bottleneck as a fraction of its bandwidth (default 0), in
	// ipPacket-byte packets. The IP flows cross the same router and the
	// same queue — mixed NDN+IP on one fabric.
	IPLoad float64

	// Horizon caps virtual time (default 60s).
	Horizon time.Duration
	// Seed makes the run reproducible.
	Seed int64

	// FetcherObserver, when set, taps every consumer's fetch lifecycle
	// (journey tracing); it receives the consumer id.
	FetcherObserver func(id int) host.FetchObserver
	// BottleneckObserver, when set, observes every transit on the data
	// direction of the bottleneck (journey link spans).
	BottleneckObserver netsim.TransitObserver
}

func (c *FleetConfig) fill() {
	if c.Consumers == 0 {
		c.Consumers = 64
	}
	if c.FlashWindow == 0 {
		c.FlashWindow = 10 * time.Millisecond
	}
	if c.RampWindow == 0 {
		c.RampWindow = time.Second
	}
	if c.Objects == 0 {
		c.Objects = 256
	}
	if c.SegsPerObject == 0 {
		c.SegsPerObject = 8
	}
	if c.SegSize == 0 {
		c.SegSize = 1000
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.2
	}
	if c.ObjectsPerConsumer == 0 {
		c.ObjectsPerConsumer = 4
	}
	if c.MaxRetx == 0 {
		// Higher than SegConfig's own default: a retransmitted interest that
		// aggregates onto a stale PIT entry (its data was lost upstream)
		// refreshes that entry without re-forwarding, so a consumer must
		// back off past the PIT TTL before a retransmission punches
		// through. Budget enough attempts for the backoff to get there.
		c.MaxRetx = 6
	}
	if c.BottleneckBPS == 0 {
		c.BottleneckBPS = 20_000_000
	}
	if c.BottleneckQueue == 0 {
		c.BottleneckQueue = 20 * time.Millisecond
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 512
	}
	if c.Horizon == 0 {
		c.Horizon = 60 * time.Second
	}
	if c.CC.RTT.InitRTO == 0 {
		// Path-scaled initial RTO: a sane default for a simulated
		// millisecond-RTT fabric (RFC 6298's 1s is built for the WAN).
		c.CC.RTT.InitRTO = 250 * time.Millisecond
	}
	if c.CC.RTT.MinRTO == 0 {
		c.CC.RTT.MinRTO = 10 * time.Millisecond
	}
}

// ConsumerStats is one consumer's outcome.
type ConsumerStats struct {
	ID int
	// Flash marks a flash-crowd consumer (vs steady-state).
	Flash bool
	// StartedAt is the consumer's arrival in virtual time.
	StartedAt time.Duration
	// Objects / Failed count completed and dead-lettered objects.
	Objects int64
	Failed  int64
	// GoodputBytes counts reassembled payload bytes.
	GoodputBytes int64
	// Retransmits and CwndCuts are the consumer's recovery counters.
	Retransmits int64
	CwndCuts    int64
	// Completions are per-object completion latencies.
	Completions []time.Duration
}

// FleetResult aggregates a run.
type FleetResult struct {
	Consumers []ConsumerStats
	// Duration is the virtual time consumed.
	Duration time.Duration
	// ObjectsCompleted / ObjectsFailed / Retransmits / DeadLetters /
	// CwndCuts aggregate the consumer counters.
	ObjectsCompleted int64
	ObjectsFailed    int64
	Retransmits      int64
	DeadLetters      int64
	CwndCuts         int64
	// GoodputBytes is total reassembled payload; GoodputBps normalizes by
	// the active span (first arrival to last completion).
	GoodputBytes int64
	GoodputBps   float64
	// JainIndex is fairness over per-consumer goodput (consumers that
	// completed at least one object or failed trying).
	JainIndex float64
	// P50 / P99 are completion-latency percentiles across all objects.
	P50, P99 time.Duration
	// BottleneckDrops counts tail + fault drops on the data direction;
	// BottleneckBytes its carried bytes. IPDelivered counts background IP
	// packets that crossed the fabric.
	BottleneckDrops int64
	BottleneckBytes int64
	IPDelivered     int64
	// CacheEntriesEnd is the router content-store occupancy at the end.
	CacheEntriesEnd int
}

// Fleet is one constructed fleet scenario: a router, a producer behind a
// shared bottleneck, and the consumer population. Build with NewFleet,
// execute with Run.
type Fleet struct {
	cfg FleetConfig

	Sim *netsim.Simulator
	// Node is the router, built by node.Build on the simulator's Env: its
	// PIT ages and is swept in virtual time.
	Node *node.Node
	// Metrics is the router's: verdicts, PIT expiries and every
	// consumer's fetch events.
	Metrics *telemetry.Metrics
	// Bottleneck is the producer→router (data) direction; Uplink the
	// router→producer (interest) direction.
	Bottleneck *netsim.Endpoint
	Uplink     *netsim.Endpoint

	rng       *rand.Rand
	zipf      *rand.Zipf
	consumers []*fleetConsumer
	impair    *netsim.Impairment
	ipSunk    int64
}

type fleetConsumer struct {
	fl       *Fleet
	stats    ConsumerStats
	fetcher  *host.SegFetcher
	toRouter *netsim.Endpoint
	left     int
	inFlight map[uint32]time.Duration // object base → fetch start
}

// ObjectBase names object k's first segment.
func (c *FleetConfig) ObjectBase(k int) uint32 {
	return NamePrefix + uint32(k*c.SegsPerObject)
}

// NewFleet wires the scenario. The topology is a star: every consumer has
// its own uncontended access link to the router; the router reaches the
// producer (and the IP sink beyond it) over one shared, finite-bandwidth,
// tail-dropping bottleneck — the fabric's point of contention.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	cfg.fill()
	if cfg.Objects*cfg.SegsPerObject > 1<<24 {
		return nil, fmt.Errorf("workload: catalog %d×%d overflows the name prefix",
			cfg.Objects, cfg.SegsPerObject)
	}
	fl := &Fleet{cfg: cfg, Sim: netsim.New()}
	fl.rng = rand.New(rand.NewSource(cfg.Seed))
	if cfg.ZipfS > 1 {
		fl.zipf = rand.NewZipf(fl.rng, cfg.ZipfS, 1, uint64(cfg.Objects-1))
	}

	sim := fl.Sim
	// Port plan: 0 = producer (and IP origin) behind the bottleneck,
	// 1 = IP sink, 2.. = consumers.
	spec := node.Spec{
		Name:  "R",
		Names: []node.Route{{Prefix: []byte{byte(NamePrefix >> 24), 0, 0, 0}, Len: 8, Port: 0}},
		Routes32: []node.Route{
			{Prefix: []byte{AddrPrefixByte, 0, 0, 0}, Len: 8, Port: 0},
			{Prefix: []byte{ipSinkPrefix, 0, 0, 0}, Len: 8, Port: 1},
		},
		PITTTL: fleetPITTTL,
	}
	if cfg.CacheEntries > 0 {
		spec.Cache = cfg.CacheEntries
	}
	var err error
	if fl.Node, err = node.Build(spec, node.SimEnv(sim)); err != nil {
		return nil, err
	}
	fl.Metrics = fl.Node.Metrics
	routerRx := netsim.ReceiverFunc(fl.Node.Handle)

	// Producer: answers segment interests with SegSize-byte payloads,
	// sending data back over the shared bottleneck.
	producerRx := netsim.ReceiverFunc(func(pkt []byte, _ int) {
		v, err := core.ParseView(pkt)
		if err != nil {
			return
		}
		name, ok := host.InterestName(v)
		if !ok {
			return // background IP traffic terminates here
		}
		reply, err := host.BuildPacket(profiles.NDNData(name), SegPayload(name, fl.cfg.SegSize))
		if err != nil {
			return
		}
		fl.Bottleneck.Send(reply)
	})

	// The bottleneck's data direction carries optional seeded loss and a
	// scheduled loss window.
	var opts []netsim.LinkOption
	if cfg.LossProb > 0 || cfg.DownTo > cfg.DownFrom {
		fl.impair = netsim.NewImpairment(cfg.Seed + 7)
		fl.impair.DropProb = cfg.LossProb
		if cfg.DownTo > cfg.DownFrom {
			fl.impair.DownBetween(cfg.DownFrom, cfg.DownTo)
		}
		opts = append(opts, netsim.WithImpairment(fl.impair))
	}
	opts = append(opts, netsim.WithQueueLimit(cfg.BottleneckQueue))
	if cfg.BottleneckObserver != nil {
		opts = append(opts, netsim.WithTransitObserver(cfg.BottleneckObserver))
	}
	fl.Bottleneck = sim.Pipe(routerRx, 0, backboneDelay, cfg.BottleneckBPS, opts...)
	fl.Uplink = sim.Pipe(producerRx, 0, backboneDelay, cfg.BottleneckBPS,
		netsim.WithQueueLimit(cfg.BottleneckQueue))
	fl.Node.AttachPort(fl.Uplink, false) // port 0
	fl.Node.AttachPort(sim.Pipe(netsim.ReceiverFunc(func([]byte, int) { fl.ipSunk++ }),
		0, accessDelay, 0), false) // port 1: IP sink

	// Consumers.
	total := cfg.Consumers + cfg.FlashConsumers
	fl.consumers = make([]*fleetConsumer, total)
	for i := 0; i < total; i++ {
		c := &fleetConsumer{fl: fl, left: cfg.ObjectsPerConsumer, inFlight: map[uint32]time.Duration{}}
		c.stats.ID = i
		if i >= cfg.Consumers {
			c.stats.Flash = true
			c.left = 1
		}
		port := 2 + i
		fl.Node.AttachPort(sim.Pipe(netsim.ReceiverFunc(func(pkt []byte, _ int) {
			c.fetcher.HandleData(pkt)
		}), 0, accessDelay, 0), false)
		c.toRouter = sim.Pipe(routerRx, port, accessDelay, 0)
		segCfg := host.SegConfig{CC: cfg.CC, MaxRetx: cfg.MaxRetx, Metrics: fl.Metrics}
		if cfg.FetcherObserver != nil {
			segCfg.Observer = cfg.FetcherObserver(i)
		}
		c.fetcher = host.NewSegFetcher(sim, func(pkt []byte) { c.toRouter.Send(pkt) }, segCfg)
		c.fetcher.OnObject = c.onObject
		c.fetcher.OnObjectFail = c.onObjectFail
		fl.consumers[i] = c
	}
	return fl, nil
}

// ipSinkPrefix is the first octet of background IP destinations (routed
// out the sink port, distinct from AddrPrefixByte which heads upstream).
const ipSinkPrefix = 11

// SegPayload derives segment name's deterministic SegSize-byte payload:
// name-tagged so reassembly mistakes change bytes, repeatable so goodput
// accounting and verification need no stored corpus.
func SegPayload(name uint32, size int) []byte {
	out := make([]byte, size)
	for i := range out {
		out[i] = byte(name>>uint(8*(i%4))) ^ byte(i)
	}
	return out
}

func (c *fleetConsumer) pickObject() (uint32, int) {
	var k int
	if c.fl.zipf != nil {
		k = int(c.fl.zipf.Uint64())
	} else {
		k = c.fl.rng.Intn(c.fl.cfg.Objects)
	}
	return c.fl.cfg.ObjectBase(k), c.fl.cfg.SegsPerObject
}

// start begins the consumer's closed loop at its arrival time.
func (c *fleetConsumer) start() {
	c.stats.StartedAt = c.fl.Sim.Now()
	c.next()
}

func (c *fleetConsumer) next() {
	if c.left <= 0 {
		return
	}
	c.left--
	base, segs := c.pickObject()
	for {
		if _, busy := c.inFlight[base]; !busy {
			break
		}
		// Already fetching that object (possible under Zipf): take the
		// next catalog slot so the closed loop never stalls.
		base, segs = c.fl.cfg.ObjectBase(int(c.fl.rng.Intn(c.fl.cfg.Objects))), c.fl.cfg.SegsPerObject
	}
	c.inFlight[base] = c.fl.Sim.Now()
	c.fetcher.FetchObject(base, segs)
}

func (c *fleetConsumer) onObject(base uint32, data []byte) {
	start, ok := c.inFlight[base]
	if !ok {
		return
	}
	delete(c.inFlight, base)
	c.stats.Objects++
	c.stats.GoodputBytes += int64(len(data))
	c.stats.Completions = append(c.stats.Completions, c.fl.Sim.Now()-start)
	c.scheduleNext()
}

func (c *fleetConsumer) onObjectFail(base uint32) {
	delete(c.inFlight, base)
	c.stats.Failed++
	c.scheduleNext()
}

func (c *fleetConsumer) scheduleNext() {
	if c.left <= 0 {
		return
	}
	think := time.Duration(c.fl.rng.ExpFloat64() * float64(thinkTime))
	c.fl.Sim.Schedule(think, c.next)
}

// Run schedules arrivals and background traffic, then drives virtual time
// to the horizon and aggregates the outcome. The router sweeps its own PIT
// on the simulator.
func (fl *Fleet) Run() *FleetResult {
	cfg := fl.cfg
	sim := fl.Sim

	// Steady-state arrivals spread over the ramp window.
	for i := 0; i < cfg.Consumers; i++ {
		c := fl.consumers[i]
		at := time.Duration(fl.rng.Int63n(int64(cfg.RampWindow)))
		sim.Schedule(at, c.start)
	}
	// Flash crowd: everyone inside FlashWindow at FlashAt.
	for i := cfg.Consumers; i < len(fl.consumers); i++ {
		c := fl.consumers[i]
		at := cfg.FlashAt + time.Duration(fl.rng.Int63n(int64(cfg.FlashWindow)))
		sim.Schedule(at, c.start)
	}

	// IP background load on the data direction of the bottleneck.
	if cfg.IPLoad > 0 {
		interval := time.Duration(float64(ipPacket*8) / (cfg.IPLoad * float64(cfg.BottleneckBPS)) *
			float64(time.Second))
		if interval <= 0 {
			interval = time.Microsecond
		}
		var pump func()
		pump = func() {
			var src, dst [4]byte
			fl.rng.Read(src[:])
			fl.rng.Read(dst[:])
			dst[0] = ipSinkPrefix
			if pkt, err := host.BuildPacket(profiles.IPv4(src, dst), make([]byte, ipPacket)); err == nil {
				fl.Bottleneck.Send(pkt)
			}
			sim.Schedule(interval, pump)
		}
		sim.Schedule(0, pump)
	}

	sim.RunUntil(cfg.Horizon)
	return fl.result()
}

func (fl *Fleet) result() *FleetResult {
	res := &FleetResult{Duration: fl.Sim.Now(), IPDelivered: fl.ipSunk}
	var all []time.Duration
	var goodputs []float64
	var firstStart, lastDone time.Duration = 1 << 62, 0
	for _, c := range fl.consumers {
		st := c.fetcher.Stats()
		c.stats.Retransmits = st.Retransmits
		c.stats.CwndCuts = st.CwndCuts
		res.Consumers = append(res.Consumers, c.stats)
		res.ObjectsCompleted += c.stats.Objects
		res.ObjectsFailed += c.stats.Failed
		res.Retransmits += st.Retransmits
		res.DeadLetters += st.DeadLettered
		res.CwndCuts += st.CwndCuts
		res.GoodputBytes += c.stats.GoodputBytes
		all = append(all, c.stats.Completions...)
		if c.stats.Objects+c.stats.Failed > 0 {
			goodputs = append(goodputs, float64(c.stats.GoodputBytes))
		}
		if c.stats.StartedAt < firstStart {
			firstStart = c.stats.StartedAt
		}
		for _, d := range c.stats.Completions {
			if at := c.stats.StartedAt + d; at > lastDone {
				lastDone = at
			}
		}
	}
	if span := lastDone - firstStart; span > 0 {
		res.GoodputBps = float64(res.GoodputBytes*8) / span.Seconds()
	}
	res.JainIndex = JainIndex(goodputs)
	res.P50 = CompletionPercentile(all, 0.50)
	res.P99 = CompletionPercentile(all, 0.99)
	res.BottleneckDrops = fl.Bottleneck.TailDrops
	if fl.impair != nil {
		res.BottleneckDrops += fl.impair.Drops + fl.impair.DownDrops
	}
	res.BottleneckBytes = fl.Bottleneck.Bytes
	if store := fl.Node.State.ContentStore; store != nil {
		res.CacheEntriesEnd = store.Len()
	}
	return res
}

// JainIndex is Jain's fairness index (Σx)²/(n·Σx²): 1 when all shares are
// equal, →1/n under starvation. Empty or all-zero input reports 1 (nobody
// to be unfair to).
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// CompletionPercentile returns the p-quantile of ds (nearest-rank), 0 for
// an empty set. p is clamped to (0, 1].
func CompletionPercentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if math.IsNaN(p) || p <= 0 {
		p = 1.0 / float64(len(sorted))
	}
	if p > 1 {
		p = 1
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}
