package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dip"
	"dip/internal/workload"
)

// sizes scales the inputs; the tier-1 test uses tinySize.
type sizes struct {
	routes      int // wire-ip32 /24 routes
	ndnRequests int // wire-ndn-zipf name sequence length
	events      int // inproc-* logical events
	replay      int // inputs the traced per-layer replay covers
}

var (
	fullSize = sizes{routes: 1024, ndnRequests: ndnRequests, events: 1 << 18, replay: 1 << 16}
	tinySize = sizes{routes: 64, ndnRequests: 1 << 12, events: 1 << 12, replay: 1 << 10}
)

// Offered load of the wire workloads.
const (
	wireInFlight = 32               // saturate: closed loop
	wirePacedCap = 64               // paced: outstanding ops before the generator holds back (the router's default socket buffer holds ~270 small datagrams)
	ip32Rate     = 20000            // paced ops/s
	ndnRate      = 10000            // paced ops/s
	upLimit      = 20 * time.Second // a child that has not answered by then failed to start
)

// wireSys is one started instance of a wire workload: inputs, sockets, the
// router child and the generator bound to them.
type wireSys struct {
	load        wireLoad
	ip32        *ip32Load // one of ip32 and ndn is set, and is load
	ndn         *ndnLoad
	gen         *wireGen
	fd          [2]int
	router      *child
	metricsAddr string
	rate        int
	buildS      float64 // input generation
}

// startWire is one complete set-up: generate the inputs from the seed, open
// the sockets, start the router with its full tables and wait for the first
// verified reply.
func startWire(cfg config, bin, dir string) (*wireSys, error) {
	s := &wireSys{fd: [2]int{-1, -1}}
	t0 := time.Now()
	var (
		args []string
		keys []uint32
	)
	switch cfg.workload {
	case "wire-ip32":
		l, err := newIP32Load(cfg.seed, cfg.size.routes)
		if err != nil {
			return nil, err
		}
		s.load, s.ip32, s.rate, keys, args = l, l, ip32Rate, sequentialKeys(), l.routerArgs()
	case "wire-ndn-zipf":
		l, err := newNDNLoad(cfg.seed, cfg.size.ndnRequests)
		if err != nil {
			return nil, err
		}
		mport, err := freeTCPPort()
		if err != nil {
			return nil, err
		}
		s.metricsAddr = loopback(mport)
		s.load, s.ndn, s.rate, keys, args = l, l, ndnRate, l.keys(), l.routerArgs(s.metricsAddr)
	}
	s.buildS = time.Since(t0).Seconds()

	var ports [2]int
	for i := range s.fd {
		fd, port, err := udpSocket()
		if err != nil {
			s.stop()
			return nil, err
		}
		s.fd[i], ports[i] = fd, port
	}
	rport, err := freeUDPPort()
	if err != nil {
		s.stop()
		return nil, err
	}
	for _, fd := range s.fd {
		if err := connectLoopback(fd, rport); err != nil {
			s.stop()
			return nil, fmt.Errorf("connect: %w", err)
		}
	}
	args = append([]string{"-listen", loopback(rport), "-peer", loopback(ports[0]), "-peer", loopback(ports[1])}, args...)
	s.router, err = cfg.pin.start(filepath.Join(dir, "diprouter-"+cfg.workload+".log"), bin, args...)
	if err != nil {
		s.stop()
		return nil, err
	}
	// Latency log: the paced phase at its nominal rate, with slack.
	latCap := int(float64(s.rate)*cfg.plan.paced().Seconds()*1.25) + 1024
	s.gen = newWireGen(s.load, s.fd, keys, latCap)
	if err := s.gen.probeUntilUp(upLimit); err != nil {
		s.stop()
		return nil, fmt.Errorf("%s: %w (see %s)", cfg.workload, err, s.router.log.Name())
	}
	return s, nil
}

func (s *wireSys) stop() {
	s.router.stop()
	s.router = nil
	closeSockets(s.fd)
	s.fd = [2]int{-1, -1}
}

// cpuNow reads the router child's CPU seconds.
func (s *wireSys) cpuNow() float64 { return childCPUSeconds(s.router.pid) }

// setupGroup times n complete set-ups. The last instance started is
// returned running; the others are stopped again at once. Groups run at
// three points of the run, so that the median is not one moment's.
func setupGroup(cfg config, bin, dir string, n int, times []float64) (*wireSys, []float64, error) {
	var sys *wireSys
	for i := 0; i < n; i++ {
		if sys != nil {
			sys.stop()
		}
		t0 := time.Now()
		var err error
		if sys, err = startWire(cfg, bin, dir); err != nil {
			return nil, times, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return sys, times, nil
}

// runWire measures a wire workload end to end and, in a traced run, also
// the wire layer's own metrics and the per-layer replay.
func runWire(cfg config) (*outcome, error) {
	bin, err := buildRouter()
	if err != nil {
		return nil, err
	}
	dir, err := buildDir()
	if err != nil {
		return nil, err
	}
	// From here on this goroutine is the generator: it keeps its thread.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	pin := splitCPUs()
	cfg.pin = &pin

	p := cfg.plan
	ph := &phases{}
	sys, setups, err := setupGroup(cfg, bin, dir, p.setups, nil)
	if err != nil {
		return nil, err
	}
	defer sys.stop()
	// spare times a group of throw-away set-ups beside the idle router.
	spare := func() error {
		if cfg.traced {
			return nil
		}
		extra, times, err := setupGroup(cfg, bin, dir, p.setups, setups)
		if err != nil {
			return err
		}
		extra.stop()
		setups = times
		return nil
	}
	g := sys.gen

	g.run(phase{dur: p.warm, inFlight: wireInFlight}, nil, nil)
	user0, sys0, _ := cpuSeconds(sys.router.pid)
	ctx0 := ctxSwitches(sys.router.pid)
	var sc *scraper
	if cfg.traced && sys.metricsAddr != "" {
		if sc, err = newScraper(sys.metricsAddr); err != nil {
			return nil, err
		}
	}
	ph.sat = g.run(phase{dur: p.saturate(), inFlight: wireInFlight, windows: p.satSlices}, sys.cpuNow, sc)
	user1, sys1, _ := cpuSeconds(sys.router.pid)
	ctx1 := ctxSwitches(sys.router.pid)
	satOps, satAttempted, satForwards := g.completed, g.attempted, g.forwards
	if err := spare(); err != nil {
		return nil, err
	}
	interval := time.Second / time.Duration(sys.rate)
	ph.paced = g.run(phase{dur: p.paced(), inFlight: wirePacedCap, interval: interval, windows: p.pacedSlices, record: true}, nil, nil)
	if err := spare(); err != nil {
		return nil, err
	}
	ph.lat, ph.late, ph.lateCount, ph.setups, ph.setupsRaw = g.lat, g.late, g.lateCount, setups, setups
	ph.rssMiB = peakRSSMiB(sys.router.pid)

	out := &outcome{attempted: g.attempted, failed: g.failed}
	if g.ioErrs > 0 {
		out.violations = append(out.violations, fmt.Sprintf("%d socket errors in the timed phases", g.ioErrs))
	}
	d := ph.reduce()
	idle := float64(g.idlePolls) / float64(max(g.polls, 1))
	note("generator: %.1f%% of its polls found nothing (headroom), %d timeouts, %d strays, %d of %d paced requests went upstream",
		100*idle, g.timeouts, g.strays, g.forwards-satForwards, g.attempted-satAttempted)
	if !cfg.traced {
		out.metrics = ph.endToEndSet(d)
		return out, nil
	}

	m := newMetricSet(layerSpec(true))
	fillGenerator(m, d, sys.buildS)
	m.set("gen.idle_poll_frac", idle)
	// User/system split and context switches over the whole saturating
	// phase: /proc/<pid>/stat counts in 10 ms ticks, too coarse for a slice.
	ops := float64(max(satOps, 1))
	m.set("wire.cpu_user_us_per_op", (user1-user0)*1e6/ops)
	m.set("wire.cpu_sys_us_per_op", (sys1-sys0)*1e6/ops)
	m.set("wire.ctxsw_per_kop", float64(ctx1-ctx0)*1e3/ops)
	m.set("wire.timeouts", float64(g.timeouts))
	if sys.ndn != nil {
		// Interests the producer never saw were answered by the content store.
		m.set("cs.hit_ratio", 1-float64(satForwards)/float64(max(satAttempted, 1)))
		scrapes, err := sc.finish(g.now)
		if err != nil {
			return nil, err
		}
		var ms, bytes []float64
		for _, one := range scrapes {
			ms, bytes = append(ms, one.ms), append(bytes, float64(one.bytes))
		}
		m.set("export.scrape_ms", quantile(ms, 0.5))
		m.set("export.scrape_bytes", quantile(bytes, 0.5))
		// A scrape must not dent the slice it lands in: the slices during
		// which one was under way against the others.
		var with, without []float64
		for _, w := range ph.sat {
			if rate := float64(w.ops) / w.wall; w.scraped {
				with = append(with, rate)
			} else {
				without = append(without, rate)
			}
		}
		if len(with) > 0 && len(without) > 0 {
			m.set("export.scrape_dent_frac", 1-quantile(with, 0.5)/quantile(without, 0.5))
		}
		note("export: %d scrapes while saturating, %d of %d slices had one under way", len(scrapes), len(with), len(ph.sat))
		// The PIT's occupancy is counted from outside: interests the
		// producer has seen whose data the consumer has not. The counters
		// are the last scrape's, taken while the router was saturated.
		m.set("pit.len_peak", float64(g.pendingPeak))
		m.set("router.processed", sc.gauge("dip_guard_processed_total"))
		m.set("router.dropped", sc.gauge("dip_guard_shed_total"))
		m.set("guard.rejected", sc.gauge("dip_guard_admit_rejected_total"))
	}

	// The echo floor: the same paced pings against a child that only
	// echoes, so loopback plus the Go runtime can be told from the router.
	echoP50, err := echoFloor(cfg.pin, dir, len(sys.load.request(0, 0, 0)), interval, p.paced(), p.pacedSlices)
	if err != nil {
		return nil, err
	}
	m.set("wire.echo_rtt_p50_us", echoP50)
	m.set("wire.over_echo_us", d.latP50-echoP50)

	// Per-layer replay of what the router child saw, in-process.
	lay, err := replayLayers(cfg, sys.replayInputs(cfg.size.replay), sys.newState)
	if err != nil {
		return nil, err
	}
	csHit := m.get("cs.hit_ratio")
	lay.fill(m)
	if sys.ndn != nil {
		m.set("cs.hit_ratio", csHit) // the child's own, not the replay's
	}
	perOpUs := 1e6 / d.opsPerS
	m.set("wire.self_us_per_op", perOpUs-m.get("router.handle_ns")/1e3)
	// Conservation: the child's CPU per op against the wall time per op.
	// What is left is time the child spent off the CPU, waiting for the
	// generator or for a wake-up.
	m.set("ledger.unexplained_frac", 1-d.cpuPerOp/perOpUs)
	if u := m.get("ledger.unexplained_frac"); u > maxUnexplained {
		flagNote("ledger: %.0f%% of the per-op time is not the child's CPU time", 100*u)
	}
	out.metrics = m
	return out, nil
}

// echoFloor starts the echo child, pings it at the workload's paced rate
// and returns the round trip in µs, reduced like the workload's latency.
func echoFloor(pin *cpus, dir string, size int, interval, dur time.Duration, slices int) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	fd, _, err := udpSocket()
	if err != nil {
		return 0, err
	}
	fds := [2]int{fd, -1}
	defer closeSockets(fds)
	port, err := freeUDPPort()
	if err != nil {
		return 0, err
	}
	if err := connectLoopback(fd, port); err != nil {
		return 0, err
	}
	c, err := pin.start(filepath.Join(dir, "echo.log"), self, "echo-child", loopback(port))
	if err != nil {
		return 0, err
	}
	defer c.stop()
	g := newWireGen(newEchoLoad(size), fds, sequentialKeys(), int(dur/interval)*2+1024)
	if err := g.probeUntilUp(upLimit); err != nil {
		return 0, fmt.Errorf("echo child: %w", err)
	}
	ph := &phases{lat: g.lat, late: g.late}
	ph.paced = g.run(phase{dur: dur, inFlight: wirePacedCap, interval: interval, windows: slices, record: true}, nil, nil)
	if g.failed > 0 {
		return 0, fmt.Errorf("echo child: %d of %d pings failed", g.failed, g.attempted)
	}
	note("echo floor:")
	return ph.reduce().latP50, nil
}

// newState builds, in-process, the tables the router child was started with.
func (s *wireSys) newState() *dip.NodeState {
	st := dip.NewNodeState()
	if s.ndn != nil {
		st.EnableCache(mixCache)
		st.NameFIB.AddUint32(workload.NamePrefix, 8, dip.NextHop{Port: 1})
		return st
	}
	for _, p := range s.ip32.prefixes {
		st.FIB32.AddUint32(p, 24, dip.NextHop{Port: 1})
	}
	return st
}

// replayInputs are the datagrams the router child receives for the first n
// requests. On wire-ndn-zipf that depends on the router: a data packet
// follows exactly those interests it forwards to the producer, which a
// scratch router over the same state decides here.
func (s *wireSys) replayInputs(n int) []replayInput {
	var out []replayInput
	if s.ndn == nil {
		for k := 0; k < min(n, len(s.ip32.pkts)); k++ {
			out = append(out, replayInput{buf: append([]byte(nil), s.ip32.request(uint32(k), uint32(k), 0)...)})
		}
		return out
	}
	forwarded := false
	scratch := newNode(s.newState(), obsNone, func(port int, _ []byte) { forwarded = forwarded || port == 1 }, nil)
	for _, k := range s.ndn.names[:min(n, len(s.ndn.names))] {
		interest := append([]byte(nil), s.ndn.request(k, 0, 0)...)
		out = append(out, replayInput{buf: interest})
		forwarded = false
		scratch.r.HandlePacket(append([]byte(nil), interest...), 0)
		if forwarded {
			data := append([]byte(nil), s.ndn.dataFor(k)...)
			out = append(out, replayInput{buf: data, inPort: 1})
			scratch.r.HandlePacket(append([]byte(nil), data...), 1)
		}
	}
	return out
}
