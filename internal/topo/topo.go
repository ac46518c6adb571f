// Package topo parses and runs topology/scenario files: a line-based DSL
// describing DIP routers, hosts, links, routes, producers, and timed
// traffic, executed on the virtual-time simulator. cmd/diptopo is its CLI.
//
// Syntax (one directive per line, '#' comments):
//
//	router R1 [cache=64] [csshards=N] [cscold=SLOTS] [csslot=BYTES] [secret=<32 hex>] [hopindex=N] [requirepass] [pitperport=N] [pitshards=N]
//	host   H1
//	link   R1:0 H1 [delay]          # bidirectional; hosts have one port
//	link   R1:1 R2:0 2ms
//	link   R1:1 R2:0 2ms loss=0.1 seed=42    # seeded fault injection:
//	                                # loss= dup= corrupt= reorder= (probabilities),
//	                                # jitter=2ms, down=10ms-20ms (window), seed=N
//	route32 R1 10.0.0.0/8 1         # IPv4-style route to a port, or "local"
//	route128 R1 20/8 1              # hex prefix
//	name   R1 aa000000/8 1          # content-name route
//	produce H2 aa000001 "payload"   # H2 answers interests for the name
//	interest H1 aa000001 [at 5ms]   # scenario traffic
//	send   H1 ipv4 10.0.0.1 10.0.0.9 "payload" [at 1ms]
//	speakers [refresh=50ms] [hold=150ms] [horizon=1s] [maxmetric=16]
//	                                # in-fabric route exchange on all routers
//	linkdown R1 R2 at 10ms [silent] # kill a router-router link (silent: no
//	                                # carrier loss; only hold-timer recovery)
//	linkup   R1 R2 at 30ms          # revive it
//	int=1 intslots=8                # in-band telemetry: every int-th injected
//	                                # packet carries an F_tel region with
//	                                # intslots hop records; delivering hosts
//	                                # strip it into the INT() collector
package topo

import (
	"bufio"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"dip/internal/core"
	"dip/internal/fib"
	"dip/internal/host"
	"dip/internal/inband"
	"dip/internal/journey"
	"dip/internal/netsim"
	"dip/internal/node"
	"dip/internal/profiles"
	"dip/internal/router"
	"dip/internal/telemetry"
)

// Delivery records a packet arriving at a host.
type Delivery struct {
	Host    string
	At      time.Duration
	Payload string
	Profile string // "interest", "data", "other"
}

// Topology is a parsed, runnable network.
type Topology struct {
	sim        *netsim.Simulator
	routers    map[string]*routerNode
	hosts      map[string]*hostNode
	events     []event
	faulty     []faultyLink
	links      []topoLink
	rlinks     []*routerLink
	speak      *speakOptions
	journeys   *journey.Collector
	Deliveries []Delivery
	// journeyEvery is the per-router sampling period EnableJourneys set:
	// every router's TraceEvery, its spans going to the collector.
	journeyEvery int
	// built is set once Build has assembled every router's node.
	built bool
	// In-band telemetry state (int=/intslots= or EnableINT).
	intEvery int
	intSlots int
	intSeq   int64
	intc     *inband.Collector
	intIDs   map[string]uint32
	intNames map[uint32]string
	// Log receives a line per notable event; nil discards.
	Log func(format string, args ...any)
}

type faultyLink struct {
	label string
	im    *netsim.Impairment
}

type topoLink struct {
	label string
	pipe  *netsim.Endpoint
}

// routerNode is one declared router: the node.Spec the DSL filled in, the
// ports its links occupy, and — from scenario start on — the built node.
type routerNode struct {
	name string
	spec node.Spec
	// node is assembled by Topology.Build under the virtual-clock Env: cold
	// reads run synchronously, re-injects and pump-mode bursts enter as
	// Schedule(0) events, so runs stay single-goroutine deterministic.
	node *node.Node
	// ports are the egress ports by index, with what hangs off each (for
	// FIB-walk path prediction); a router peer makes the port a
	// route-exchange adjacency. Unlinked indexes are black holes.
	ports []portSlot
	// pipes are the router's outgoing link endpoints; their in-flight sum
	// is F_tel's queue-depth source on zero-bandwidth links.
	pipes []*netsim.Endpoint
}

type portSlot struct {
	port router.Port
	peer string // "" for a black hole
	host bool
}

type hostNode struct {
	name     string
	topo     *Topology
	port     router.Port // toward the network (set by link)
	produces map[uint32]string
}

type event struct {
	at time.Duration
	fn func()
}

// Parse reads a topology file.
func Parse(r io.Reader) (*Topology, error) {
	t := &Topology{
		sim:     netsim.New(),
		routers: map[string]*routerNode{},
		hosts:   map[string]*hostNode{},
	}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := t.directive(line); err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *Topology) directive(line string) error {
	fields := tokenize(line)
	switch fields[0] {
	case "router":
		return t.addRouter(fields[1:])
	case "host":
		return t.addHost(fields[1:])
	case "link":
		return t.addLink(fields[1:])
	case "route32", "route128", "name":
		return t.addRoute(fields[0], fields[1:])
	case "produce":
		return t.addProducer(fields[1:])
	case "interest":
		return t.addInterest(fields[1:])
	case "send":
		return t.addSend(fields[1:])
	case "speakers":
		return t.addSpeakers(fields[1:])
	case "linkdown":
		return t.addLinkEvent(false, fields[1:])
	case "linkup":
		return t.addLinkEvent(true, fields[1:])
	default:
		if k, _, ok := strings.Cut(fields[0], "="); ok && (k == "int" || k == "intslots") {
			return t.addINT(fields)
		}
		return fmt.Errorf("unknown directive %q", fields[0])
	}
}

// addINT parses the `int=N [intslots=M]` telemetry directive.
func (t *Topology) addINT(args []string) error {
	for _, opt := range args {
		k, v, ok := strings.Cut(opt, "=")
		if !ok {
			return fmt.Errorf("int options want key=value, got %q", opt)
		}
		switch k {
		case "int":
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return fmt.Errorf("int= wants a positive sampling period, got %q", v)
			}
			t.intEvery = n
		case "intslots":
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 || n > 127 {
				return fmt.Errorf("intslots= wants 1..127 slots, got %q", v)
			}
			t.intSlots = n
		default:
			return fmt.Errorf("unknown int option %q", opt)
		}
	}
	if t.intEvery == 0 {
		t.intEvery = 1
	}
	if t.intSlots == 0 {
		t.intSlots = 8
	}
	return nil
}

// tokenize splits on spaces but keeps quoted strings whole (without quotes).
func tokenize(line string) []string {
	var out []string
	for len(line) > 0 {
		line = strings.TrimLeft(line, " \t")
		if line == "" {
			break
		}
		if line[0] == '"' {
			end := strings.IndexByte(line[1:], '"')
			if end < 0 {
				out = append(out, line[1:])
				return out
			}
			out = append(out, line[1:1+end])
			line = line[2+end:]
			continue
		}
		sp := strings.IndexAny(line, " \t")
		if sp < 0 {
			out = append(out, line)
			break
		}
		out = append(out, line[:sp])
		line = line[sp+1:]
	}
	return out
}

func (t *Topology) addRouter(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("router needs a name")
	}
	name := args[0]
	if _, dup := t.routers[name]; dup {
		return fmt.Errorf("router %s redefined", name)
	}
	spec := node.Spec{Name: name}
	counts := map[string]*int{
		"batch": &spec.Batch, "queue": &spec.Queue, "cache": &spec.Cache, "csshards": &spec.CSShards,
		"cscold": &spec.CSCold, "csslot": &spec.CSSlot, "pitperport": &spec.PITPerPort, "pitshards": &spec.PITShards,
	}
	for _, opt := range args[1:] {
		k, v, _ := strings.Cut(opt, "=")
		if dst, ok := counts[k]; ok {
			n, err := strconv.Atoi(v)
			if err != nil || (n < 1 && k != "cache") {
				return fmt.Errorf("%s wants a positive count, got %q", k, v)
			}
			*dst = n
			continue
		}
		switch k {
		case "secret":
			secret, err := hex.DecodeString(v)
			if err != nil {
				return fmt.Errorf("secret must be 32 hex chars")
			}
			spec.Secret = secret
		case "hopindex":
			n, err := strconv.Atoi(v)
			if err != nil {
				return fmt.Errorf("hopindex: %v", err)
			}
			spec.HopIndex = uint8(n)
		case "requirepass":
			spec.RequirePass = true
		default:
			return fmt.Errorf("unknown router option %q", opt)
		}
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	t.routers[name] = &routerNode{name: name, spec: spec}
	return nil
}

func (t *Topology) addHost(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("host needs a name")
	}
	name := args[0]
	if _, dup := t.hosts[name]; dup {
		return fmt.Errorf("host %s redefined", name)
	}
	t.hosts[name] = &hostNode{name: name, topo: t, produces: map[uint32]string{}}
	return nil
}

// endpoint resolves "NAME[:port]".
func (t *Topology) endpoint(spec string) (name string, port int, isHost bool, err error) {
	name, portStr, has := strings.Cut(spec, ":")
	if _, ok := t.hosts[name]; ok {
		if has {
			return "", 0, false, fmt.Errorf("hosts have no port numbers: %q", spec)
		}
		return name, 0, true, nil
	}
	if _, ok := t.routers[name]; !ok {
		return "", 0, false, fmt.Errorf("unknown node %q", name)
	}
	if !has {
		return "", 0, false, fmt.Errorf("router endpoint needs a port: %q", spec)
	}
	port, err = strconv.Atoi(portStr)
	return name, port, false, err
}

// parseImpairments reads the link directive's key=value fault options into
// a pair of per-direction impairments (nil when none are given). Seeds are
// derived per direction so both fault sequences are independent yet fully
// determined by the one seed= value.
func parseImpairments(opts []string) (ab, ba *netsim.Impairment, err error) {
	var seed int64 = 1
	type setter func(im *netsim.Impairment)
	var setters []setter
	prob := func(k, v string, assign func(im *netsim.Impairment, p float64)) error {
		p, err := strconv.ParseFloat(v, 64)
		if err != nil || p < 0 || p > 1 {
			return fmt.Errorf("%s wants a probability in [0,1], got %q", k, v)
		}
		setters = append(setters, func(im *netsim.Impairment) { assign(im, p) })
		return nil
	}
	for _, opt := range opts {
		k, v, ok := strings.Cut(opt, "=")
		if !ok {
			return nil, nil, fmt.Errorf("unknown link option %q", opt)
		}
		switch k {
		case "seed":
			s, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("seed: %v", err)
			}
			seed = s
		case "loss":
			if err := prob(k, v, func(im *netsim.Impairment, p float64) { im.DropProb = p }); err != nil {
				return nil, nil, err
			}
		case "dup":
			if err := prob(k, v, func(im *netsim.Impairment, p float64) { im.DupProb = p }); err != nil {
				return nil, nil, err
			}
		case "corrupt":
			if err := prob(k, v, func(im *netsim.Impairment, p float64) { im.CorruptProb = p }); err != nil {
				return nil, nil, err
			}
		case "reorder":
			if err := prob(k, v, func(im *netsim.Impairment, p float64) { im.ReorderProb = p }); err != nil {
				return nil, nil, err
			}
		case "jitter":
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, nil, fmt.Errorf("jitter: %v", err)
			}
			setters = append(setters, func(im *netsim.Impairment) { im.Jitter = d })
		case "down":
			fromStr, toStr, ok := strings.Cut(v, "-")
			if !ok {
				return nil, nil, fmt.Errorf("down wants from-to durations, got %q", v)
			}
			from, err := time.ParseDuration(fromStr)
			if err != nil {
				return nil, nil, fmt.Errorf("down: %v", err)
			}
			to, err := time.ParseDuration(toStr)
			if err != nil {
				return nil, nil, fmt.Errorf("down: %v", err)
			}
			setters = append(setters, func(im *netsim.Impairment) { im.DownBetween(from, to) })
		default:
			return nil, nil, fmt.Errorf("unknown link option %q", opt)
		}
	}
	if len(setters) == 0 {
		return nil, nil, nil
	}
	ab, ba = netsim.NewImpairment(seed), netsim.NewImpairment(seed+1)
	for _, s := range setters {
		s(ab)
		s(ba)
	}
	return ab, ba, nil
}

func (t *Topology) addLink(args []string) error {
	if len(args) < 2 {
		return fmt.Errorf("link needs two endpoints")
	}
	delay := time.Millisecond
	opts := args[2:]
	if len(opts) > 0 && !strings.Contains(opts[0], "=") {
		d, err := time.ParseDuration(opts[0])
		if err != nil {
			return fmt.Errorf("delay: %v", err)
		}
		delay = d
		opts = opts[1:]
	}
	imAB, imBA, err := parseImpairments(opts)
	if err != nil {
		return err
	}
	aName, aPort, aHost, err := t.endpoint(args[0])
	if err != nil {
		return err
	}
	bName, bPort, bHost, err := t.endpoint(args[1])
	if err != nil {
		return err
	}
	recvOf := func(name string, isHost bool, port int) netsim.Receiver {
		if isHost {
			h := t.hosts[name]
			return netsim.ReceiverFunc(func(pkt []byte, _ int) { h.receive(pkt) })
		}
		rn := t.routers[name]
		return netsim.ReceiverFunc(func(pkt []byte, p int) { rn.node.Handle(pkt, p) })
	}
	// a → b direction.
	var abOpts, baOpts []netsim.LinkOption
	if imAB != nil {
		abOpts = append(abOpts, netsim.WithImpairment(imAB))
		baOpts = append(baOpts, netsim.WithImpairment(imBA))
		t.faulty = append(t.faulty,
			faultyLink{label: args[0] + "->" + args[1], im: imAB},
			faultyLink{label: args[1] + "->" + args[0], im: imBA})
	}
	abPipe := t.sim.Pipe(recvOf(bName, bHost, bPort), bPort, delay, 0, abOpts...)
	baPipe := t.sim.Pipe(recvOf(aName, aHost, aPort), aPort, delay, 0, baOpts...)
	t.links = append(t.links,
		topoLink{label: aName + "->" + bName, pipe: abPipe},
		topoLink{label: bName + "->" + aName, pipe: baPipe})
	if !aHost && !bHost {
		// Router↔router adjacency: route-exchange speakers peer over it and
		// linkdown/linkup events target it by router-name pair.
		t.rlinks = append(t.rlinks, &routerLink{
			aName: aName, bName: bName, aPort: aPort, bPort: bPort,
			ab: abPipe, ba: baPipe,
		})
	}
	attach := func(name string, isHost bool, port int, pipe *netsim.Endpoint, peer string, peerHost bool) {
		if isHost {
			t.hosts[name].port = pipe
			return
		}
		rn := t.routers[name]
		rn.pipes = append(rn.pipes, pipe)
		for len(rn.ports) <= port {
			// Pad unassigned ports with black holes so indices line up.
			slot := portSlot{port: router.PortFunc(func([]byte) {})}
			if len(rn.ports) == port {
				slot = portSlot{port: pipe, peer: peer, host: peerHost}
			}
			rn.ports = append(rn.ports, slot)
		}
	}
	attach(aName, aHost, aPort, abPipe, bName, bHost)
	attach(bName, bHost, bPort, baPipe, aName, aHost)
	return nil
}

func (t *Topology) addRoute(kind string, args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("%s needs: router prefix/len port|local", kind)
	}
	rn, ok := t.routers[args[0]]
	if !ok {
		return fmt.Errorf("unknown router %q", args[0])
	}
	bits, into := 32, &rn.spec.Routes32
	switch kind {
	case "name":
		into = &rn.spec.Names
	case "route128":
		bits, into = 128, &rn.spec.Routes128
	}
	r, err := node.ParseRoute(bits, args[1], args[2])
	if err != nil {
		return err
	}
	*into = append(*into, r)
	return nil
}

func (t *Topology) addProducer(args []string) error {
	if len(args) != 3 {
		return fmt.Errorf("produce needs: host name payload")
	}
	h, ok := t.hosts[args[0]]
	if !ok {
		return fmt.Errorf("unknown host %q", args[0])
	}
	name, err := node.Parse32(args[1])
	if err != nil {
		return err
	}
	h.produces[name] = args[2]
	return nil
}

func (t *Topology) scheduleAt(args []string) (rest []string, at time.Duration, err error) {
	for i := 0; i+1 < len(args); i++ {
		if args[i] == "at" {
			d, err := time.ParseDuration(args[i+1])
			if err != nil {
				return nil, 0, err
			}
			return append(append([]string{}, args[:i]...), args[i+2:]...), d, nil
		}
	}
	return args, 0, nil
}

func (t *Topology) addInterest(args []string) error {
	args, at, err := t.scheduleAt(args)
	if err != nil {
		return err
	}
	if len(args) != 2 {
		return fmt.Errorf("interest needs: host name [at D]")
	}
	h, ok := t.hosts[args[0]]
	if !ok {
		return fmt.Errorf("unknown host %q", args[0])
	}
	name, err := node.Parse32(args[1])
	if err != nil {
		return err
	}
	t.events = append(t.events, event{at: at, fn: func() {
		b, err := host.BuildPacket(t.intWrap(profiles.NDNInterest(name)), nil)
		if err != nil {
			return
		}
		h.send(b)
	}})
	return nil
}

func (t *Topology) addSend(args []string) error {
	args, at, err := t.scheduleAt(args)
	if err != nil {
		return err
	}
	if len(args) != 5 || args[1] != "ipv4" {
		return fmt.Errorf("send needs: host ipv4 src dst payload [at D]")
	}
	h, ok := t.hosts[args[0]]
	if !ok {
		return fmt.Errorf("unknown host %q", args[0])
	}
	src, err := parseAddr(args[2])
	if err != nil {
		return err
	}
	dst, err := parseAddr(args[3])
	if err != nil {
		return err
	}
	payload := args[4]
	t.events = append(t.events, event{at: at, fn: func() {
		b, err := host.BuildPacket(t.intWrap(profiles.IPv4(src, dst)), []byte(payload))
		if err != nil {
			return
		}
		h.send(b)
	}})
	return nil
}

// EnableJourneys turns on end-to-end journey tracing for the run: every
// every-th packet per router gets a span (1 traces everything), every link
// transit and host send/receive is observed, and all spans are stitched by
// the returned Collector. All span timestamps come from the simulator's
// virtual clock — the same time source RunSampled's series ticks on — so
// spans, samples, and deliveries are mutually comparable. Call after Parse,
// before Run.
func (t *Topology) EnableJourneys(every int) *journey.Collector {
	if t.journeys != nil {
		return t.journeys
	}
	if every < 1 {
		every = 1
	}
	t.journeyEvery = every
	t.journeys = journey.NewCollector(journey.Config{})
	for _, l := range t.links {
		l.pipe.SetObserver(journey.NewLinkTap(l.label, t.journeys))
	}
	return t.journeys
}

// Close releases per-router resources (cold-tier arena files). Safe to
// call multiple times; runs must be finished first.
func (t *Topology) Close() {
	for _, rn := range t.routers {
		if rn.node != nil {
			rn.node.Close()
		}
	}
}

// Journeys returns the collector installed by EnableJourneys, or nil.
func (t *Topology) Journeys() *journey.Collector { return t.journeys }

// EnableINT turns on in-band telemetry programmatically, equivalent to the
// int=/intslots= directives: every int-th injected packet carries an F_tel
// region, routers stamp it, and delivering hosts strip it into the returned
// collector. every or slots of 0 keep the current (or default 1/8) values.
// Call after Parse, before Run.
func (t *Topology) EnableINT(every, slots int) *inband.Collector {
	if every > 0 {
		t.intEvery = every
	} else if t.intEvery == 0 {
		t.intEvery = 1
	}
	if slots > 0 {
		t.intSlots = slots
	} else if t.intSlots == 0 {
		t.intSlots = 8
	}
	return t.collectINT()
}

// INT returns the in-band telemetry collector, or nil when telemetry is off.
func (t *Topology) INT() *inband.Collector { return t.intc }

// collectINT creates the host-edge postcard collector and numbers the hops:
// IDs are 1-based positions in sorted router-name order, so a given
// topology always numbers hops the same way. Idempotent.
func (t *Topology) collectINT() *inband.Collector {
	if t.intc != nil {
		return t.intc
	}
	t.intIDs = make(map[string]uint32, len(t.routers))
	t.intNames = make(map[uint32]string, len(t.routers))
	for i, n := range t.routerNames() {
		t.intIDs[n] = uint32(i + 1)
		t.intNames[uint32(i+1)] = n
	}
	t.intc = inband.NewCollector(inband.Config{
		Expected: t.expectedPath,
		HopName:  func(id uint32) string { return t.intNames[id] },
	})
	return t.intc
}

func (t *Topology) routerNames() []string {
	names := make([]string, 0, len(t.routers))
	for n := range t.routers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Build assembles every router's node from its Spec under the simulator's
// Env and attaches the link ports — the scenario start, once EnableJourneys,
// EnableINT, the speakers directive and Log have all had their say. Run
// calls it implicitly (and panics if it fails, which only a cold-arena I/O
// error can cause); call it first to handle that error. Idempotent.
func (t *Topology) Build() error {
	if t.built {
		return nil
	}
	if t.intEvery > 0 {
		t.collectINT()
	}
	names := t.routerNames()
	for _, name := range names {
		rn := t.routers[name]
		spec := rn.spec
		if t.intEvery > 0 {
			spec.IntEvery, spec.IntSlots, spec.HopID = t.intEvery, t.intSlots, t.intIDs[name]
		}
		if t.speak != nil {
			spec.Speaker, spec.SpeakerRefresh = true, t.speak.refresh
			spec.SpeakerHold, spec.SpeakerMaxMetric = t.speak.hold, t.speak.maxMetric
		}
		env := node.SimEnv(t.sim)
		env.Log = t.Log
		// Topo links are zero-bandwidth, so serialization queues never form;
		// in-flight copies on the router's egress pipes are the depth proxy
		// (max'd with the serve layer's burst depth).
		env.QueueDepth = func() int {
			d := 0
			for _, p := range rn.pipes {
				d += p.InFlight()
			}
			return d
		}
		if t.journeys != nil {
			spec.TraceEvery, env.Journeys = t.journeyEvery, t.journeys
		}
		n, err := node.Build(spec, env)
		if err != nil {
			return fmt.Errorf("router %s: %w", name, err)
		}
		for _, slot := range rn.ports {
			n.AttachPort(slot.port, slot.peer != "" && !slot.host)
		}
		rn.node = n
	}
	if t.speak != nil {
		// Refresh cycles run from t=0 every refresh= up to horizon=,
		// bounding the event queue so Run terminates.
		for at := time.Duration(0); at <= t.speak.horizon; at += t.speak.refresh {
			t.events = append(t.events, event{at: at, fn: func() {
				for _, name := range names {
					t.routers[name].node.Speaker.Refresh()
				}
			}})
		}
	}
	t.built = true
	return nil
}

// intWrap appends an F_tel region to every int-th injected packet. Routers
// mutate that region in flight, which defeats fingerprint-based trace
// correlation, so when journey tracing is also on the packet additionally
// carries an explicit TraceCtx — appended after the telemetry region so the
// per-packet ID stays out of the flow key (locations before the region).
func (t *Topology) intWrap(h *core.Header) *core.Header {
	if t.intEvery <= 0 {
		return h
	}
	t.intSeq++
	if (t.intSeq-1)%int64(t.intEvery) != 0 {
		return h
	}
	h = profiles.WithTelemetry(h, t.intSlots)
	if t.journeys != nil {
		h = journey.WithTraceCtx(h, journey.TraceID(t.intSeq))
	}
	return h
}

// expectedPath predicts the hop sequence a postcard's packet should have
// taken by walking the current FIBs from its first recorded hop — the oracle
// the collector cross-checks recorded paths against. Interests walk the
// name FIBs, ipv4 the 32-bit tables; data packets ride PIT reverse state,
// which no table predicts, so they get no prediction.
func (t *Topology) expectedPath(pc *inband.Postcard) ([]uint32, bool) {
	if len(pc.Hops) == 0 || (pc.Proto != "interest" && pc.Proto != "ipv4") {
		return nil, false
	}
	cur, ok := t.intNames[pc.Hops[0].HopID]
	if !ok {
		return nil, false
	}
	var path []uint32
	for range t.routers { // bounded: a longer walk means a FIB loop
		rn := t.routers[cur]
		path = append(path, t.intIDs[cur])
		var nh fib.NextHop
		if pc.Proto == "interest" {
			nh, ok = rn.node.State.NameFIB.LookupUint32(pc.Dst)
		} else {
			nh, ok = rn.node.State.FIB32.LookupUint32(pc.Dst)
		}
		if !ok {
			return nil, false
		}
		if nh.Port == fib.PortLocal {
			return path, true
		}
		if nh.Port < 0 || nh.Port >= len(rn.ports) || rn.ports[nh.Port].peer == "" {
			return nil, false
		}
		if rn.ports[nh.Port].host {
			return path, true
		}
		cur = rn.ports[nh.Port].peer
	}
	return nil, false
}

// stripINT is the delivering-edge termination: the packet's F_tel region
// becomes a postcard in the collector and is zeroed, so consumers of the
// delivered packet never see fabric telemetry.
func (h *hostNode) stripINT(pkt []byte, v core.View, profile string) {
	t := h.topo
	region, off, ok := profiles.TelemetryRegion(v)
	if !ok {
		return
	}
	if profile == "other" && v.FNNum() > 0 {
		switch v.FN(0).Key {
		case core.KeyMatch32:
			profile = "ipv4"
		case core.KeyMatch128:
			profile = "ipv6"
		}
	}
	node.AddPostcard(t.intc, v, pkt, region, off, inband.Postcard{
		Node: h.name, At: int64(t.sim.Now()), Dst: dstOf(v), Proto: profile,
	})
}

// dstOf reads the 4-byte operand the packet's first FN matches on — the
// content name for interests, the destination address for ipv4 — which is
// exactly the key expectedPath feeds back into the FIB walk.
func dstOf(v core.View) uint32 {
	if v.FNNum() == 0 {
		return 0
	}
	fn := v.FN(0)
	if fn.Loc%8 != 0 {
		return 0
	}
	locs := v.Locations()
	off := int(fn.Loc / 8)
	if off+4 > len(locs) {
		return 0
	}
	return uint32(locs[off])<<24 | uint32(locs[off+1])<<16 | uint32(locs[off+2])<<8 | uint32(locs[off+3])
}

// hostSpan files a host-edge span when journey tracing is on.
func (h *hostNode) hostSpan(kind journey.SpanKind, pkt []byte) {
	c := h.topo.journeys
	if c == nil {
		return
	}
	id := journey.TraceOf(pkt)
	if id == 0 {
		return
	}
	at := int64(h.topo.sim.Now())
	sp := journey.Span{Trace: id, Kind: kind, Node: h.name, Start: at, End: at}
	if v, err := core.ParseView(pkt); err == nil {
		sp.Proto = journey.ProtoOf(v)
	}
	c.AddSpan(sp)
}

func (h *hostNode) send(pkt []byte) {
	h.hostSpan(journey.SpanHostSend, pkt)
	if h.port != nil {
		h.port.Send(pkt)
	}
}

func (h *hostNode) receive(pkt []byte) {
	t := h.topo
	h.hostSpan(journey.SpanHostRecv, pkt)
	v, err := core.ParseView(pkt)
	if err != nil {
		return
	}
	profile := "other"
	if v.FNNum() > 0 {
		switch v.FN(0).Key {
		case core.KeyFIB:
			profile = "interest"
		case core.KeyPIT:
			profile = "data"
		}
	}
	if t.intc != nil {
		h.stripINT(pkt, v, profile)
	}
	// Producers answer interests for names they serve.
	if profile == "interest" {
		name := nameOf(v)
		if payload, serves := h.produces[name]; serves {
			if t.Log != nil {
				t.Log("[%v] %s serves %#08x", t.sim.Now(), h.name, name)
			}
			reply, err := host.BuildPacket(t.intWrap(profiles.NDNData(name)), []byte(payload))
			if err == nil {
				t.sim.Schedule(0, func() { h.send(reply) })
			}
			return
		}
	}
	t.Deliveries = append(t.Deliveries, Delivery{
		Host:    h.name,
		At:      t.sim.Now(),
		Payload: string(v.Payload()),
		Profile: profile,
	})
	if t.Log != nil {
		t.Log("[%v] %s received %s %q", t.sim.Now(), h.name, profile, v.Payload())
	}
}

// Run schedules the scenario and drains the simulator, returning the
// deliveries observed.
func (t *Topology) Run() []Delivery {
	t.start()
	t.sim.Run()
	return t.Deliveries
}

// start builds the nodes and hands the scenario's events to the simulator.
func (t *Topology) start() {
	if err := t.Build(); err != nil {
		panic(fmt.Sprintf("topo: %v (call Build to handle this)", err))
	}
	for _, e := range t.events {
		t.sim.Schedule(e.at, e.fn)
	}
	t.events = nil
}

// Sample is one periodic observation of every router's counters during a
// sampled run. Rates derive from adjacent samples: Routers[n].Delta(prev)
// over the sampling interval.
type Sample struct {
	// At is the virtual-time tick boundary the sample was taken at.
	At time.Duration
	// Routers maps router name to its counter snapshot at At.
	Routers map[string]telemetry.Snapshot
}

// RunSampled runs the scenario like Run but additionally snapshots every
// router's telemetry at each interval boundary of virtual time, returning
// the series (starting with a t=0 baseline). The time series is what chaos
// assertions hang on — e.g. that a drop or retransmit *rate* decays to zero
// after an impaired link heals, which final totals cannot show.
func (t *Topology) RunSampled(interval time.Duration) ([]Delivery, []Sample) {
	if interval <= 0 {
		return t.Run(), nil
	}
	t.start()
	snap := func(at time.Duration) Sample {
		s := Sample{At: at, Routers: make(map[string]telemetry.Snapshot, len(t.routers))}
		for n, rn := range t.routers {
			s.Routers[n] = rn.node.Metrics.Snapshot()
		}
		return s
	}
	series := []Sample{snap(0)}
	for next := interval; t.sim.Pending() > 0; next += interval {
		t.sim.RunUntil(next)
		series = append(series, snap(next))
	}
	return t.Deliveries, series
}

// Report summarizes router telemetry and link fault counters after a run.
func (t *Topology) Report(w io.Writer) {
	for _, n := range t.routerNames() {
		if rn := t.routers[n]; rn.node != nil {
			fmt.Fprintf(w, "router %s:\n%s", n, indent(rn.node.Metrics.Snapshot().String()))
		}
	}
	for _, fl := range t.faulty {
		if fl.im.Faults() == 0 {
			continue
		}
		fmt.Fprintf(w, "link %s: drops=%d dups=%d reorders=%d corrupts=%d down-drops=%d\n",
			fl.label, fl.im.Drops, fl.im.Dups, fl.im.Reorders, fl.im.Corrupts, fl.im.DownDrops)
	}
}

func nameOf(v core.View) uint32 {
	locs := v.Locations()
	if len(locs) < 4 {
		return 0
	}
	return uint32(locs[0])<<24 | uint32(locs[1])<<16 | uint32(locs[2])<<8 | uint32(locs[3])
}

// parseAddr reads an IPv4-style address (dotted quad or hex).
func parseAddr(s string) ([4]byte, error) {
	v, err := node.Parse32(s)
	return [4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}, err
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = "  " + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
