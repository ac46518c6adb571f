// Command diprouter runs a DIP router over a UDP overlay: each router port
// is a UDP peer, DIP packets travel as datagrams, and the node is described
// by flags. Together with diphost this demonstrates the library on real
// sockets rather than the simulator.
//
// Example (a one-router NDN setup):
//
//	diprouter -listen 127.0.0.1:7000 \
//	    -peer 127.0.0.1:7001 -peer 127.0.0.1:7002 \
//	    -name 0xAA000000/8=1
//
// gives the router two ports (0 → :7001, 1 → :7002) and routes content
// names under 0xAA/8 to port 1. Incoming datagrams are attributed to a port
// by their source address; datagrams from unknown sources arrive on port 0.
//
// This file is only a parser: the flags fill a node.Spec (each Spec field
// names its flag), node.Build validates it and assembles the router — cache
// tiers, PIT sizing, guarded ingress, recorder stack, F_tel, postcards,
// speaker — and Node.ServeUDP runs the socket loop. A flag that would have
// no effect (-csslot without -cscold, -queue without -workers or -batch,
// -int-slots without -int-every, …) is an error, not ignored. `diprouter -h`
// lists every flag; README.md groups them (tables, cache hierarchy,
// overload hardening, control plane, observability).
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"dip"
	"dip/internal/node"
)

type stringList []string

func (s *stringList) String() string     { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	var (
		listen    = flag.String("listen", "", "UDP address to bind")
		cacheSize = flag.Int("cache", 0, "content store capacity (0 = off)")
		csCold    = flag.Int("cscold", 0, "cold-tier arena slots (0 = no cold tier; requires -cache)")
		csSlot    = flag.Int("csslot", 0, "cold-tier slot payload bytes (0 = default 2048)")
		csReaders = flag.Int("csreaders", 0, "cold-tier async reader goroutines (0 = default 2)")
		csFile    = flag.String("cscold-file", "", "cold arena backing file (empty = unlinked temp)")
		secretHex = flag.String("secret", "", "16-byte hex DRKey secret (enables OPT ops)")
		maxFNs    = flag.Int("maxfns", 0, "per-packet FN budget (0 = wire max)")
		verbose   = flag.Bool("v", false, "log packets")
		workers   = flag.Int("workers", 0, "guarded forwarding workers (0 = handle on the socket loop)")
		queueLen  = flag.Int("queue", 0, "per-class ingress queue depth (0 = default 256)")
		batchSize = flag.Int("batch", 0, "run-to-completion burst size per forwarder (0 = default 64)")
		admitPort = flag.String("admit-port", "", "per-inport admission rate:burst (pkts/s)")
		admitBulk = flag.String("admit-bulk", "", "bulk-class admission rate:burst (pkts/s)")
		pitCap    = flag.Int("pitperport", 0, "per-inport pending-interest cap (0 = off)")
		pitShards = flag.Int("pitshards", 0, "PIT lock shards, rounded to a power of two (0 = default)")
		csShards  = flag.Int("csshards", 0, "content store lock shards (0 = 1 shard, exact LRU)")
		healthDur = flag.Duration("health", 0, "guard health log period (0 = off)")
		speaker   = flag.Bool("speaker", false, "run the in-fabric route-exchange speaker over the peer ports")
		speakRef  = flag.Duration("speaker-refresh", 5*time.Second, "route advertisement refresh period")
		speakHold = flag.Duration("speaker-hold", 0, "soft-state hold time (0 = 3x refresh)")
		metricsAt = flag.String("metrics-addr", "", "HTTP address for /metrics, /trace and /debug/pprof (empty = off)")
		traceN    = flag.Int("trace-every", 0, "sample every Nth packet into /trace and, as a journey span, /journeys (0 = off)")
		traceRing = flag.Int("trace-ring", 0, "trace ring capacity in records (0 = default)")
		intEvery  = flag.Int("int-every", 0, "stamp F_tel and collect every Nth delivered telemetry postcard (0 = off)")
		intSlots  = flag.Int("int-slots", 0, "telemetry slot capacity for locally originated packets (0 = default 8)")
		peers     stringList
		routes32  stringList
		routes128 stringList
		names     stringList
	)
	flag.Var(&peers, "peer", "peer UDP address (one per port, in order)")
	flag.Var(&routes32, "route32", "32-bit route prefix/len=port")
	flag.Var(&routes128, "route128", "128-bit route hexprefix/len=port")
	flag.Var(&names, "name", "content-name route hexprefix/len=port|local")
	flag.Parse()

	if *listen == "" {
		flag.Usage()
		os.Exit(2)
	}
	spec := dip.NodeSpec{
		Name: *listen, MaxFNs: *maxFNs,
		Cache: *cacheSize, CSShards: *csShards, CSCold: *csCold, CSSlot: *csSlot, CSReaders: *csReaders, CSColdFile: *csFile,
		PITPerPort: *pitCap, PITShards: *pitShards,
		Workers: *workers, Queue: *queueLen, Batch: *batchSize,
		TraceEvery: *traceN, TraceRing: *traceRing,
		IntEvery: *intEvery, IntSlots: *intSlots,
		Speaker: *speaker, SpeakerRefresh: *speakRef, SpeakerHold: *speakHold,
	}
	var err error
	if spec.Secret, err = hex.DecodeString(*secretHex); err != nil {
		log.Fatalf("-secret: %v", err)
	}
	if spec.AdmitPort, err = parseRate(*admitPort); err != nil {
		log.Fatalf("-admit-port: %v", err)
	}
	if spec.AdmitBulk, err = parseRate(*admitBulk); err != nil {
		log.Fatalf("-admit-bulk: %v", err)
	}
	for _, f := range []struct {
		flag  string
		bits  int
		specs []string
		into  *[]dip.NodeRoute
	}{
		{"-route32", 32, routes32, &spec.Routes32},
		{"-route128", 128, routes128, &spec.Routes128},
		{"-name", 32, names, &spec.Names},
	} {
		for _, rs := range f.specs {
			eq := strings.LastIndex(rs, "=")
			if eq < 0 {
				log.Fatalf("%s %q: want prefix/len=port", f.flag, rs)
			}
			r, err := node.ParseRoute(f.bits, rs[:eq], rs[eq+1:])
			if err != nil {
				log.Fatalf("%s %q: %v", f.flag, rs, err)
			}
			*f.into = append(*f.into, r)
		}
	}
	raddrs := make([]*net.UDPAddr, len(peers))
	for i, p := range peers {
		if raddrs[i], err = net.ResolveUDPAddr("udp", p); err != nil {
			log.Fatalf("-peer %q: %v", p, err)
		}
	}

	var vlog func(string, ...any)
	if *verbose {
		vlog = log.Printf
	}
	n, err := dip.BuildNode(spec, dip.WallEnv(vlog))
	if err != nil {
		log.Fatal(err)
	}
	defer n.Close()
	if spec.IntEvery > 0 {
		log.Printf("in-band telemetry: stamping as hop %#08x, collecting 1-in-%d postcards", n.Spec.HopID, spec.IntEvery)
	}
	if spec.Speaker {
		log.Printf("speaker: originating %d configured routes, refresh %v",
			n.Speaker.Stats().Local, spec.SpeakerRefresh)
	}
	if *metricsAt != "" {
		bound, _, err := dip.ServeMetrics(*metricsAt, n.MetricsSource())
		if err != nil {
			log.Fatalf("-metrics-addr: %v", err)
		}
		log.Printf("metrics on http://%v/metrics (trace: /trace, journeys: /journeys, pprof: /debug/pprof/)", bound)
	}
	if *healthDur > 0 {
		if n.Ingress == nil {
			log.Fatalf("-health needs the guarded ingress; add -workers or -batch")
		}
		go watchHealth(n, *healthDur)
	}

	laddr, err := net.ResolveUDPAddr("udp", *listen)
	if err != nil {
		log.Fatalf("listen address: %v", err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		log.Fatalf("bind: %v", err)
	}
	defer conn.Close()
	log.Printf("diprouter listening on %v with %d ports", laddr, len(raddrs))
	if err := n.ServeUDP(conn, raddrs); err != nil {
		log.Fatalf("serve: %v", err)
	}
}

// parseRate reads "rate:burst" (packets per second, burst allowance); the
// empty string is the unlimited zero rate.
func parseRate(spec string) (dip.AdmissionRate, error) {
	if spec == "" {
		return dip.AdmissionRate{}, nil
	}
	rateStr, burstStr, ok := strings.Cut(spec, ":")
	if !ok {
		return dip.AdmissionRate{}, fmt.Errorf("want rate:burst, got %q", spec)
	}
	rate, err := strconv.ParseFloat(rateStr, 64)
	if err != nil {
		return dip.AdmissionRate{}, fmt.Errorf("rate: %v", err)
	}
	burst, err := strconv.ParseFloat(burstStr, 64)
	if err != nil {
		return dip.AdmissionRate{}, fmt.Errorf("burst: %v", err)
	}
	return dip.AdmissionRate{PerSec: rate, Burst: burst}, nil
}

// watchHealth periodically logs the guard snapshot and streams any new
// quarantine captures to stderr in dipdump-ready form (pipe them into
// `dipdump` to dissect the poison packets).
func watchHealth(n *dip.Node, every time.Duration) {
	var dumped int64
	for range time.Tick(every) {
		if h, ok := n.Router.Health(); ok {
			log.Printf("guard: %s", h)
		}
		for _, c := range n.Ingress.Quarantine().Snapshot() {
			if c.Seq >= dumped {
				fmt.Fprint(os.Stderr, c.String())
				dumped = c.Seq + 1
			}
		}
	}
}
