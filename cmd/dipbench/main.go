// Command dipbench regenerates the paper's evaluation artifacts as printed
// tables: Figure 2 (per-packet processing time for IP, NDN, OPT and
// NDN+OPT against the IPv4/IPv6 baselines, at 128/768/1500-byte packets)
// and Table 2 (header size overhead), plus the ablations indexed in
// DESIGN.md (MAC algorithm, parallel flag, FN count, FIB scale, PISA vs
// software engine).
//
// Absolute times are CPU nanoseconds, not Tofino pipeline nanoseconds; the
// claim being reproduced is the *shape*: DIP ≈ IP baseline, OPT and
// NDN+OPT slower because MACs dominate, size-independence of processing
// time, and Table 2 byte-exactness.
//
// Usage:
//
//	dipbench                    # everything
//	dipbench -experiment fig2   # one experiment: fig2, table2, mac,
//	                            # parallel, fncount, fibscale, pisa,
//	                            # fiblookup, mixed, journey, burst,
//	                            # fetchcc, cstier, churn, int
//	dipbench -trials 1000       # per-measurement packet count (paper: 1000)
//	dipbench -json out.json     # also write machine-readable records
//	                            # (name, ns/op, B/op, allocs/op, GOMAXPROCS)
package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"dip"
	"dip/internal/cc"
	"dip/internal/churn"
	"dip/internal/core"
	"dip/internal/cs"
	"dip/internal/extops"
	"dip/internal/fib"
	"dip/internal/inband"
	"dip/internal/ip"
	"dip/internal/journey"
	"dip/internal/lpm"
	"dip/internal/ndn"
	"dip/internal/pisa"
	"dip/internal/profiles"
	"dip/internal/telemetry"
	"dip/internal/workload"
)

var (
	trials     = flag.Int("trials", 1000, "forwarding tests per measurement (paper: 1000)")
	rounds     = flag.Int("rounds", 31, "measurement rounds; the median is reported")
	jsonOut    = flag.String("json", "", "write benchmark records as JSON to this file")
	churnScale = flag.Float64("churn-scale", 1.0, "scale the churn experiment's route counts and storm ops (1.0 = 1.05M routes)")
	packets    = []int{128, 768, 1500}
)

// benchRecord is one line of the -json output; the field set mirrors what
// `go test -bench` reports so downstream tooling can treat both alike.
type benchRecord struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Gomaxprocs  int     `json:"gomaxprocs"`
}

var jsonRecords []benchRecord

func writeJSON() {
	if *jsonOut == "" {
		return
	}
	buf, err := json.MarshalIndent(jsonRecords, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*jsonOut, buf, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d benchmark records to %s\n", len(jsonRecords), *jsonOut)
}

func main() {
	exp := flag.String("experiment", "all", "fig2 | table2 | mac | parallel | fncount | fibscale | pisa | fiblookup | mixed | journey | burst | fetchcc | cstier | churn | int | all")
	flag.Parse()
	switch *exp {
	case "fig2":
		fig2()
	case "table2":
		table2()
	case "mac":
		ablationMAC()
	case "parallel":
		ablationParallel()
	case "fncount":
		ablationFNCount()
	case "fibscale":
		ablationFIBScale()
	case "pisa":
		ablationPISA()
	case "fiblookup":
		ablationFIBLookup()
	case "mixed":
		mixedTraffic()
	case "journey":
		journeyOverhead()
	case "burst":
		burstScaling()
	case "fetchcc":
		fetchCC()
	case "cstier":
		csTier()
	case "churn":
		churnExperiment()
	case "int":
		intOverhead()
	case "all":
		table2()
		fig2()
		ablationMAC()
		ablationParallel()
		ablationFNCount()
		ablationFIBScale()
		ablationPISA()
		ablationFIBLookup()
		mixedTraffic()
		journeyOverhead()
		burstScaling()
		fetchCC()
		csTier()
		churnExperiment()
		intOverhead()
	default:
		flag.Usage()
		os.Exit(2)
	}
	writeJSON()
}

// measure runs fn over *trials packets per round and returns the median
// per-packet time across rounds. name tags the -json record.
func measure(name string, fn func(n int)) time.Duration {
	return measureWithSetup(name, nil, fn)
}

// measureWithSetup runs setup (untimed) before each round, then times fn.
func measureWithSetup(name string, setup, fn func(n int)) time.Duration {
	times := make([]time.Duration, 0, *rounds)
	warm := *trials / 10
	if setup != nil {
		setup(warm)
	}
	fn(warm) // warm up
	for r := 0; r < *rounds; r++ {
		if setup != nil {
			setup(*trials)
		}
		start := time.Now()
		fn(*trials)
		times = append(times, time.Since(start)/time.Duration(*trials))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	med := times[len(times)/2]
	if *jsonOut != "" {
		// One extra untimed round under ReadMemStats gives B/op and
		// allocs/op without perturbing the timed rounds above.
		if setup != nil {
			setup(*trials)
		}
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		fn(*trials)
		runtime.ReadMemStats(&m1)
		n := float64(*trials)
		jsonRecords = append(jsonRecords, benchRecord{
			Name:        name,
			NsPerOp:     float64(med.Nanoseconds()),
			BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / n,
			AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / n,
			Gomaxprocs:  runtime.GOMAXPROCS(0),
		})
	}
	return med
}

type node struct {
	engine *dip.Engine
	state  *dip.NodeState
}

func newNode(kind dip.MACKind) *node {
	state := dip.NewNodeState()
	sv, err := dip.NewSecret("bench", bytes.Repeat([]byte{0x42}, 16))
	if err != nil {
		log.Fatal(err)
	}
	state.EnableOPT(sv, kind, [16]byte{}, 0)
	state.FIB32.AddUint32(0x0A000000, 8, dip.NextHop{Port: 1})
	pfx := make([]byte, 16)
	pfx[0] = 0x20
	state.FIB128.Add(pfx, 8, dip.NextHop{Port: 1})
	state.NameFIB.AddUint32(0xAA000000, 8, dip.NextHop{Port: 1})
	reg := dip.NewRouterRegistry(state.OpsConfig())
	return &node{engine: core.NewEngine(reg, dip.Limits{}), state: state}
}

func (nd *node) session(kind dip.MACKind) *dip.Session {
	dst, _ := dip.NewSecret("dst", bytes.Repeat([]byte{0xD0}, 16))
	sess, err := dip.NewSession(kind, []dip.HopConfig{{Secret: nd.state.Secret}}, dst)
	if err != nil {
		log.Fatal(err)
	}
	return sess
}

// runDIP processes one DIP packet n times through the engine.
func (nd *node) runDIP(pkt []byte) func(int) {
	var ctx dip.ExecContext
	return func(n int) {
		for i := 0; i < n; i++ {
			pkt[3] = 64
			v, err := dip.ParsePacket(pkt)
			if err != nil {
				log.Fatal(err)
			}
			v.DecHopLimit()
			ctx.Reset(v, 0)
			nd.engine.Process(&ctx)
			if ctx.Verdict == dip.VerdictDrop {
				log.Fatalf("dropped: %v", ctx.Reason)
			}
		}
	}
}

// nameOffset returns the byte offset of the 32-bit content name (the first
// FN's operand) inside an NDN-style packet.
func nameOffset(pkt []byte) int {
	v, err := dip.ParsePacket(pkt)
	if err != nil {
		log.Fatal(err)
	}
	return v.HeaderLen() - len(v.Locations())
}

func pad(pkt []byte, size int) []byte {
	for len(pkt) < size {
		pkt = append(pkt, 0xA5)
	}
	return pkt
}

func fig2() {
	fmt.Println("== Figure 2: packet processing time (median ns/packet) ==")
	fmt.Printf("%-14s", "protocol")
	for _, s := range packets {
		fmt.Printf("%12s", fmt.Sprintf("%dB", s))
	}
	fmt.Println()

	row := func(name string, mk func(size int) func(int)) {
		fmt.Printf("%-14s", name)
		for _, size := range packets {
			fmt.Printf("%12v", measure(fmt.Sprintf("fig2/%s/%dB", name, size), mk(size)))
		}
		fmt.Println()
	}
	rowSetup := func(name string, mk func(size int) (setup, fn func(int))) {
		fmt.Printf("%-14s", name)
		for _, size := range packets {
			setup, fn := mk(size)
			fmt.Printf("%12v", measureWithSetup(fmt.Sprintf("fig2/%s/%dB", name, size), setup, fn))
		}
		fmt.Println()
	}

	row("IPv4-baseline", func(size int) func(int) {
		table := fib.New()
		table.Add([]byte{10, 0, 0, 0}, 8, fib.NextHop{Port: 1})
		fwd := &ip.Forwarder4{FIB: table}
		pkt := make([]byte, size)
		return func(n int) {
			for i := 0; i < n; i++ {
				ip.Build4(pkt, [4]byte{1, 1, 1, 1}, [4]byte{10, 0, 0, 9}, ip.ProtoUDP, 64, size-ip.HeaderLen4)
				if v, _ := fwd.Process(pkt); v != ip.Forward {
					log.Fatal("ipv4 baseline: not forwarded")
				}
			}
		}
	})
	row("IPv6-baseline", func(size int) func(int) {
		table := fib.New()
		pfx := make([]byte, 16)
		pfx[0] = 0x20
		table.Add(pfx, 8, fib.NextHop{Port: 1})
		fwd := &ip.Forwarder6{FIB: table}
		var src, dst [16]byte
		dst[0] = 0x20
		pkt := make([]byte, size)
		ip.Build6(pkt, src, dst, ip.ProtoUDP, 64, size-ip.HeaderLen6)
		return func(n int) {
			for i := 0; i < n; i++ {
				pkt[7] = 64
				if v, _ := fwd.Process(pkt); v != ip.Forward {
					log.Fatal("ipv6 baseline: not forwarded")
				}
			}
		}
	})
	row("DIP-32", func(size int) func(int) {
		nd := newNode(dip.MAC2EM)
		pkt, _ := dip.BuildPacket(dip.IPv4Profile([4]byte{1, 1, 1, 1}, [4]byte{10, 0, 0, 9}), nil)
		return nd.runDIP(pad(pkt, size))
	})
	row("DIP-128", func(size int) func(int) {
		nd := newNode(dip.MAC2EM)
		var src, dst [16]byte
		dst[0] = 0x20
		pkt, _ := dip.BuildPacket(dip.IPv6Profile(src, dst), nil)
		return nd.runDIP(pad(pkt, size))
	})
	// NDN interest processing: FIB match + PIT record, a distinct name per
	// packet so every interest does the full insert-and-forward work. The
	// companion data packets are processed untimed to keep the PIT steady.
	rowSetup("NDN-interest", func(size int) (func(int), func(int)) {
		nd := newNode(dip.MAC2EM)
		interest, _ := dip.BuildPacket(dip.NDNInterestProfile(0xAA000000), nil)
		interest = pad(interest, size)
		data, _ := dip.BuildPacket(dip.NDNDataProfile(0xAA000000), nil)
		nameOff := nameOffset(interest)
		dataNameOff := nameOffset(data)
		var ctx dip.ExecContext
		seq := uint32(0)
		fn := func(n int) {
			for i := 0; i < n; i++ {
				seq++
				interest[3] = 64
				binary.BigEndian.PutUint32(interest[nameOff:], 0xAA000000|seq&0xFFFF)
				v, _ := dip.ParsePacket(interest)
				ctx.Reset(v, 5)
				nd.engine.Process(&ctx)
			}
		}
		drain := func(n int) {
			// Consume whatever the previous round inserted.
			for i := 0; i < 0x10000; i++ {
				data[3] = 64
				binary.BigEndian.PutUint32(data[dataNameOff:], 0xAA000000|uint32(i))
				v, _ := dip.ParsePacket(data)
				ctx.Reset(v, 1)
				nd.engine.Process(&ctx)
			}
		}
		return drain, fn
	})
	// NDN data processing: PIT consume + fan-out; matching interests are
	// installed untimed before each round.
	rowSetup("NDN-data", func(size int) (func(int), func(int)) {
		nd := newNode(dip.MAC2EM)
		data, _ := dip.BuildPacket(dip.NDNDataProfile(0xAA000000), nil)
		data = pad(data, size)
		nameOff := nameOffset(data)
		var ctx dip.ExecContext
		seq := uint32(0)
		setup := func(n int) {
			for i := 0; i < n; i++ {
				nd.state.PIT.AddInterest(0xAA000000|(seq+uint32(i))&0xFFFFFF, 5)
			}
		}
		fn := func(n int) {
			for i := 0; i < n; i++ {
				data[3] = 64
				binary.BigEndian.PutUint32(data[nameOff:], 0xAA000000|seq&0xFFFFFF)
				seq++
				v, _ := dip.ParsePacket(data)
				ctx.Reset(v, 1)
				nd.engine.Process(&ctx)
				if ctx.Verdict != dip.VerdictForward {
					log.Fatalf("NDN data: %v/%v", ctx.Verdict, ctx.Reason)
				}
			}
		}
		return setup, fn
	})
	row("OPT", func(size int) func(int) {
		nd := newNode(dip.MAC2EM)
		sess := nd.session(dip.MAC2EM)
		h, err := dip.OPTProfile(sess, nil, 1)
		if err != nil {
			log.Fatal(err)
		}
		pkt, _ := dip.BuildPacket(h, nil)
		return nd.runDIP(pad(pkt, size))
	})
	// NDN+OPT data processing: the derived protocol's expensive direction
	// (PIT consume + the full authentication chain).
	rowSetup("NDN+OPT", func(size int) (func(int), func(int)) {
		nd := newNode(dip.MAC2EM)
		sess := nd.session(dip.MAC2EM)
		h, err := dip.NDNOPTDataProfile(sess, 0xAA000002, nil, 1)
		if err != nil {
			log.Fatal(err)
		}
		data, _ := dip.BuildPacket(h, nil)
		data = pad(data, size)
		nameOff := nameOffset(data)
		var ctx dip.ExecContext
		seq := uint32(0)
		setup := func(n int) {
			for i := 0; i < n; i++ {
				nd.state.PIT.AddInterest(0xAA000000|(seq+uint32(i))&0xFFFFFF, 5)
			}
		}
		fn := func(n int) {
			for i := 0; i < n; i++ {
				data[3] = 64
				binary.BigEndian.PutUint32(data[nameOff:], 0xAA000000|seq&0xFFFFFF)
				seq++
				v, _ := dip.ParsePacket(data)
				ctx.Reset(v, 1)
				nd.engine.Process(&ctx)
				if ctx.Verdict != dip.VerdictForward {
					log.Fatalf("NDN+OPT data: %v/%v", ctx.Verdict, ctx.Reason)
				}
			}
		}
		return setup, fn
	})
	fmt.Println(`shape check (paper §4.2): DIP rows ≈ IP baselines; OPT and NDN+OPT
slower ("the MAC operations are expensive"); times ~independent of size.`)
	fmt.Println()
}

func table2() {
	fmt.Println("== Table 2: packet header size overhead (bytes) ==")
	nd := newNode(dip.MAC2EM)
	sess := nd.session(dip.MAC2EM)
	optHdr, err := dip.OPTProfile(sess, []byte("x"), 0)
	if err != nil {
		log.Fatal(err)
	}
	ndnOptHdr, err := dip.NDNOPTDataProfile(sess, 1, []byte("x"), 0)
	if err != nil {
		log.Fatal(err)
	}
	rows := []struct {
		name     string
		measured int
		paper    int
	}{
		{"IPv6 forwarding", ip.HeaderLen6, 40},
		{"IPv4 forwarding", ip.HeaderLen4, 20},
		{"DIP-128 forwarding", dip.IPv6Profile([16]byte{}, [16]byte{}).WireSize(), 50},
		{"DIP-32 forwarding", dip.IPv4Profile([4]byte{}, [4]byte{}).WireSize(), 26},
		{"NDN forwarding", dip.NDNInterestProfile(1).WireSize(), 16},
		{"OPT forwarding", optHdr.WireSize(), 98},
		{"NDN+OPT forwarding", ndnOptHdr.WireSize(), 108},
	}
	fmt.Printf("%-22s %9s %7s\n", "network function", "measured", "paper")
	exact := true
	for _, r := range rows {
		mark := ""
		if r.measured != r.paper {
			mark = "  MISMATCH"
			exact = false
		}
		fmt.Printf("%-22s %9d %7d%s\n", r.name, r.measured, r.paper, mark)
	}
	if exact {
		fmt.Println("all rows match the paper exactly")
	}
	_ = ndn.HeaderSize
	fmt.Println()
}

func ablationMAC() {
	fmt.Println("== E3: MAC algorithm (full OPT hop: parm+MAC+mark) ==")
	for _, kind := range []dip.MACKind{dip.MAC2EM, dip.MACAESCMAC} {
		nd := newNode(kind)
		sess := nd.session(kind)
		h, err := dip.OPTProfile(sess, nil, 1)
		if err != nil {
			log.Fatal(err)
		}
		pkt, _ := dip.BuildPacket(h, nil)
		fmt.Printf("  %-10s %v/packet\n", kind, measure(fmt.Sprintf("mac/%v", kind), nd.runDIP(pkt)))
	}
	fmt.Println("  (the paper chose 2EM over AES for Tofino; in software the gap is\n   the AES per-packet key schedule + allocations)")
	fmt.Println()
}

func ablationParallel() {
	fmt.Println("== E4: packet-parameter parallel flag (OPT auth chain) ==")
	for _, parallel := range []bool{false, true} {
		nd := newNode(dip.MAC2EM)
		sess := nd.session(dip.MAC2EM)
		h, err := dip.OPTProfile(sess, nil, 1)
		if err != nil {
			log.Fatal(err)
		}
		h.Parallel = parallel
		pkt, _ := dip.BuildPacket(h, nil)
		name := "sequential"
		if parallel {
			name = "parallel"
		}
		fmt.Printf("  %-10s %v/packet\n", name, measure("parallel/"+name, nd.runDIP(pkt)))
	}
	fmt.Println("  (software goroutine fan-out costs more than it saves at these op\n   sizes — the flag targets hardware module parallelism)")
	fmt.Println()
}

func ablationFNCount() {
	fmt.Println("== E5: cost per additional FN (F_source no-ops) ==")
	var prev time.Duration
	for _, count := range []int{1, 2, 4, 8} {
		nd := newNode(dip.MAC2EM)
		h := &dip.Header{HopLimit: 64, Locations: make([]byte, 8)}
		for i := 0; i < count; i++ {
			h.FNs = append(h.FNs, dip.FN{Loc: 0, Len: 32, Key: dip.KeySource})
		}
		pkt, err := dip.BuildPacket(h, nil)
		if err != nil {
			log.Fatal(err)
		}
		d := measure(fmt.Sprintf("fncount/%d", count), nd.runDIP(pkt))
		delta := ""
		if prev > 0 {
			delta = fmt.Sprintf("  (+%v vs previous)", d-prev)
		}
		fmt.Printf("  %d FNs: %v/packet%s\n", count, d, delta)
		prev = d
	}
	fmt.Println()
}

func ablationFIBScale() {
	fmt.Println("== E6: DIP-32 forwarding vs FIB size ==")
	for _, routes := range []int{100, 10_000, 1_000_000} {
		state := dip.NewNodeState()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < routes; i++ {
			plen := 8 + rng.Intn(25)
			key := rng.Uint32() &^ (1<<(32-plen) - 1)
			state.FIB32.AddUint32(key, plen, dip.NextHop{Port: 1})
		}
		state.FIB32.AddUint32(0x0A000000, 8, dip.NextHop{Port: 1})
		reg := dip.NewRouterRegistry(state.OpsConfig())
		nd := &node{engine: core.NewEngine(reg, dip.Limits{}), state: state}
		pkt, _ := dip.BuildPacket(dip.IPv4Profile([4]byte{1, 1, 1, 1}, [4]byte{10, 0, 0, 9}), nil)
		fmt.Printf("  %8d routes: %v/packet\n", routes, measure(fmt.Sprintf("fibscale/%d", routes), nd.runDIP(pkt)))
	}
	fmt.Println()
}

func ablationPISA() {
	fmt.Println("== E7: software engine vs PISA-compiled datapath ==")
	// DIP-32 on both.
	nd := newNode(dip.MAC2EM)
	pkt, _ := dip.BuildPacket(dip.IPv4Profile([4]byte{1, 1, 1, 1}, [4]byte{10, 0, 0, 9}), nil)
	fmt.Printf("  DIP-32 software: %v/packet\n", measure("pisa/software", nd.runDIP(pkt)))

	state := dip.NewNodeState()
	state.FIB32.AddUint32(0x0A000000, 8, dip.NextHop{Port: 1})
	pl, err := dip.CompilePISA(state.OpsConfig())
	if err != nil {
		log.Fatal(err)
	}
	pkt2, _ := dip.BuildPacket(dip.IPv4Profile([4]byte{1, 1, 1, 1}, [4]byte{10, 0, 0, 9}), nil)
	var phv pisa.PHV
	var md pisa.Metadata
	fmt.Printf("  DIP-32 pisa:     %v/packet\n", measure("pisa/pisa", func(n int) {
		for i := 0; i < n; i++ {
			pkt2[3] = 64
			if _, err := pl.Process(pkt2, 0, &phv, &md); err != nil || md.Drop {
				log.Fatalf("pisa: md=%+v err=%v", md, err)
			}
		}
	}))
	fmt.Println("  (the PISA model pays for parser-FSM generality; the hardware it\n   models pays in pipeline stages instead)")
	fmt.Println()
	_ = binary.BigEndian // keep imports symmetrical with fig2 helpers
}

// mixedTraffic replays a realistic five-protocol blend from the workload
// generator through one fully loaded engine and reports aggregate
// throughput — the "one dataplane, every protocol" summary number.
func mixedTraffic() {
	fmt.Println("== mixed traffic: five protocols through one engine ==")
	nd := newNode(dip.MAC2EM)
	sess := nd.session(dip.MAC2EM)
	tr, err := workload.Generate(workload.Spec{
		Weights: map[workload.Protocol]float64{
			workload.ProtoIPv4:   4,
			workload.ProtoIPv6:   2,
			workload.ProtoNDN:    2,
			workload.ProtoOPT:    1,
			workload.ProtoNDNOPT: 1,
		},
		Names:   4096,
		ZipfS:   1.2,
		Session: sess,
		Seed:    1,
	}, 4096)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range []workload.Protocol{workload.ProtoIPv4, workload.ProtoIPv6,
		workload.ProtoNDN, workload.ProtoOPT, workload.ProtoNDNOPT} {
		fmt.Printf("  %-8v %5d packets\n", p, tr.Counts[p])
	}
	var ctx dip.ExecContext
	per := measure("mixed/blend", func(n int) {
		for i := 0; i < n; i++ {
			p := &tr.Packets[i%len(tr.Packets)]
			p.Rearm()
			v, err := dip.ParsePacket(p.Buf)
			if err != nil {
				log.Fatal(err)
			}
			ctx.Reset(v, p.InPort)
			nd.engine.Process(&ctx)
		}
	})
	fmt.Printf("  blended cost: %v/packet (≈ %.2f Mpps single-core)\n\n",
		per, 1e3/float64(per.Nanoseconds()))
}

// rwmuFIB is the pre-RCU FIB design (one RWMutex around a shared trie),
// kept here as the baseline the fiblookup experiment compares against.
type rwmuFIB struct {
	mu   sync.RWMutex
	trie *lpm.BitTrie[fib.NextHop]
}

func (t *rwmuFIB) lookup(key uint32) {
	var k [4]byte
	k[0], k[1], k[2], k[3] = byte(key>>24), byte(key>>16), byte(key>>8), byte(key)
	t.mu.RLock()
	t.trie.Lookup(k[:], 32)
	t.mu.RUnlock()
}

// ablationFIBLookup compares concurrent FIB lookup throughput of the RCU
// snapshot table against the RWMutex baseline it replaced (E15). Workers
// share nothing but the table, the forwarding access pattern.
// journeyOverhead measures what journey tracing costs the forwarding hot
// path: the same DIP-32 forwarding loop with journeys off (the plain
// telemetry recorder every router runs), sampled 1-in-1024 (the production
// setting), and always-on (every packet spanned). The off/sampled gap is
// the per-packet tax of the tap's sampling decision; off must stay 0 allocs/op
// (pinned by TestZeroAllocJourneyTapUnsampled).
func journeyOverhead() {
	fmt.Println("== E17: journey tracing overhead on the forwarding path ==")
	pktFor := func() ([]byte, *node) {
		nd := newNode(dip.MAC2EM)
		pkt, _ := dip.BuildPacket(dip.IPv4Profile([4]byte{1, 1, 1, 1}, [4]byte{10, 0, 0, 9}), nil)
		return pkt, nd
	}

	pkt, nd := pktFor()
	nd.engine.SetRecorder(&telemetry.Metrics{})
	dOff := measure("journey/off", nd.runDIP(pkt))

	pkt, nd = pktFor()
	sink := journey.NewEmitter(4096)
	nd.engine.SetRecorder(journey.NewRouterTap("bench", sink, &telemetry.Metrics{}, 1024, nil))
	dSampled := measure("journey/1in1024", nd.runDIP(pkt))

	pkt, nd = pktFor()
	sink = journey.NewEmitter(4096)
	nd.engine.SetRecorder(journey.NewRouterTap("bench", sink, &telemetry.Metrics{}, 1, nil))
	dAlways := measure("journey/always", nd.runDIP(pkt))

	fmt.Printf("  journeys off:     %v/packet\n", dOff)
	fmt.Printf("  sampled 1-in-1024: %v/packet (+%v)\n", dSampled, dSampled-dOff)
	fmt.Printf("  always-on:        %v/packet (+%v)\n", dAlways, dAlways-dOff)
	fmt.Println()
}

// intOverhead measures the in-band telemetry tax on the forwarding hot path
// (E22): the same DIP-32 loop with no F_tel FN, with an 8-slot telemetry
// region stamped every pass, and with 1-in-1024 edge postcard collection
// (decode + digest + aggregate) on top. The stamped loop resets the
// region's count byte each iteration — without that, the region would hit
// steady-state overflow after eight packets and the number measured would
// be the cheap overflow-bit path, not the 24-byte record write every
// fabric hop actually pays.
func intOverhead() {
	fmt.Println("== E22: in-band telemetry stamping + postcard collection ==")
	telNode := func() *node {
		nd := newNode(dip.MAC2EM)
		reg := dip.NewRouterRegistry(nd.state.OpsConfig())
		reg.MustRegister(extops.NewTelWith(extops.TelConfig{
			HopID: 7,
			Epoch: nd.state.FIB32.Epoch,
		}))
		nd.engine = core.NewEngine(reg, dip.Limits{})
		nd.engine.SetRecorder(&telemetry.Metrics{})
		return nd
	}
	profile := func(slots int) *core.Header {
		h := dip.IPv4Profile([4]byte{1, 1, 1, 1}, [4]byte{10, 0, 0, 9})
		if slots > 0 {
			h = profiles.WithTelemetry(h, slots)
		}
		return h
	}
	stampedPkt := func() ([]byte, []byte) {
		pkt, err := dip.BuildPacket(profile(8), nil)
		if err != nil {
			log.Fatal(err)
		}
		v, err := dip.ParsePacket(pkt)
		if err != nil {
			log.Fatal(err)
		}
		region, _, ok := profiles.TelemetryRegion(v)
		if !ok {
			log.Fatal("stamped packet has no telemetry region")
		}
		return pkt, region
	}
	runStamped := func(nd *node, pkt, region []byte, post func(core.View)) func(int) {
		var ctx dip.ExecContext
		return func(n int) {
			for i := 0; i < n; i++ {
				pkt[3] = 64
				region[0] = 0 // fresh region: stamp slot 0, not the overflow bit
				v, err := dip.ParsePacket(pkt)
				if err != nil {
					log.Fatal(err)
				}
				v.DecHopLimit()
				ctx.Reset(v, 0)
				nd.engine.Process(&ctx)
				if ctx.Verdict == dip.VerdictDrop {
					log.Fatalf("dropped: %v", ctx.Reason)
				}
				if post != nil {
					post(v)
				}
			}
		}
	}

	nd := telNode()
	plain, err := dip.BuildPacket(profile(0), nil)
	if err != nil {
		log.Fatal(err)
	}
	dPlain := measure("int/unstamped", nd.runDIP(plain))

	nd = telNode()
	pkt, region := stampedPkt()
	dStamped := measure("int/stamped8", runStamped(nd, pkt, region, nil))

	nd = telNode()
	pkt, region = stampedPkt()
	collector := inband.NewCollector(inband.Config{})
	var seen int64
	collect := func(v core.View) {
		seen++
		if (seen-1)%1024 != 0 {
			return
		}
		reg, off, ok := profiles.TelemetryRegion(v)
		if !ok {
			return
		}
		hops, overflow, err := extops.DecodeTel(reg)
		if err != nil {
			collector.CountDecodeError()
			return
		}
		collector.Add(inband.Postcard{
			Flow:  inband.FlowOf(v.Locations(), off),
			Node:  "edge",
			Proto: "ipv4",
			Hops:  hops, Overflow: overflow,
		})
	}
	dPostcard := measure("int/postcard1in1024", runStamped(nd, pkt, region, collect))

	ratio := 0.0
	if dPlain > 0 {
		ratio = float64(dStamped) / float64(dPlain)
	}
	st := collector.Stats()
	fmt.Printf("  unstamped:          %v/packet\n", dPlain)
	fmt.Printf("  stamped, 8 slots:   %v/packet (+%v, %.2fx)\n", dStamped, dStamped-dPlain, ratio)
	fmt.Printf("  + postcards 1/1024: %v/packet (+%v)\n", dPostcard, dPostcard-dStamped)
	fmt.Printf("  collector: postcards=%d overflows=%d decode_errors=%d\n",
		st.Postcards, st.Overflows, st.DecodeErrors)
	fmt.Println()
}

func ablationFIBLookup() {
	fmt.Println("== E15: concurrent FIB lookup, RCU snapshots vs RWMutex ==")
	const routes = 10_000
	// Each measurement spawns the worker set, so the default -trials=1000
	// (250 lookups per worker) would be dominated by goroutine spawn and
	// futex wake costs and report noise. Amortize them over a floor of
	// 20000 lookups per round for this experiment only.
	saved := *trials
	if *trials < 20_000 {
		*trials = 20_000
	}
	defer func() { *trials = saved }()
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	rng := rand.New(rand.NewSource(7))
	keys := make([]uint32, routes)
	for i := range keys {
		keys[i] = rng.Uint32()
	}

	fanout := func(look func(uint32)) func(int) {
		return func(n int) {
			per := n / workers
			if per == 0 {
				per = 1
			}
			var wg sync.WaitGroup
			wg.Add(workers)
			for w := 0; w < workers; w++ {
				go func(w int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						look(keys[(w*per+i)%routes])
					}
				}(w)
			}
			wg.Wait()
		}
	}

	rcu := fib.New()
	base := &rwmuFIB{trie: lpm.NewBitTrie[fib.NextHop]()}
	for i, k := range keys {
		rcu.AddUint32(k, 32, fib.NextHop{Port: i & 7})
		var kb [4]byte
		kb[0], kb[1], kb[2], kb[3] = byte(k>>24), byte(k>>16), byte(k>>8), byte(k)
		base.trie.Insert(kb[:], 32, fib.NextHop{Port: i & 7})
	}

	dRCU := measure("fiblookup/rcu", fanout(func(k uint32) { rcu.LookupUint32(k) }))
	dRW := measure("fiblookup/rwmutex", fanout(base.lookup))
	fmt.Printf("  %d workers, %d routes\n", workers, routes)
	fmt.Printf("  rcu:     %v/lookup\n", dRCU)
	fmt.Printf("  rwmutex: %v/lookup\n", dRW)
	if dRCU > 0 {
		fmt.Printf("  speedup: %.2fx\n", float64(dRW)/float64(dRCU))
	}
	fmt.Println()
}

// burstScaling measures the batched run-to-completion dataplane end to end:
// GOMAXPROCS concurrent producers (one per simulated RX queue) feed packets
// through Ingress.Submit/SubmitBurst, the flow-dispatch table pins each flow
// to one forwarding goroutine, and forwarders run bursts to completion. The
// grid is GOMAXPROCS x batch {1, 64}; the claim pinned by benchguard is
// that batching amortizes the per-packet costs (queue lock + futex wake per
// Submit, one pooled context and one seen-counter update per packet)
// into per-burst costs, so batch=64 sustains >=1.5x the packet rate of
// batch=1 on the same producer and forwarder count.
func burstScaling() {
	fmt.Println("== E18: multicore burst scaling, batch=1 vs batch=64 ==")
	// Each round spawns only GOMAXPROCS producer goroutines, but each
	// packet at batch=1 is a full submit/wake/forward cycle; amortize
	// spawn and scheduler noise over a floor of 20000 packets per round
	// for this experiment only.
	saved := *trials
	if *trials < 20_000 {
		*trials = 20_000
	}
	defer func() { *trials = saved }()

	// Distinct source addresses give every packet a distinct FN-locations
	// region, so the dispatch hash spreads flows across all forwarders.
	// Reusing a buffer before it drains is safe here: flow pinning routes
	// both submissions to the same forwarder queue, which processes them
	// sequentially (the hop limit just decrements once per pass).
	const pool = 16384
	pkts := make([][]byte, pool)
	for i := range pkts {
		p, err := dip.BuildPacket(dip.IPv4Profile(
			[4]byte{10, byte(i >> 8), byte(i), 1}, [4]byte{2, 2, 2, 2}), nil)
		if err != nil {
			log.Fatal(err)
		}
		pkts[i] = p
	}

	run := func(procs, batch int) time.Duration {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)

		state := dip.NewNodeState()
		state.FIB32.AddUint32(0, 0, dip.Local)
		r := dip.NewRouter(state.OpsConfig(), dip.RouterOptions{
			LocalDelivery: func([]byte, int) {},
		})
		// Queues deep enough to hold an entire round: producers never hit
		// backpressure, so a round measures pure pipeline work (submit +
		// dispatch + forward) instead of producer/forwarder timing races
		// on a time-shared CPU.
		in := r.ServeGuarded(dip.ServeConfig{
			Workers:   procs,
			Batch:     batch,
			HighDepth: 64,
			LowDepth:  8192,
		})
		defer in.Close()

		// Each producer owns a disjoint slice of the pool (its RX queue's
		// packets), so rearming and resubmission never share buffers
		// across producers. At batch=1 every packet is an individual
		// Submit — per-packet queue lock and wake; at batch=64 producers
		// hand the ingress NIC-style rx windows via SubmitBurst.
		per := pool / procs
		fn := func(n int) {
			// The previous round drained fully, so nothing is in flight
			// and the hop limits can be rearmed in place.
			for _, p := range pkts {
				p[3] = 64
			}
			start := in.Processed()
			each := n / procs
			var wg sync.WaitGroup
			wg.Add(procs)
			for w := 0; w < procs; w++ {
				go func(w int) {
					defer wg.Done()
					own := pkts[w*per : (w+1)*per]
					if batch == 1 {
						for i := 0; i < each; i++ {
							for !in.Submit(own[i%per], w) {
								runtime.Gosched() // safety valve; queues are sized to never fill
							}
						}
						return
					}
					for off := 0; off < each; {
						end := off + batch
						if end > each {
							end = each
						}
						lo, hi := off%per, off%per+(end-off)
						if hi > per {
							hi = per // clip the window at the slice boundary
						}
						chunk := own[lo:hi]
						for len(chunk) > 0 {
							chunk = chunk[in.SubmitBurst(chunk, w):]
							if len(chunk) > 0 {
								runtime.Gosched() // safety valve; queues are sized to never fill
							}
						}
						off += hi - lo
					}
				}(w)
			}
			wg.Wait()
			for in.Processed()-start < int64(procs*each) {
				time.Sleep(20 * time.Microsecond)
			}
		}
		return measure(fmt.Sprintf("burst/batch%d/gmp%d", batch, procs), fn)
	}

	fmt.Printf("%-10s%14s%14s%10s\n", "gomaxprocs", "batch=1", "batch=64", "speedup")
	for _, procs := range []int{1, 2, 4} {
		d1 := run(procs, 1)
		d64 := run(procs, 64)
		speedup := 0.0
		if d64 > 0 {
			speedup = float64(d1) / float64(d64)
		}
		fmt.Printf("%-10d%14v%14v%9.2fx\n", procs, d1, d64, speedup)
	}
	fmt.Println("  speedup = batch1 ns / batch64 ns at equal GOMAXPROCS")
	fmt.Println()
}

// fetchCC runs the E19 fleet comparison: the same congested consumer fleet
// (a shared 4 Mbit/s bottleneck, no cache, every byte contended) fetched
// under the adaptive controllers (AIMD, CUBIC) and the blind fixed-window
// baseline. The table reports goodput, recovery effort, fairness, and
// completion latency; the -json records carry the latency percentiles so
// benchguard can gate future regressions once a baseline exists. The fleet
// runs under netsim virtual time from a fixed seed, so the rows are exactly
// reproducible — wall-clock noise never enters them.
func fetchCC() {
	fmt.Println("== E19: congestion-controlled fetch, adaptive vs blind (fleet) ==")
	base := workload.FleetConfig{
		Consumers:          24,
		ObjectsPerConsumer: 3,
		Objects:            64,
		SegsPerObject:      8,
		SegSize:            1000,
		BottleneckBPS:      4_000_000,
		BottleneckQueue:    10 * time.Millisecond,
		CacheEntries:       -1,
		Horizon:            40 * time.Second,
		Seed:               21,
		MaxRetx:            8,
	}
	fmt.Printf("  %-8s %12s %9s %6s %6s %8s %10s %10s\n",
		"algo", "goodput", "objects", "retx", "cuts", "jain", "p50", "p99")
	for _, row := range []struct {
		label    string
		algo     cc.Algo
		initCwnd int
	}{
		{"aimd", cc.AlgoAIMD, 2},
		{"cubic", cc.AlgoCUBIC, 2},
		{"blind", cc.AlgoBlind, 16},
	} {
		cfg := base
		cfg.CC = cc.Config{Algo: row.algo, InitCwnd: row.initCwnd, MaxCwnd: 64,
			RTT: cc.RTTConfig{InitRTO: 100 * time.Millisecond, MinRTO: 20 * time.Millisecond}}
		fl, err := workload.NewFleet(cfg)
		if err != nil {
			log.Fatal(err)
		}
		res := fl.Run()
		fmt.Printf("  %-8s %9.0fbps %6d/%-2d %6d %6d %8.3f %10v %10v\n",
			row.label, res.GoodputBps, res.ObjectsCompleted,
			res.ObjectsCompleted+res.ObjectsFailed,
			res.Retransmits, res.CwndCuts, res.JainIndex, res.P50, res.P99)
		if *jsonOut != "" {
			for _, rec := range []struct {
				name string
				ns   float64
			}{
				{fmt.Sprintf("fetchcc/%s/p50", row.label), float64(res.P50.Nanoseconds())},
				{fmt.Sprintf("fetchcc/%s/p99", row.label), float64(res.P99.Nanoseconds())},
			} {
				jsonRecords = append(jsonRecords, benchRecord{
					Name: rec.name, NsPerOp: rec.ns, Gomaxprocs: runtime.GOMAXPROCS(0)})
			}
		}
	}
	// Goodput vs offered load: sweep the closed-loop population at fixed
	// AIMD config. The degrade-proportionally claim: delivered bytes track
	// offered bytes (no congestion collapse — retries never eat the link)
	// while completion latency grows with the overload factor and fairness
	// holds.
	fmt.Println("  goodput vs offered load (aimd):")
	fmt.Printf("  %-10s %11s %11s %6s %8s %10s %12s\n",
		"consumers", "offered", "delivered", "retx", "jain", "p50", "p99")
	for _, consumers := range []int{6, 12, 24, 48, 96} {
		cfg := base
		cfg.Consumers = consumers
		cfg.CC = cc.Config{Algo: cc.AlgoAIMD, InitCwnd: 2, MaxCwnd: 64,
			RTT: cc.RTTConfig{InitRTO: 100 * time.Millisecond, MinRTO: 20 * time.Millisecond}}
		fl, err := workload.NewFleet(cfg)
		if err != nil {
			log.Fatal(err)
		}
		res := fl.Run()
		offered := int64(consumers * cfg.ObjectsPerConsumer * cfg.SegsPerObject * cfg.SegSize)
		fmt.Printf("  %-10d %10dkB %10dkB %6d %8.3f %10v %12v\n",
			consumers, offered/1000, res.GoodputBytes/1000,
			res.Retransmits, res.JainIndex, res.P50, res.P99)
	}
	fmt.Println("  (adaptive rows should carry more goodput with fewer retransmits\n   than blind; virtual-time rows are seed-exact, not wall-clock noisy)")
	fmt.Println()
}

// csTier is E20: the tiered content store swept past RAM capacity. The hot
// LRU holds hotCap objects; catalogs of hotCap/2 up to 16x hotCap are
// preloaded (touched so eviction admits them to the cold arena), then a
// fixed-seed uniform request stream measures how the per-tier hit split
// shifts as the catalog outgrows RAM. Two latencies are reported per
// catalog: the hot hit (the forwarder fast path — must stay flat no matter
// how much cold state exists below it) and the full cold cycle
// (pread + checksum verify + hot-tier promotion + displaced eviction),
// which is the off-path cost a parked interest pays.
func csTier() {
	fmt.Println("== E20: tiered content store, catalog sweep past RAM capacity ==")
	const (
		hotCap   = 4096
		shards   = 4
		slotSize = 512
	)
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	fmt.Printf("  %-9s %9s %9s %8s %8s %12s %12s\n",
		"catalog", "hot-hit%", "cold%", "spilled", "errors", "hot ns/op", "cold ns/op")
	for _, catalog := range []int{hotCap / 2, hotCap, 4 * hotCap, 16 * hotCap} {
		hot := cs.NewSharded[uint32](hotCap, shards)
		ts, err := cs.NewTiered(hot, cs.ColdConfig{
			Slots:    catalog + hotCap, // headroom so spills never drop
			SlotSize: slotSize,
			// Readers 0: synchronous mode. RequestCold runs the pread and
			// promotion inline, so every measurement below is deterministic
			// per-op work, not a handoff to a goroutine pool.
		})
		if err != nil {
			log.Fatal(err)
		}
		// Preload with a touch per object: insert-on-second-hit admission
		// only spills entries that were hit after insert.
		for i := 0; i < catalog; i++ {
			name := uint32(0xE2000000 + i)
			ts.Put(name, payload)
			ts.GetHot(name)
		}
		// Fixed-seed uniform stream over the whole catalog: the per-tier
		// split is the capacity story (catalog <= hotCap serves from RAM;
		// beyond it the overflow serves from the arena, never a miss).
		r := rand.New(rand.NewSource(20))
		base := ts.Stats()
		const streamLen = 4096
		for i := 0; i < streamLen; i++ {
			name := uint32(0xE2000000 + r.Intn(catalog))
			if _, ok := ts.GetHot(name); ok {
				continue
			}
			if ts.ColdContains(name) {
				ts.RequestCold(name)
			}
		}
		st := ts.Stats()
		hotHits := st.HotHits - base.HotHits
		coldHits := st.ColdHits - base.ColdHits
		served := float64(hotHits + coldHits)
		hotPct := 100 * float64(hotHits) / served
		coldPct := 100 * float64(coldHits) / served

		// Hot-hit latency: one resident name hammered through GetHot. This
		// is the row benchguard holds flat across catalog sizes — the cold
		// tier must not tax the RAM fast path.
		hotName := uint32(0xE2000000)
		ts.Put(hotName, payload)
		ts.GetHot(hotName)
		hotNs := measure(fmt.Sprintf("cstier/cat%d/hotget", catalog), func(n int) {
			for i := 0; i < n; i++ {
				ts.GetHot(hotName)
			}
		})

		// Cold cycle latency: only meaningful once the catalog has actually
		// spilled. Each op replays a full recovery for a cold-resident name;
		// the promoted copy stays byte-identical to its slot, so steady
		// state is pread + verify + promote with no re-spill write.
		coldCol := "-"
		if catalog > hotCap {
			spilled := catalog - hotCap
			idx := 0
			coldNs := measure(fmt.Sprintf("cstier/cat%d/coldcycle", catalog), func(n int) {
				for i := 0; i < n; i++ {
					ts.RequestCold(uint32(0xE2000000 + idx%spilled))
					idx++
				}
			})
			coldCol = fmt.Sprintf("%d", coldNs.Nanoseconds())
		}
		if *jsonOut != "" {
			// Hit fractions ride the record stream too (NsPerOp holds the
			// dimensionless fraction, as fetchcc does for percentiles).
			jsonRecords = append(jsonRecords, benchRecord{
				Name: fmt.Sprintf("cstier/cat%d/hotratio", catalog), NsPerOp: float64(hotHits) / served,
				Gomaxprocs: runtime.GOMAXPROCS(0)})
		}
		fmt.Printf("  %-9d %8.1f%% %8.1f%% %8d %8d %12d %12s\n",
			catalog, hotPct, coldPct, st.Spilled, st.ReadErrors,
			hotNs.Nanoseconds(), coldCol)
		if err := ts.Close(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("  (hot ns/op must stay flat as the catalog grows 16x past RAM;\n   cold ns/op is the off-path recovery cost parked interests pay)")
	fmt.Println()
}

// churnExperiment is E21: the control-plane scale run. At -churn-scale 1
// it installs 1.05M routes (550k/32-bit, 300k/128-bit, 200k names)
// through batched transactions, then replays eight 20k-operation churn
// storms while concurrent samplers and a burst dataplane read the same
// tables. The claim under test is the RCU FIB's core promise: route churn
// at full control-plane rate must not disturb the read path — the storm
// p99 lookup latency stays within a small factor of the quiescent p99
// (benchguard holds the ratio), commits stay cheap (one pointer store,
// COW path copies amortized per batch), and heap high-water stays bounded.
// The harness's built-in oracle (tables walked against its own bookkeeping
// after the storms) makes a desynchronized run a hard failure, not a
// silently wrong measurement.
func churnExperiment() {
	fmt.Println("== E21: million-route churn under live lookups ==")
	s := *churnScale
	scale := func(n int) int {
		v := int(float64(n) * s)
		if v < 100 {
			v = 100
		}
		return v
	}
	cfg := churn.Config{
		Routes32:   scale(550_000),
		Routes128:  scale(300_000),
		RoutesName: scale(200_000),
		StormOps:   scale(20_000),
		Seed:       21,
		Forward:    true,
		Log: func(format string, args ...any) {
			fmt.Printf("  "+format+"\n", args...)
		},
	}
	res := churn.Run(cfg)
	if !res.OracleOK {
		log.Fatalf("churn oracle failed: %s", res.OracleDiag)
	}
	installPer := float64(res.InstallNs) / float64(res.Installed)
	fmt.Printf("  install: %d routes in %v (%.0fns/route, %d commits, %.0fns/commit)\n",
		res.Installed, time.Duration(res.InstallNs), installPer, res.Commits, res.NsPerCommit)
	fmt.Printf("  storms:  %d ops in %v, heap high-water %dMB, dataplane forwarded %d\n",
		res.StormOpsApplied, time.Duration(res.StormNs), res.HeapHighWater>>20, res.Forwarded)
	fmt.Printf("  lookup latency   %10s %10s\n", "p50", "p99")
	fmt.Printf("    quiescent      %9dns %9dns\n", res.QuiesceP50, res.QuiesceP99)
	fmt.Printf("    under churn    %9dns %9dns   (max %v, %d samples)\n",
		res.StormP50, res.StormP99, time.Duration(res.StormMax), res.Samples)
	fmt.Printf("  jitter ratio (storm p99 / quiesce p99): %.2fx\n", res.JitterRatio)
	if *jsonOut != "" {
		gmp := runtime.GOMAXPROCS(0)
		jsonRecords = append(jsonRecords,
			benchRecord{Name: "churn/install", NsPerOp: installPer,
				BytesPerOp: float64(res.HeapHighWater), Gomaxprocs: gmp},
			benchRecord{Name: "churn/commit", NsPerOp: res.NsPerCommit, Gomaxprocs: gmp},
			benchRecord{Name: "churn/lookup/quiesce-p50", NsPerOp: float64(res.QuiesceP50), Gomaxprocs: gmp},
			benchRecord{Name: "churn/lookup/quiesce-p99", NsPerOp: float64(res.QuiesceP99), Gomaxprocs: gmp},
			benchRecord{Name: "churn/lookup/storm-p50", NsPerOp: float64(res.StormP50), Gomaxprocs: gmp},
			benchRecord{Name: "churn/lookup/storm-p99", NsPerOp: float64(res.StormP99), Gomaxprocs: gmp},
			benchRecord{Name: "churn/jitter", NsPerOp: res.JitterRatio, Gomaxprocs: gmp},
		)
	}
	fmt.Println("  (the gate: churn must not disturb readers — storm p99 stays within a\n   small multiple of quiescent p99; oracle desync is a hard failure)")
	fmt.Println()
}
