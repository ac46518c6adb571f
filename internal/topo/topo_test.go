package topo

import (
	"strings"
	"testing"
	"time"

	"dip/internal/cs"
	"dip/internal/journey"
	"dip/internal/node"
)

const demoTopo = `
# consumer -- R1 -- R2 -- producer, with a cache at R1
router R1 cache=16
router R2
host   C
host   P

link C R1:0
link R1:1 R2:0 2ms
link R2:1 P

name R1 aa000000/8 1
name R2 aa000000/8 1

produce P aa000001 "the bits"
interest C aa000001
interest C aa000001 at 100ms
`

func TestParseAndRunNDNScenario(t *testing.T) {
	tp, err := Parse(strings.NewReader(demoTopo))
	if err != nil {
		t.Fatal(err)
	}
	deliveries := tp.Run()
	var dataToC []Delivery
	for _, d := range deliveries {
		if d.Host == "C" && d.Profile == "data" {
			dataToC = append(dataToC, d)
		}
	}
	if len(dataToC) != 2 {
		t.Fatalf("consumer data deliveries: %+v", deliveries)
	}
	for _, d := range dataToC {
		if d.Payload != "the bits" {
			t.Errorf("payload %q", d.Payload)
		}
	}
	// The second interest (at 100ms) is served from R1's cache: it must
	// arrive much sooner after issue (2ms round trip to R1, not 6ms to P).
	if gap := dataToC[1].At - 100*time.Millisecond; gap > 3*time.Millisecond {
		t.Errorf("cache not used: second delivery %v after issue", gap)
	}
	var report strings.Builder
	tp.Report(&report)
	if !strings.Contains(report.String(), "router R1:") {
		t.Errorf("report:\n%s", report.String())
	}
}

func TestParseIPv4Send(t *testing.T) {
	src := `
router R1
host A
host B
link A R1:0
link R1:1 B
route32 R1 10.0.0.0/8 1
send A ipv4 192.0.2.1 10.0.0.9 "over ip" at 5ms
`
	tp, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	deliveries := tp.Run()
	if len(deliveries) != 1 || deliveries[0].Host != "B" || deliveries[0].Payload != "over ip" {
		t.Fatalf("deliveries: %+v", deliveries)
	}
	if deliveries[0].At < 5*time.Millisecond {
		t.Errorf("scheduled time ignored: %v", deliveries[0].At)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"unknown directive", "frobnicate x"},
		{"router redefined", "router R\nrouter R"},
		{"host redefined", "host H\nhost H"},
		{"link unknown node", "link A:0 B:0"},
		{"link host with port", "host H\nrouter R\nlink H:1 R:0"},
		{"link router without port", "router R\nhost H\nlink R H"},
		{"bad delay", "router R\nhost H\nlink H R:0 soon"},
		{"route unknown router", "route32 R 10.0.0.0/8 1"},
		{"route bad prefix", "router R\nroute32 R 10.0.0.0 1"},
		{"route bad port", "router R\nroute32 R 10.0.0.0/8 x"},
		{"produce unknown host", "produce H aa 1"},
		{"interest unknown host", "interest H aa000001"},
		{"send bad proto", "host H\nsend H ipv6 a b c"},
		{"bad secret", "router R secret=zz"},
		{"bad cache", "router R cache=many"},
		{"bad cscold", "router R cache=4 cscold=lots"},
		{"cscold without cache", "router R cscold=8"},
		{"csslot without cscold", "router R cache=4 csslot=128"},
		{"unknown router option", "router R wings=2"},
		{"bad at", "host H\ninterest H aa000001 at soon"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Parse(strings.NewReader(c.src)); err == nil {
				t.Errorf("accepted:\n%s", c.src)
			}
		})
	}
}

// The DSL adds no checks of its own to a router's options: a misapplied key
// fails with exactly the error node.Spec.Validate gives the equivalent
// diprouter flags.
func TestRouterOptionErrorsAreSpecValidate(t *testing.T) {
	for src, spec := range map[string]node.Spec{
		"router R cache=4 csslot=128": {Cache: 4, CSSlot: 128},
		"router R cscold=8":           {CSCold: 8},
		"router R queue=64":           {Queue: 64},
		"router R csshards=2":         {CSShards: 2},
	} {
		want := spec.Validate()
		if _, err := Parse(strings.NewReader(src)); want == nil || err == nil || !strings.HasSuffix(err.Error(), want.Error()) {
			t.Errorf("%q: Parse error %v, Validate error %v", src, err, want)
		}
	}
}

func TestRouterOptions(t *testing.T) {
	src := `
router R cache=4 secret=00112233445566778899aabbccddeeff hopindex=2 requirepass
`
	tp, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if err := tp.Build(); err != nil {
		t.Fatal(err)
	}
	cfg := tp.routers["R"].node.State.OpsConfig()
	if cfg.ContentStore == nil || cfg.Secret == nil ||
		cfg.HopIndex != 2 || !cfg.RequirePass {
		t.Errorf("options lost: %+v", cfg)
	}
}

// TestBatchedRouterScenario runs the NDN demo with the routers declared
// batched: results must be identical to the unbatched run (the burst
// dataplane changes scheduling granularity, not outcomes), and the queue=
// option must be rejected without batch=.
func TestBatchedRouterScenario(t *testing.T) {
	batched := strings.Replace(demoTopo, "router R1 cache=16", "router R1 cache=16 batch=64 queue=128", 1)
	batched = strings.Replace(batched, "router R2\n", "router R2 batch=8\n", 1)
	tp, err := Parse(strings.NewReader(batched))
	if err != nil {
		t.Fatal(err)
	}
	deliveries := tp.Run()
	if tp.routers["R1"].node.Ingress == nil || tp.routers["R2"].node.Ingress == nil {
		t.Fatal("batch= did not install an ingress")
	}
	var dataToC []Delivery
	for _, d := range deliveries {
		if d.Host == "C" && d.Profile == "data" {
			dataToC = append(dataToC, d)
		}
	}
	if len(dataToC) != 2 {
		t.Fatalf("consumer data deliveries under batching: %+v", deliveries)
	}
	if gap := dataToC[1].At - 100*time.Millisecond; gap > 3*time.Millisecond {
		t.Errorf("cache not used under batching: second delivery %v after issue", gap)
	}

	if _, err := Parse(strings.NewReader("router R queue=64\n")); err == nil {
		t.Error("queue= without batch= accepted")
	}
}

// TestColdTierScenario drives the cscold= DSL end to end in synchronous
// mode: a 2-entry hot tier forces an admitted object out to the cold
// arena, and a later interest for it is served from R1's disk tier — a
// local 2ms round trip, not the 6ms producer path — via the Schedule(0)
// re-injection event, with the cs-cold journey span attached.
func TestColdTierScenario(t *testing.T) {
	src := `
router R1 cache=2 cscold=16 csslot=256
router R2
host   C
host   P

link C R1:0
link R1:1 R2:0 2ms
link R2:1 P

name R1 aa000000/8 1
name R2 aa000000/8 1

produce P aa000001 "the one"
produce P aa000002 "the two"
produce P aa000003 "the three"

interest C aa000001
interest C aa000001 at 20ms
interest C aa000002 at 40ms
interest C aa000002 at 60ms
interest C aa000003 at 80ms
interest C aa000001 at 200ms
`
	// The 20ms re-request touches aa000001 in the hot tier, so when the
	// aa000003 insert at ~83ms overflows cache=2 it is the LRU *and*
	// admissible: insert-on-second-hit spills it to the arena. The 200ms
	// interest then finds it only in the cold index.
	tp, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	jc := tp.EnableJourneys(1)
	deliveries := tp.Run()

	var dataToC []Delivery
	for _, d := range deliveries {
		if d.Host == "C" && d.Profile == "data" {
			dataToC = append(dataToC, d)
		}
	}
	if len(dataToC) != 6 {
		t.Fatalf("consumer data deliveries: %+v", deliveries)
	}
	last := dataToC[len(dataToC)-1]
	if last.Payload != "the one" {
		t.Errorf("cold-served payload %q", last.Payload)
	}
	// Served from R1's arena: the consumer sees a local round trip (~2ms),
	// not the 6ms path through R2 to the producer.
	if gap := last.At - 200*time.Millisecond; gap > 3*time.Millisecond {
		t.Errorf("cold tier not used: final delivery %v after issue", gap)
	}

	st, ok := tp.TierStats("R1")
	if !ok {
		t.Fatal("TierStats: R1 has no cold tier")
	}
	if st.Spilled < 1 || st.ColdHits < 1 || st.Reinjected != 1 || st.ReadErrors != 0 {
		t.Errorf("tier stats: %+v", st)
	}

	// The re-injection event must carry a cs-cold span on R1, stitched
	// into the recovered data packet's journey.
	found := false
	for _, j := range jc.Journeys() {
		for _, sp := range j.Spans {
			if sp.Kind == journey.SpanCSCold && sp.Node == "R1" {
				found = true
			}
		}
	}
	if !found {
		t.Error("no cs-cold span recorded for the cold read")
	}

	tp.Close() // idempotent with the deferred close
}

func TestTokenize(t *testing.T) {
	got := tokenize(`produce P aa "two words"  tail`)
	want := []string{"produce", "P", "aa", "two words", "tail"}
	if len(got) != len(want) {
		t.Fatalf("got %q", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q", i, got[i])
		}
	}
	// Unterminated quote: rest of line becomes one token.
	got = tokenize(`a "unterminated rest`)
	if len(got) != 2 || got[1] != "unterminated rest" {
		t.Errorf("got %q", got)
	}
}

// A sampled run turns a scenario into a counter time series: a burst of
// IPv4 sends must appear as per-interval received deltas at the right
// ticks, and the series must reconcile with the final totals.
func TestRunSampledTimeSeries(t *testing.T) {
	const burstTopo = `
router R1
host   H1
host   H2
link H1 R1:0
link R1:1 H2
route32 R1 10.0.0.0/8 1

send H1 ipv4 1.1.1.1 10.0.0.9 "a" at 1ms
send H1 ipv4 1.1.1.1 10.0.0.9 "b" at 2ms
send H1 ipv4 1.1.1.1 10.0.0.9 "c" at 25ms
`
	tp, err := Parse(strings.NewReader(burstTopo))
	if err != nil {
		t.Fatal(err)
	}
	deliveries, series := tp.RunSampled(10 * time.Millisecond)
	if len(deliveries) != 3 {
		t.Fatalf("deliveries: %+v", deliveries)
	}
	if len(series) < 3 {
		t.Fatalf("only %d samples for a 25ms scenario at 10ms intervals", len(series))
	}
	if series[0].At != 0 || series[0].Routers["R1"].Received != 0 {
		t.Fatalf("missing zero baseline: %+v", series[0])
	}
	// Interval (0,10ms]: the 1ms and 2ms packets; (20ms,30ms]: the 25ms one.
	d1 := series[1].Routers["R1"].Delta(series[0].Routers["R1"])
	if d1.Received != 2 || d1.Forwarded != 2 {
		t.Errorf("first interval delta %+v, want 2 received/forwarded", d1)
	}
	last := series[len(series)-1].Routers["R1"]
	if last.Received != 3 || last.Forwarded != 3 {
		t.Errorf("final sample %+v, want 3 received/forwarded", last)
	}
	// Ticks are regular interval boundaries, monotone, with monotone counts.
	for i := 1; i < len(series); i++ {
		if series[i].At != time.Duration(i)*10*time.Millisecond {
			t.Errorf("sample %d at %v, want a 10ms boundary", i, series[i].At)
		}
		if series[i].Routers["R1"].Received < series[i-1].Routers["R1"].Received {
			t.Error("received count not monotone across samples")
		}
	}
}

// With a down window on the consumer link, the time series localizes the
// loss: dropped-in-flight packets show up only in the window's intervals.
func TestRunSampledLocalizesDownWindow(t *testing.T) {
	const downTopo = `
router R1
host   H1
host   H2
link H1 R1:0 1ms down=5ms-15ms seed=3
link R1:1 H2
route32 R1 10.0.0.0/8 1

send H1 ipv4 1.1.1.1 10.0.0.9 "early" at 1ms
send H1 ipv4 1.1.1.1 10.0.0.9 "lost" at 8ms
send H1 ipv4 1.1.1.1 10.0.0.9 "late" at 20ms
`
	tp, err := Parse(strings.NewReader(downTopo))
	if err != nil {
		t.Fatal(err)
	}
	deliveries, series := tp.RunSampled(10 * time.Millisecond)
	if len(deliveries) != 2 {
		t.Fatalf("want the 8ms send eaten by the down window: %+v", deliveries)
	}
	// The router never received the lost packet, so its receive deltas are
	// 1 in the first interval and 1 after the link healed — never 2.
	for i := 1; i < len(series); i++ {
		d := series[i].Routers["R1"].Delta(series[i-1].Routers["R1"])
		if d.Received > 1 {
			t.Errorf("interval ending %v received %d packets through a down link", series[i].At, d.Received)
		}
	}
	if final := series[len(series)-1].Routers["R1"]; final.Received != 2 {
		t.Errorf("router received %d total, want 2 (one eaten)", final.Received)
	}
}

// TierStats returns the named router's two-tier content-store snapshot,
// or ok=false when it has no cold tier (no cscold= option) or the scenario
// has not started.
func (t *Topology) TierStats(router string) (cs.TierStats, bool) {
	rn, ok := t.routers[router]
	if !ok || rn.node == nil || rn.spec.CSCold == 0 {
		return cs.TierStats{}, false
	}
	return rn.node.State.ContentStore.Stats(), true
}
