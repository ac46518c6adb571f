package export

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"dip/internal/bootstrap"
	"dip/internal/cc"
	"dip/internal/core"
	"dip/internal/extops"
	"dip/internal/fib"
	"dip/internal/host"
	"dip/internal/inband"
	"dip/internal/netsim"
	"dip/internal/profiles"
	"dip/internal/telemetry"
	"dip/internal/trace"
)

func scrapeSource(t *testing.T) (Source, *telemetry.Metrics, *trace.Recorder) {
	t.Helper()
	m := &telemetry.Metrics{}
	tr := trace.NewRecorder(m, 1, 8, nil, nil)
	// What a forwarder hands Metrics: three timed executions at EndPacket,
	// then one fold of the tally that counted them, an untimed packet's two
	// F_PIT executions (counted, not in the histogram), and three verdicts.
	var tally core.Tally
	var ctx core.ExecContext
	for _, s := range []core.Step{{Key: core.KeyFIB, Ns: 300}, {Key: core.KeyFIB, Ns: 5000}, {Key: core.KeyPIT, Ns: 1000}} {
		ctx.Obs.N, ctx.Obs.Timed, ctx.Obs.Steps[0] = 1, true, s
		m.EndPacket(&ctx)
		tally.CountOp(s.Key)
	}
	tally.CountOp(core.KeyPIT)
	tally.CountOp(core.KeyPIT)
	tally.CountVerdict(core.VerdictForward)
	tally.CountVerdict(core.VerdictDeliver)
	tally.CountDrop(core.DropNoRoute)
	m.Fold(&tally)
	m.RecordEvent(telemetry.EventRetransmit)
	return Source{Node: "r1", Metrics: m, Trace: tr}, m, tr
}

// parsePromText validates the exposition line grammar and returns the
// samples as metric{labels} → value.
func parsePromText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	for i, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d has no value separator: %q", i+1, line)
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d value %q: %v", i+1, valStr, err)
		}
		name := key
		if br := strings.IndexByte(key, '{'); br >= 0 {
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("line %d has unbalanced label braces: %q", i+1, line)
			}
			name = key[:br]
		}
		for _, r := range name {
			if !(r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')) {
				t.Fatalf("line %d metric name %q has invalid rune %q", i+1, name, r)
			}
		}
		if _, dup := samples[key]; dup {
			t.Fatalf("duplicate sample %q", key)
		}
		samples[key] = val
	}
	return samples
}

func TestWriteMetricsRendersAllFamilies(t *testing.T) {
	src, _, _ := scrapeSource(t)
	var b strings.Builder
	src.WriteMetrics(&b)
	samples := parsePromText(t, b.String())

	for key, want := range map[string]float64{
		`dip_packets_received_total{node="r1"}`:                    3,
		`dip_packets_total{node="r1",verdict="forward"}`:           1,
		`dip_packets_total{node="r1",verdict="deliver"}`:           1,
		`dip_packets_total{node="r1",verdict="drop"}`:              1,
		`dip_drops_total{node="r1",reason="no-route"}`:             1,
		`dip_events_total{node="r1",event="retransmit"}`:           1,
		`dip_op_executions_total{node="r1",op="F_FIB"}`:            2,
		`dip_op_latency_ns_count{node="r1",op="F_FIB"}`:            2,
		`dip_op_latency_ns_bucket{node="r1",op="F_FIB",le="+Inf"}`: 2,
		// The histogram is over timed executions; the counter is exact.
		`dip_op_executions_total{node="r1",op="F_PIT"}`:            3,
		`dip_op_latency_ns_count{node="r1",op="F_PIT"}`:            1,
		`dip_op_latency_ns_bucket{node="r1",op="F_PIT",le="+Inf"}`: 1,
		`dip_op_latency_ns_sum{node="r1",op="F_PIT"}`:              1000,
		`dip_trace_sample_every{node="r1"}`:                        1,
		`dip_trace_ring_records{node="r1"}`:                        8,
	} {
		if got, ok := samples[key]; !ok {
			t.Errorf("missing sample %s", key)
		} else if got != want {
			t.Errorf("%s = %g, want %g", key, got, want)
		}
	}

	// Histogram buckets are cumulative and le edges are the inclusive log2
	// upper bounds: 300ns lands in le="511", 5µs in a later bucket.
	b511 := `dip_op_latency_ns_bucket{node="r1",op="F_FIB",le="511"}`
	if got := samples[b511]; got != 1 {
		t.Errorf("%s = %g, want 1 (300ns sample)", b511, got)
	}
	var prev float64
	for bkt := 0; bkt < telemetry.HistBuckets; bkt++ {
		key := `dip_op_latency_ns_bucket{node="r1",op="F_FIB",le="` +
			strconv.FormatInt(int64(telemetry.BucketUpper(bkt)), 10) + `"}`
		if got, ok := samples[key]; ok {
			if got < prev {
				t.Fatalf("histogram not cumulative at %s: %g < %g", key, got, prev)
			}
			prev = got
		}
	}
}

func TestWriteMetricsOmitsAbsentSubsystems(t *testing.T) {
	var b strings.Builder
	Source{Node: "bare"}.WriteMetrics(&b)
	if out := b.String(); out != "" {
		t.Fatalf("empty source rendered %d bytes:\n%s", len(out), out)
	}
}

func TestLabelEscaping(t *testing.T) {
	m := &telemetry.Metrics{}
	m.CountVerdict(core.VerdictForward)
	var b strings.Builder
	Source{Node: `wei"rd\node` + "\n", Metrics: m}.WriteMetrics(&b)
	want := `node="wei\"rd\\node\n"`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("output lacks escaped label %s:\n%s", want, b.String())
	}
}

func TestHandlerMetricsEndpoint(t *testing.T) {
	src, _, _ := scrapeSource(t)
	srv := httptest.NewServer(src.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := parsePromText(t, string(body))
	if len(samples) == 0 {
		t.Fatal("scrape returned no samples")
	}
}

func TestHandlerTraceEndpoint(t *testing.T) {
	src, _, _ := scrapeSource(t)
	srv := httptest.NewServer(src.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /trace: %s", resp.Status)
	}
	// Ring is empty (no packets processed) so the dump is empty but served.
	if len(body) != 0 {
		t.Fatalf("empty ring dumped %q", body)
	}

	// Tracing disabled → explanatory comment, still dipdump-safe ('#').
	srv2 := httptest.NewServer(Source{}.Handler())
	defer srv2.Close()
	resp2, err := http.Get(srv2.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !strings.HasPrefix(string(body2), "#") {
		t.Fatalf("disabled-trace body is not a comment: %q", body2)
	}
}

func TestHandlerPprofEndpoint(t *testing.T) {
	src, _, _ := scrapeSource(t)
	srv := httptest.NewServer(src.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/: %s", resp.Status)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "goroutine") {
		t.Fatal("pprof index does not list profiles")
	}
}

func TestServeBindsAndCloses(t *testing.T) {
	src, _, _ := scrapeSource(t)
	addr, closeFn, err := Serve("127.0.0.1:0", src)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err := closeFn(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr.String() + "/metrics"); err == nil {
		t.Fatal("listener still serving after close")
	}
}

// The dip_fetch_* family renders fetcher counters and the congestion
// controller's live state from a real SegFetcher.
func TestWriteMetricsFetchFamily(t *testing.T) {
	sim := netsim.New()
	var f *host.SegFetcher
	f = host.NewSegFetcher(sim, func(pkt []byte) {
		v, _ := core.ParseView(pkt)
		name, _ := host.InterestName(v)
		reply, err := host.BuildPacket(profiles.NDNData(name), []byte("pay"))
		if err != nil {
			t.Fatal(err)
		}
		sim.Schedule(2*time.Millisecond, func() { f.HandleData(reply) })
	}, host.SegConfig{})
	if err := f.FetchObject(0xAA001000, 5); err != nil {
		t.Fatal(err)
	}
	sim.Run()

	src := Source{
		Node:    "c1",
		Fetch:   f.Stats,
		FetchCC: func() cc.Snapshot { return f.CC() },
	}
	var b strings.Builder
	src.WriteMetrics(&b)
	samples := parsePromText(t, b.String())

	if got := samples[`dip_fetch_completed_total{node="c1"}`]; got != 5 {
		t.Errorf("completed = %g, want 5", got)
	}
	if got := samples[`dip_fetch_pending{node="c1"}`]; got != 0 {
		t.Errorf("pending = %g, want 0", got)
	}
	if got := samples[`dip_fetch_retransmits_total{node="c1"}`]; got != 0 {
		t.Errorf("retransmits = %g", got)
	}
	if got := samples[`dip_fetch_deadletter_total{node="c1"}`]; got != 0 {
		t.Errorf("deadletters = %g", got)
	}
	if got := samples[`dip_fetch_cwnd{node="c1",algo="aimd"}`]; got < 2 {
		t.Errorf("cwnd = %g, want ≥ initial window", got)
	}
	if got := samples[`dip_fetch_srtt_ns{node="c1"}`]; got <= 0 {
		t.Errorf("srtt = %g, want > 0 after clean samples", got)
	}
	if got := samples[`dip_fetch_rto_ns{node="c1"}`]; got <= 0 {
		t.Errorf("rto = %g", got)
	}
	if _, ok := samples[`dip_fetch_cwnd_cuts_total{node="c1"}`]; !ok {
		t.Error("cwnd cuts sample missing")
	}
}

func TestWriteMetricsRouteFamily(t *testing.T) {
	// Two speakers joined by a synchronous in-memory link: A originates a
	// route, B learns it, and B's scrape must show the exchange.
	fibB := fib.New()
	var a, b *bootstrap.Speaker
	now := func() int64 { return 0 }
	a = bootstrap.NewSpeaker(bootstrap.SpeakerConfig{Name: "A", Now: now})
	b = bootstrap.NewSpeaker(bootstrap.SpeakerConfig{Name: "B", FIB32: fibB, Now: now})
	a.AddNeighbor(0, func(msg []byte) { b.Handle(msg, 0) })
	b.AddNeighbor(0, func(msg []byte) { a.Handle(msg, 0) })
	a.Originate(bootstrap.Entry32(0x0A000000, 8, 0), fib.NextHop{Port: 1})
	a.Refresh()
	if err := b.Handle([]byte{0xFF, 0xFF}, 0); err == nil {
		t.Fatal("junk message accepted")
	}

	src := Source{Node: "r2", Routes: b.Stats}
	var sb strings.Builder
	src.WriteMetrics(&sb)
	samples := parsePromText(t, sb.String())

	if got := samples[`dip_route_rib_entries{node="r2"}`]; got != 1 {
		t.Errorf("rib entries = %g, want 1", got)
	}
	if got := samples[`dip_route_messages_total{node="r2",type="advertise",dir="recv"}`]; got < 1 {
		t.Errorf("advertises recv = %g, want >= 1", got)
	}
	if got := samples[`dip_route_changes_total{node="r2",cause="installed"}`]; got != 1 {
		t.Errorf("installed = %g, want 1", got)
	}
	if got := samples[`dip_route_commits_total{node="r2"}`]; got != 1 {
		t.Errorf("commits = %g, want 1", got)
	}
	if got := samples[`dip_route_malformed_total{node="r2"}`]; got != 1 {
		t.Errorf("malformed = %g, want 1", got)
	}
	if got := samples[`dip_route_local_entries{node="r2"}`]; got != 0 {
		t.Errorf("local entries = %g, want 0", got)
	}
}

func TestWriteMetricsINTFamily(t *testing.T) {
	// Feed a collector a reroute: two postcards over A→B, then one over
	// A→C with a congested, microbursting hop.
	c := inband.NewCollector(inband.Config{
		MicroburstDepth: 10,
		HopName: func(id uint32) string {
			return map[uint32]string{1: "A", 2: "B", 3: "C"}[id]
		},
	})
	ab := []extops.HopRecord{
		{HopID: 1, TimestampUs: 1000},
		{HopID: 2, TimestampUs: 2000, QueueDepth: 3},
	}
	c.Add(inband.Postcard{Flow: 7, At: 1, Hops: ab})
	c.Add(inband.Postcard{Flow: 7, At: 2, Hops: ab})
	c.Add(inband.Postcard{Flow: 7, At: 3, Hops: []extops.HopRecord{
		{HopID: 1, TimestampUs: 5000},
		{HopID: 3, TimestampUs: 9000, QueueDepth: 12, Flags: extops.TelFlagCongested},
	}})

	src := Source{Node: "e1", INT: c.Stats}
	var sb strings.Builder
	src.WriteMetrics(&sb)
	samples := parsePromText(t, sb.String())

	if got := samples[`dip_int_postcards_total{node="e1"}`]; got != 3 {
		t.Errorf("postcards = %g, want 3", got)
	}
	if got := samples[`dip_int_path_changes_total{node="e1"}`]; got != 1 {
		t.Errorf("path changes = %g, want 1", got)
	}
	if got := samples[`dip_int_flows{node="e1"}`]; got != 1 {
		t.Errorf("flows = %g, want 1", got)
	}
	if got := samples[`dip_int_microbursts_total{node="e1"}`]; got != 1 {
		t.Errorf("microbursts = %g, want 1", got)
	}
	// A→B saw two 1ms transits, A→C one 4ms transit.
	if got := samples[`dip_int_link_latency_ns_sum{node="e1",from="A",to="B"}`]; got != 2_000_000 {
		t.Errorf("A->B latency sum = %g, want 2ms", got)
	}
	if got := samples[`dip_int_link_latency_ns_count{node="e1",from="A",to="C"}`]; got != 1 {
		t.Errorf("A->C transit count = %g, want 1", got)
	}
	if got := samples[`dip_int_link_latency_ns_bucket{node="e1",from="A",to="C",le="+Inf"}`]; got != 1 {
		t.Errorf("A->C +Inf bucket = %g, want 1", got)
	}
	if got := samples[`dip_int_hop_records_total{node="e1",hop="A"}`]; got != 3 {
		t.Errorf("hop A records = %g, want 3", got)
	}
	if got := samples[`dip_int_hop_congested_total{node="e1",hop="C"}`]; got != 1 {
		t.Errorf("hop C congested = %g, want 1", got)
	}
	if got := samples[`dip_int_hop_queue_depth_max{node="e1",hop="C"}`]; got != 12 {
		t.Errorf("hop C queue max = %g, want 12", got)
	}

	// Absent INT source renders no dip_int_* series at all.
	var none strings.Builder
	Source{Node: "e1"}.WriteMetrics(&none)
	if strings.Contains(none.String(), "dip_int_") {
		t.Error("dip_int_* rendered without an INT source")
	}
}
