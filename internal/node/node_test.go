package node

import (
	"bytes"
	"fmt"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dip/internal/core"
	"dip/internal/extops"
	"dip/internal/guard"
	"dip/internal/host"
	"dip/internal/journey"
	"dip/internal/netsim"
	"dip/internal/pit"
	"dip/internal/profiles"
	"dip/internal/router"
	"dip/internal/telemetry"
)

var familyRE = regexp.MustCompile(`(?m)^dip_[a-zA-Z0-9_]*`)

func families(n *Node) []string {
	var buf bytes.Buffer
	n.MetricsSource().WriteMetrics(&buf)
	set := map[string]bool{}
	for _, f := range familyRE.FindAllString(buf.String(), -1) {
		set[f] = true
	}
	out := make([]string, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// TestMetricsSource scrapes a minimal node (no cache, speaker or INT: the
// exporter's interface fields must be nil, not typed nils) and a full one,
// whose series families must be exactly what diprouter exported for the
// same flags before node.Build existed (an idle scrape of PR 12's binary
// with -cache -cscold -csshards -pitperport -pitshards -workers -admit-port
// -speaker -int-every -trace-every -journey-every -secret; -trace-every
// alone now also feeds /journeys).
func TestMetricsSource(t *testing.T) {
	min, err := Build(Spec{Name: "min"}, WallEnv(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer min.Close()
	if got := families(min); len(got) == 0 {
		t.Error("minimal node exported nothing")
	}

	full, err := Build(Spec{
		Name:     "full",
		Secret:   bytes.Repeat([]byte{0x11}, 16),
		Routes32: []Route{{Prefix: []byte{10, 0, 0, 0}, Len: 8, Port: 0}},
		Names:    []Route{{Prefix: []byte{0xAA, 0, 0, 0}, Len: 8, Port: 1}},
		Cache:    16, CSCold: 32, CSShards: 2, PITPerPort: 64, PITShards: 4,
		Workers: 2, AdmitPort: guard.Rate{PerSec: 1e5, Burst: 1e3},
		Speaker: true, SpeakerRefresh: 5 * time.Second,
		IntEvery: 1, TraceEvery: 1,
	}, WallEnv(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	want := strings.Fields(`
		dip_cs_admission_filtered_total dip_cs_bytes dip_cs_cold_read_errors_total
		dip_cs_cold_read_ns_bucket dip_cs_cold_read_ns_count dip_cs_cold_read_ns_sum
		dip_cs_cold_slots dip_cs_entries dip_cs_pending_cold_reads
		dip_cs_pending_rejected_total dip_cs_reinjected_total dip_cs_spill_dropped_total
		dip_cs_spilled_total dip_cs_tier_hits_total dip_cs_tier_misses_total
		dip_guard_admit_rejected_total dip_guard_processed_total dip_guard_quarantined_total
		dip_guard_queue_capacity dip_guard_queue_depth dip_guard_shed_total dip_guard_workers
		dip_guard_workers_stalled dip_int_decode_errors_total dip_int_expected_mismatch_total
		dip_int_flows dip_int_loops_total dip_int_microbursts_total dip_int_overflows_total
		dip_int_path_changes_total dip_int_postcards_total dip_journey_spans_dropped_total
		dip_journey_spans_total dip_packets_received_total dip_packets_total dip_pit_entries
		dip_pit_expired_total dip_pit_portcap_rejected_total dip_route_changes_total
		dip_route_commits_total dip_route_local_entries dip_route_malformed_total
		dip_route_messages_total dip_route_noop_batches_total dip_route_rib_entries
		dip_route_stale_total dip_trace_overwritten_total dip_trace_ring_records
		dip_trace_sample_every dip_trace_sampled_total dip_trace_seen_total`)
	if got := families(full); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("full node families:\n got %v\nwant %v", got, want)
	}
}

// TestColdReinjectPath drives the cold tier through Build under the netsim
// Env: a twice-requested object is evicted from the 2-entry hot tier into
// the arena, a later interest for it parks in the PIT, and the synchronous
// read's re-inject arrives as its own event — carrying, because IntEvery is
// on, a fresh F_tel region this hop has stamped — out of the asking port.
func TestColdReinjectPath(t *testing.T) {
	sim := netsim.New()
	env := SimEnv(sim)
	var logged []string
	env.Log = func(f string, a ...any) { logged = append(logged, fmt.Sprintf(f, a...)) }
	n, err := Build(Spec{
		Name:  "cold",
		Names: []Route{{Prefix: []byte{0xAA, 0, 0, 0}, Len: 8, Port: 1}},
		Cache: 2, CSCold: 8, IntEvery: 1, HopID: 7,
	}, env)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var toConsumer [][]byte
	n.AttachPort(router.PortFunc(func(pkt []byte) { toConsumer = append(toConsumer, append([]byte(nil), pkt...)) }), false)
	n.AttachPort(router.PortFunc(func([]byte) {}), false)
	handle := func(h *core.Header, payload string, inPort int) {
		t.Helper()
		pkt, err := host.BuildPacket(h, []byte(payload))
		if err != nil {
			t.Fatal(err)
		}
		n.Handle(pkt, inPort)
		sim.RunUntil(sim.Now()) // the deferred events, not the PIT sweep
	}
	fetch := func(name uint32, payload string) {
		handle(profiles.NDNInterest(name), "", 0)
		handle(profiles.NDNData(name), payload, 1)
	}
	fetch(0xAA000001, "the one")
	handle(profiles.NDNInterest(0xAA000001), "", 0) // hot hit: marks it admissible
	fetch(0xAA000002, "the two")
	fetch(0xAA000003, "the three") // overflows the hot tier; "the one" spills
	toConsumer = nil
	handle(profiles.NDNInterest(0xAA000001), "", 0)

	if st := n.State.ContentStore.Stats(); st.ColdHits != 1 || st.Reinjected != 1 {
		t.Fatalf("tier stats: %+v", st)
	}
	if len(toConsumer) != 1 {
		t.Fatalf("%d packets to the consumer, want the re-injected data", len(toConsumer))
	}
	v, err := core.ParseView(toConsumer[0])
	if err != nil || string(v.Payload()) != "the one" {
		t.Fatalf("re-injected packet: payload %q err %v", v.Payload(), err)
	}
	region, _, ok := profiles.TelemetryRegion(v)
	if !ok {
		t.Fatal("re-injected packet carries no F_tel region")
	}
	if hops, _, err := extops.DecodeTel(region); err != nil || len(hops) != 1 || hops[0].HopID != 7 {
		t.Errorf("F_tel region: hops %+v err %v", hops, err)
	}
	if got := n.Spec.IntSlots; got != 8 {
		t.Errorf("IntSlots default = %d, want 8", got)
	}
	if len(logged) == 0 || !strings.Contains(logged[len(logged)-1], "cold read 0xaa000001 re-injected") {
		t.Errorf("log: %q", logged)
	}
}

// pitTTLs are the Spec lifetimes the PIT tests run under: the default, and
// the chaos rigs' short one.
var pitTTLs = []struct{ spec, want time.Duration }{{0, pit.DefaultTTL}, {40 * time.Millisecond, 40 * time.Millisecond}}

// TestPITAgesInEnvTime: the PIT runs on the Env's clock with the Spec's
// TTL, so a re-request for a name inside the TTL aggregates onto the
// unanswered interest's entry, and one past it (in virtual time; no wall
// time passes) finds the entry expired and is forwarded again.
func TestPITAgesInEnvTime(t *testing.T) {
	for _, ttl := range pitTTLs {
		t.Run(fmt.Sprint(ttl.spec), func(t *testing.T) {
			sim := netsim.New()
			n, err := Build(Spec{Name: "aging", PITTTL: ttl.spec, Names: []Route{{Prefix: []byte{0xAA, 0, 0, 0}, Len: 8, Port: 1}}}, SimEnv(sim))
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			if n.Spec.PITTTL != ttl.want {
				t.Fatalf("Spec.PITTTL = %v after Build, want %v", n.Spec.PITTTL, ttl.want)
			}
			n.AttachPort(router.PortFunc(func([]byte) {}), false)
			n.AttachPort(router.PortFunc(func([]byte) {}), false)
			interest, err := host.BuildPacket(profiles.NDNInterest(0xAA000001), nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, at := range []time.Duration{0, ttl.want / 2, 2 * ttl.want} {
				sim.Schedule(at, func() { n.Handle(append([]byte(nil), interest...), 0) })
			}
			sim.Run()
			if snap := n.Metrics.Snapshot(); snap.Forwarded != 2 || snap.Absorbed != 1 {
				t.Fatalf("forwarded=%d absorbed=%d, want the re-request inside the TTL absorbed and the one past it forwarded",
					snap.Forwarded, snap.Absorbed)
			}
		})
	}
}

// TestPITSweptOnEnvTimer: unanswered interests are swept on the Env's timer
// every Spec TTL, within one TTL of their expiry, and every removal is
// counted in the metrics and on the scrape.
func TestPITSweptOnEnvTimer(t *testing.T) {
	for _, ttl := range pitTTLs {
		t.Run(fmt.Sprint(ttl.spec), func(t *testing.T) {
			const unanswered = 5
			sim := netsim.New()
			n, err := Build(Spec{Name: "sweep", PITTTL: ttl.spec, Names: []Route{{Prefix: []byte{0xAA, 0, 0, 0}, Len: 8, Port: 1}}}, SimEnv(sim))
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			n.AttachPort(router.PortFunc(func([]byte) {}), false)
			n.AttachPort(router.PortFunc(func([]byte) {}), false)
			for i := uint32(0); i < unanswered; i++ {
				pkt, err := host.BuildPacket(profiles.NDNInterest(0xAA000001+i), nil)
				if err != nil {
					t.Fatal(err)
				}
				n.Handle(pkt, 0)
			}
			if got := n.State.PIT.Len(); got != unanswered {
				t.Fatalf("PIT holds %d entries before the TTL, want %d", got, unanswered)
			}
			sim.RunUntil(ttl.want - time.Nanosecond)
			if got := n.State.PIT.Len(); got != unanswered {
				t.Fatalf("PIT holds %d entries just before the TTL, want %d", got, unanswered)
			}
			sim.RunUntil(2 * ttl.want) // the TTL, then one sweep past it
			if got, expired := n.State.PIT.Len(), n.State.PIT.ExpiredTotal(); got != 0 || expired != unanswered {
				t.Fatalf("after the sweep: Len=%d ExpiredTotal=%d, want 0 and %d", got, expired, unanswered)
			}
			if got := n.Metrics.Event(telemetry.EventPITExpired); got != unanswered {
				t.Errorf("pit-expired events = %d, want %d", got, unanswered)
			}
			var buf bytes.Buffer
			n.MetricsSource().WriteMetrics(&buf)
			if want := fmt.Sprintf("dip_pit_expired_total{node=\"sweep\"} %d\n", unanswered); !strings.Contains(buf.String(), want) {
				t.Errorf("scrape lacks %q", want)
			}
			if sim.Run(); sim.Pending() != 0 {
				t.Error("the sweep keeps the simulation from draining")
			}
		})
	}
}

// TestTracedNodeSamplesOnce: a traced node runs one sampler, and every
// instant it stamps is a reading of the Env's one clock. One sampled packet
// yields exactly one trace record and one journey span with the same steps;
// the span's trace ID is the packet's as it arrived, and the seen-counter is
// charged once. Under SimEnv at virtual T (an instant no wall clock reads)
// the record's At, the span's Start, F_tel's wall µs × 1000 and a cold
// read's span all equal T, and a PIT entry expires at exactly T + PITTTL;
// under WallEnv each lies within the time.Now readings around the packet.
func TestTracedNodeSamplesOnce(t *testing.T) {
	const ttl = 20 * time.Millisecond
	for _, tc := range []struct {
		name string
		sim  bool
	}{{"SimEnv", true}, {"WallEnv", false}} {
		t.Run(tc.name, func(t *testing.T) {
			var sim *netsim.Simulator
			env := WallEnv(nil)
			if tc.sim {
				sim = netsim.New()
				env = SimEnv(sim)
			}
			spans := &lockedSpans{}
			env.Journeys = spans
			n, err := Build(Spec{
				Name:       "once",
				Routes32:   []Route{{Prefix: []byte{10, 0, 0, 0}, Len: 8, Port: 0}},
				Names:      []Route{{Prefix: []byte{0xAA, 0, 0, 0}, Len: 8, Port: 1}},
				TraceEvery: 1, IntEvery: 1, Cache: 2, CSCold: 8, PITTTL: ttl,
			}, env)
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			var egress []byte
			n.AttachPort(router.PortFunc(func(pkt []byte) { egress = append(egress[:0], pkt...) }), false)
			n.AttachPort(router.PortFunc(func([]byte) {}), false)
			// at runs do at a fresh instant and returns the clock readings
			// that bracket it: one virtual instant, or two wall reads.
			at := func(do func()) (lo, hi int64) {
				if sim == nil {
					lo = time.Now().UnixNano()
					do()
					return lo, time.Now().UnixNano()
				}
				sim.RunUntil(sim.Now() + 5*time.Millisecond)
				do()
				sim.RunUntil(sim.Now()) // the deferred events, not the PIT sweep
				return int64(sim.Now()), int64(sim.Now())
			}
			within := func(what string, v, lo, hi int64) {
				t.Helper()
				if v < lo || v > hi {
					t.Errorf("%s = %d, outside the clock readings [%d, %d]", what, v, lo, hi)
				}
			}
			handle := func(h *core.Header, payload string, inPort int) {
				t.Helper()
				pkt, err := host.BuildPacket(h, []byte(payload))
				if err != nil {
					t.Fatal(err)
				}
				n.Handle(pkt, inPort)
			}

			pkt, err := host.BuildPacket(profiles.WithTelemetry(profiles.IPv4([4]byte{1, 1, 1, 1}, [4]byte{10, 0, 0, 9}), 2), nil)
			if err != nil {
				t.Fatal(err)
			}
			want := journey.TraceOf(pkt)
			lo, hi := at(func() { n.Handle(pkt, 0) })
			recs, sps := n.tracer.Snapshot(), spans.get()
			if len(recs) != 1 || len(sps) != 1 {
				t.Fatalf("%d records and %d spans from one sampled packet, want 1 and 1", len(recs), len(sps))
			}
			rec, sp := recs[0], sps[0]
			within("record At", rec.At, lo, hi)
			within("span Start", sp.Start, lo, hi)
			if rec.NSteps == 0 || sp.NSteps != rec.NSteps {
				t.Fatalf("record has %d steps, span %d", rec.NSteps, sp.NSteps)
			}
			for i := range rec.NSteps {
				if rec.Steps[i].Key != sp.Steps[i].Key {
					t.Errorf("step %d: record %v, span %v", i, rec.Steps[i].Key, sp.Steps[i].Key)
				}
			}
			if sp.Trace != want {
				t.Errorf("span trace %016x, want %016x (the packet as it arrived)", uint64(sp.Trace), uint64(want))
			}
			if seen := n.tracer.Seen(); seen != 1 {
				t.Errorf("seen %d for one packet", seen)
			}
			v, err := core.ParseView(egress)
			if err != nil {
				t.Fatal(err)
			}
			region, _, _ := profiles.TelemetryRegion(v)
			hops, _, err := extops.DecodeTel(region)
			if err != nil || len(hops) != 1 {
				t.Fatalf("F_tel region: hops %+v err %v", hops, err)
			}
			// The slot keeps the low 32 bits of the µs; compare modulo 2^32.
			if us := hops[0].TimestampUs; us-uint32(lo/1000) > uint32(hi/1000-lo/1000) {
				t.Errorf("F_tel stamp %d µs, outside the clock readings [%d, %d] ns", us, lo, hi)
			}

			// A cold read: "the one" spills from the 2-entry hot tier, and a
			// later interest for it is answered from the arena.
			store := n.State.ContentStore
			fetch := func(name uint32, payload string) {
				handle(profiles.NDNInterest(name), "", 0)
				handle(profiles.NDNData(name), payload, 1)
			}
			at(func() {
				fetch(0xAA000001, "the one")
				handle(profiles.NDNInterest(0xAA000001), "", 0) // hot hit: marks it admissible
				fetch(0xAA000002, "the two")
				fetch(0xAA000003, "the three")
			})
			waitFor(t, func() bool { return store.Stats().Spilled >= 1 })
			lo, hi = at(func() {
				handle(profiles.NDNInterest(0xAA000001), "", 0)
				waitFor(t, func() bool { return store.Stats().Reinjected == 1 })
			})
			var cold []journey.Span
			for _, sp := range spans.get() {
				if sp.Kind == journey.SpanCSCold {
					cold = append(cold, sp)
				}
			}
			if len(cold) != 1 {
				t.Fatalf("%d cold-read spans, want 1", len(cold))
			}
			within("cold-read span Start", cold[0].Start, lo, hi)
			within("cold-read span End", cold[0].End, cold[0].Start, hi)

			// A PIT entry expires one PITTTL after the interest, on the
			// same clock.
			const unanswered = 0xAA0000FF
			lo, hi = at(func() { handle(profiles.NDNInterest(unanswered), "", 0) })
			if sim != nil {
				sim.RunUntil(time.Duration(hi) + ttl)
				if !n.State.PIT.Pending(unanswered) {
					t.Errorf("PIT entry gone at T + PITTTL, want expiry exactly there")
				}
				sim.RunUntil(time.Duration(hi) + ttl + time.Nanosecond)
			} else {
				if !n.State.PIT.Pending(unanswered) && time.Now().UnixNano() < lo+int64(ttl) {
					t.Errorf("PIT entry expired before its interest's instant + PITTTL")
				}
				for time.Now().UnixNano() <= hi+int64(ttl) {
					time.Sleep(time.Millisecond)
				}
			}
			if n.State.PIT.Pending(unanswered) {
				t.Errorf("PIT entry still pending past its interest's instant + PITTTL")
			}
		})
	}
}

// waitFor polls cond until it holds (a live node's cold tier completes on
// its own goroutines); under SimEnv it already holds on the first call.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5 s")
		}
	}
}

// lockedSpans is a span sink safe for a live node's cold readers.
type lockedSpans struct {
	mu    sync.Mutex
	spans []journey.Span
}

func (l *lockedSpans) AddSpan(sp journey.Span) {
	l.mu.Lock()
	l.spans = append(l.spans, sp)
	l.mu.Unlock()
}

func (l *lockedSpans) get() []journey.Span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]journey.Span(nil), l.spans...)
}
