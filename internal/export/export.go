// Package export renders a node's observability surface over HTTP: the
// telemetry counters as Prometheus text format on /metrics, the sampled
// per-packet trace ring as dipdump-ready text on /trace, and the standard
// net/http/pprof profiling endpoints under /debug/pprof — one listener a
// fleet scraper (or an operator with curl) points at per diprouter/diphost
// process. Rendering walks snapshots, never live state, so a scrape can
// never serialize the data plane.
//
// Metric names follow Prometheus conventions: dip_<subsystem>_<unit>_total
// for counters, bare gauges for occupancy, and classic cumulative
// histograms (dip_op_latency_ns_bucket{le=...}) derived from telemetry's
// log2 buckets, whose inclusive upper edges become the le boundaries.
package export

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"

	"dip/internal/bootstrap"
	"dip/internal/cc"
	"dip/internal/core"
	"dip/internal/cs"
	"dip/internal/host"
	"dip/internal/inband"
	"dip/internal/journey"
	"dip/internal/router"
	"dip/internal/telemetry"
	"dip/internal/trace"
)

// PITStats is the slice of pit.Table a scraper needs (satisfied by
// *pit.Table[K]).
type PITStats interface {
	Len() int
	PortCapRejections() int64
	ExpiredTotal() int64
}

// CSStats is the slice of cs.Store a scraper needs (satisfied by
// *cs.Store[K]).
type CSStats interface {
	Len() int
	Bytes() int
}

// Source bundles everything one node exposes. Any field may be nil/zero;
// the corresponding series are simply absent.
type Source struct {
	// Node labels every series (node="..."); empty omits the label.
	Node string
	// Metrics supplies verdict/drop/event counters and op histograms.
	Metrics *telemetry.Metrics
	// Health supplies the ingress guard snapshot; ok=false (not serving)
	// omits the guard series.
	Health func() (router.Health, bool)
	// PIT and CS supply table occupancy.
	PIT PITStats
	CS  CSStats
	// CSTier, when set, supplies the two-tier snapshot of a content store
	// with a cold tier for the dip_cs_tier_* / dip_cs_cold_* series
	// (cs.Store.Stats).
	CSTier func() cs.TierStats
	// Trace supplies ring sample/drop counters and the /trace dump.
	Trace *trace.Recorder
	// Journeys supplies the journey span ring for the /journeys dump (a
	// live process exports spans; a central collector stitches them).
	Journeys *journey.Emitter
	// Fetch supplies host fetcher counters for the dip_fetch_* series
	// (SegFetcher.Stats; the series count segments).
	Fetch func() host.SegStats
	// FetchCC supplies the fetcher's congestion-controller snapshot for
	// the dip_fetch_cwnd / srtt / rto gauges (SegFetcher.CC).
	FetchCC func() cc.Snapshot
	// Routes supplies the route-exchange speaker snapshot for the
	// dip_route_* series (bootstrap.Speaker.Stats).
	Routes func() bootstrap.SpeakerStats
	// INT supplies the in-band telemetry collector snapshot for the
	// dip_int_* series (inband.Collector.Stats) — set on the process
	// terminating telemetry at its delivering edge.
	INT func() inband.Stats
}

// WriteMetrics renders the full Prometheus text exposition to w.
func (s Source) WriteMetrics(w io.Writer) {
	label := s.labels()
	if s.Metrics != nil {
		snap := s.Metrics.Snapshot()
		writeHeader(w, "dip_packets_received_total", "counter", "Packets counted by verdict accounting.")
		writeSample(w, "dip_packets_received_total", label, float64(snap.Received))
		writeHeader(w, "dip_packets_total", "counter", "Packets by final verdict.")
		for _, v := range []struct {
			verdict string
			n       int64
		}{
			{"forward", snap.Forwarded},
			{"deliver", snap.Delivered},
			{"absorb", snap.Absorbed},
			{"no-action", snap.NoAction},
			{"drop", snap.Dropped},
		} {
			writeSample(w, "dip_packets_total", join(label, `verdict=`+quote(v.verdict)), float64(v.n))
		}
		writeHeader(w, "dip_drops_total", "counter", "Dropped packets by reason.")
		for _, r := range sortedDropReasons(snap.Drops) {
			writeSample(w, "dip_drops_total", join(label, `reason=`+quote(r.String())), float64(snap.Drops[r]))
		}
		writeHeader(w, "dip_events_total", "counter", "Recovery and degradation events.")
		for _, e := range sortedEvents(snap.Events) {
			writeSample(w, "dip_events_total", join(label, `event=`+quote(e.String())), float64(snap.Events[e]))
		}
		if len(snap.Ops) > 0 {
			writeHeader(w, "dip_op_executions_total", "counter", "FN operation executions (exact).")
			for _, op := range snap.Ops {
				writeSample(w, "dip_op_executions_total", join(label, `op=`+quote(op.Key.String())), float64(op.Count))
			}
			writeHeader(w, "dip_op_latency_ns_total", "counter", "Cumulative FN execution time of the timed executions, in nanoseconds.")
			for _, op := range snap.Ops {
				writeSample(w, "dip_op_latency_ns_total", join(label, `op=`+quote(op.Key.String())), float64(op.TotalNs))
			}
			writeHeader(w, "dip_op_latency_ns", "histogram", "FN execution latency histogram over the sampled, timed executions (log2 buckets, nanoseconds).")
			for _, op := range snap.Ops {
				opLabel := join(label, `op=`+quote(op.Key.String()))
				var cum int64
				for b := 0; b < telemetry.HistBuckets; b++ {
					if op.Hist[b] == 0 {
						continue
					}
					cum += op.Hist[b]
					le := fmt.Sprintf("%d", int64(telemetry.BucketUpper(b)))
					writeSample(w, "dip_op_latency_ns_bucket", join(opLabel, `le=`+quote(le)), float64(cum))
				}
				writeSample(w, "dip_op_latency_ns_bucket", join(opLabel, `le="+Inf"`), float64(op.Timed))
				writeSample(w, "dip_op_latency_ns_sum", opLabel, float64(op.TotalNs))
				writeSample(w, "dip_op_latency_ns_count", opLabel, float64(op.Timed))
			}
		}
	}
	if s.Health != nil {
		if h, ok := s.Health(); ok {
			writeHeader(w, "dip_guard_workers", "gauge", "Forwarding worker pool size (0 = pump mode).")
			writeSample(w, "dip_guard_workers", label, float64(h.Workers))
			writeHeader(w, "dip_guard_workers_stalled", "gauge", "Workers busy on one packet beyond the stall threshold.")
			writeSample(w, "dip_guard_workers_stalled", label, float64(h.Stalled))
			writeHeader(w, "dip_guard_queue_depth", "gauge", "Ingress queue occupancy per class.")
			writeSample(w, "dip_guard_queue_depth", join(label, `class="control"`), float64(h.HighDepth))
			writeSample(w, "dip_guard_queue_depth", join(label, `class="bulk"`), float64(h.LowDepth))
			writeHeader(w, "dip_guard_queue_capacity", "gauge", "Ingress queue bound per class.")
			writeSample(w, "dip_guard_queue_capacity", join(label, `class="control"`), float64(h.HighCap))
			writeSample(w, "dip_guard_queue_capacity", join(label, `class="bulk"`), float64(h.LowCap))
			writeHeader(w, "dip_guard_shed_total", "counter", "Queue-full drops per class.")
			writeSample(w, "dip_guard_shed_total", join(label, `class="control"`), float64(h.ShedHigh))
			writeSample(w, "dip_guard_shed_total", join(label, `class="bulk"`), float64(h.ShedLow))
			writeHeader(w, "dip_guard_admit_rejected_total", "counter", "Admission-control refusals.")
			writeSample(w, "dip_guard_admit_rejected_total", label, float64(h.AdmitRejected))
			writeHeader(w, "dip_guard_quarantined_total", "counter", "Packets captured after panicking a worker.")
			writeSample(w, "dip_guard_quarantined_total", label, float64(h.Quarantined))
			writeHeader(w, "dip_guard_processed_total", "counter", "Packets handed to the pipeline by the guard layer.")
			writeSample(w, "dip_guard_processed_total", label, float64(h.Processed))
		}
	}
	if s.PIT != nil {
		writeHeader(w, "dip_pit_entries", "gauge", "Pending interest table occupancy.")
		writeSample(w, "dip_pit_entries", label, float64(s.PIT.Len()))
		writeHeader(w, "dip_pit_portcap_rejected_total", "counter", "Interests refused by the per-port flood cap.")
		writeSample(w, "dip_pit_portcap_rejected_total", label, float64(s.PIT.PortCapRejections()))
		writeHeader(w, "dip_pit_expired_total", "counter", "PIT entries removed by TTL expiry.")
		writeSample(w, "dip_pit_expired_total", label, float64(s.PIT.ExpiredTotal()))
	}
	if s.CS != nil {
		writeHeader(w, "dip_cs_entries", "gauge", "Content store occupancy.")
		writeSample(w, "dip_cs_entries", label, float64(s.CS.Len()))
		writeHeader(w, "dip_cs_bytes", "gauge", "Content store cached payload bytes.")
		writeSample(w, "dip_cs_bytes", label, float64(s.CS.Bytes()))
	}
	if s.CSTier != nil {
		ts := s.CSTier()
		writeHeader(w, "dip_cs_tier_hits_total", "counter", "Content-store hits by tier.")
		writeSample(w, "dip_cs_tier_hits_total", join(label, `tier="hot"`), float64(ts.HotHits))
		writeSample(w, "dip_cs_tier_hits_total", join(label, `tier="cold"`), float64(ts.ColdHits))
		writeHeader(w, "dip_cs_tier_misses_total", "counter", "Content-store lookups that missed both tiers.")
		writeSample(w, "dip_cs_tier_misses_total", label, float64(ts.Misses))
		writeHeader(w, "dip_cs_spilled_total", "counter", "Hot-tier evictions written to the cold arena.")
		writeSample(w, "dip_cs_spilled_total", label, float64(ts.Spilled))
		writeHeader(w, "dip_cs_spill_dropped_total", "counter", "Hot-tier evictions lost (queue or arena full, oversize, write error).")
		writeSample(w, "dip_cs_spill_dropped_total", label, float64(ts.SpillDropped))
		writeHeader(w, "dip_cs_admission_filtered_total", "counter", "Evictions rejected by insert-on-second-hit admission.")
		writeSample(w, "dip_cs_admission_filtered_total", label, float64(ts.AdmitFiltered))
		writeHeader(w, "dip_cs_cold_read_errors_total", "counter", "Cold reads that failed slot verification.")
		writeSample(w, "dip_cs_cold_read_errors_total", label, float64(ts.ReadErrors))
		writeHeader(w, "dip_cs_reinjected_total", "counter", "Cold reads completed and re-injected on the data path.")
		writeSample(w, "dip_cs_reinjected_total", label, float64(ts.Reinjected))
		writeHeader(w, "dip_cs_pending_rejected_total", "counter", "Cold-read requests refused by the pending-table cap.")
		writeSample(w, "dip_cs_pending_rejected_total", label, float64(ts.PendingRejected))
		writeHeader(w, "dip_cs_pending_cold_reads", "gauge", "Cold reads currently in flight.")
		writeSample(w, "dip_cs_pending_cold_reads", label, float64(ts.PendingReads))
		writeHeader(w, "dip_cs_cold_slots", "gauge", "Cold arena slot occupancy.")
		writeSample(w, "dip_cs_cold_slots", join(label, `state="used"`), float64(ts.ColdSlotsUsed))
		writeSample(w, "dip_cs_cold_slots", join(label, `state="free"`), float64(ts.ColdSlots-ts.ColdSlotsUsed))
		writeHeader(w, "dip_cs_cold_read_ns", "histogram", "Cold-tier read latency histogram (log2 buckets, nanoseconds).")
		var cum uint64
		for b := 0; b < cs.HistBuckets && b < telemetry.HistBuckets; b++ {
			if ts.ColdReadHist[b] == 0 {
				continue
			}
			cum += ts.ColdReadHist[b]
			le := fmt.Sprintf("%d", int64(telemetry.BucketUpper(b)))
			writeSample(w, "dip_cs_cold_read_ns_bucket", join(label, `le=`+quote(le)), float64(cum))
		}
		writeSample(w, "dip_cs_cold_read_ns_bucket", join(label, `le="+Inf"`), float64(ts.ColdReadCount))
		writeSample(w, "dip_cs_cold_read_ns_sum", label, float64(ts.ColdReadTotalNs))
		writeSample(w, "dip_cs_cold_read_ns_count", label, float64(ts.ColdReadCount))
	}
	if s.Trace != nil {
		writeHeader(w, "dip_trace_seen_total", "counter", "Packets that passed the trace sampling decision, charged as each burst ends: lags by at most one burst per forwarder.")
		writeSample(w, "dip_trace_seen_total", label, float64(s.Trace.Seen()))
		writeHeader(w, "dip_trace_sampled_total", "counter", "Packets traced into the ring.")
		writeSample(w, "dip_trace_sampled_total", label, float64(s.Trace.Sampled()))
		writeHeader(w, "dip_trace_overwritten_total", "counter", "Trace records lost to ring wrap-around.")
		writeSample(w, "dip_trace_overwritten_total", label, float64(s.Trace.Overwritten()))
		writeHeader(w, "dip_trace_ring_records", "gauge", "Trace ring capacity in records.")
		writeSample(w, "dip_trace_ring_records", label, float64(s.Trace.RingSize()))
		writeHeader(w, "dip_trace_sample_every", "gauge", "Trace sampling divisor N (1-in-N).")
		writeSample(w, "dip_trace_sample_every", label, float64(s.Trace.SampleEvery()))
	}
	if s.Fetch != nil {
		fs := s.Fetch()
		writeHeader(w, "dip_fetch_pending", "gauge", "Fetcher segments awaiting data (in flight or windowed).")
		writeSample(w, "dip_fetch_pending", label, float64(fs.PendingSegments))
		writeHeader(w, "dip_fetch_completed_total", "counter", "Fetcher segments satisfied by data.")
		writeSample(w, "dip_fetch_completed_total", label, float64(fs.SegmentsCompleted))
		writeHeader(w, "dip_fetch_retransmits_total", "counter", "Fetcher interest retransmissions.")
		writeSample(w, "dip_fetch_retransmits_total", label, float64(fs.Retransmits))
		writeHeader(w, "dip_fetch_deadletter_total", "counter", "Fetcher segments abandoned at the retransmission cap.")
		writeSample(w, "dip_fetch_deadletter_total", label, float64(fs.DeadLettered))
	}
	if s.FetchCC != nil {
		snap := s.FetchCC()
		al := join(label, `algo=`+quote(snap.Algo.String()))
		writeHeader(w, "dip_fetch_cwnd", "gauge", "Fetcher congestion window in segments.")
		writeSample(w, "dip_fetch_cwnd", al, snap.CwndF)
		writeHeader(w, "dip_fetch_srtt_ns", "gauge", "Fetcher smoothed RTT estimate in nanoseconds.")
		writeSample(w, "dip_fetch_srtt_ns", label, float64(snap.SRTT))
		writeHeader(w, "dip_fetch_rto_ns", "gauge", "Fetcher retransmission timeout in nanoseconds.")
		writeSample(w, "dip_fetch_rto_ns", label, float64(snap.RTO))
		writeHeader(w, "dip_fetch_cwnd_cuts_total", "counter", "Fetcher multiplicative window decreases.")
		writeSample(w, "dip_fetch_cwnd_cuts_total", label, float64(snap.Cuts))
	}
	if s.Routes != nil {
		rs := s.Routes()
		writeHeader(w, "dip_route_rib_entries", "gauge", "Routes learned from neighbors and resident in the FIBs.")
		writeSample(w, "dip_route_rib_entries", label, float64(rs.RIB))
		writeHeader(w, "dip_route_local_entries", "gauge", "Locally originated routes the speaker advertises.")
		writeSample(w, "dip_route_local_entries", label, float64(rs.Local))
		writeHeader(w, "dip_route_messages_total", "counter", "Route-exchange messages by type and direction.")
		for _, m := range []struct {
			typ, dir string
			n        int64
		}{
			{"advertise", "sent", rs.AdvertisesSent},
			{"advertise", "recv", rs.AdvertisesRecv},
			{"withdraw", "sent", rs.WithdrawsSent},
			{"withdraw", "recv", rs.WithdrawsRecv},
		} {
			writeSample(w, "dip_route_messages_total",
				join(label, `type=`+quote(m.typ), `dir=`+quote(m.dir)), float64(m.n))
		}
		writeHeader(w, "dip_route_changes_total", "counter", "FIB route changes applied by the speaker, by cause.")
		for _, c := range []struct {
			cause string
			n     int64
		}{
			{"installed", rs.RoutesInstalled},
			{"withdrawn", rs.RoutesWithdrawn},
			{"expired", rs.RoutesExpired},
		} {
			writeSample(w, "dip_route_changes_total", join(label, `cause=`+quote(c.cause)), float64(c.n))
		}
		writeHeader(w, "dip_route_malformed_total", "counter", "Route-exchange messages rejected by the codec.")
		writeSample(w, "dip_route_malformed_total", label, float64(rs.Malformed))
		writeHeader(w, "dip_route_stale_total", "counter", "Route-exchange messages discarded as out of sequence.")
		writeSample(w, "dip_route_stale_total", label, float64(rs.Stale))
		writeHeader(w, "dip_route_commits_total", "counter", "Batched FIB transactions the speaker published.")
		writeSample(w, "dip_route_commits_total", label, float64(rs.Commits))
		writeHeader(w, "dip_route_noop_batches_total", "counter", "Speaker transaction batches discarded as no-ops (nothing changed).")
		writeSample(w, "dip_route_noop_batches_total", label, float64(rs.NoopBatches))
	}
	if s.INT != nil {
		st := s.INT()
		writeHeader(w, "dip_int_postcards_total", "counter", "Telemetry postcards stripped at this delivering edge.")
		writeSample(w, "dip_int_postcards_total", label, float64(st.Postcards))
		writeHeader(w, "dip_int_overflows_total", "counter", "Postcards whose path outgrew the slot capacity.")
		writeSample(w, "dip_int_overflows_total", label, float64(st.Overflows))
		writeHeader(w, "dip_int_flows", "gauge", "Flows with tracked path digests.")
		writeSample(w, "dip_int_flows", label, float64(st.Flows))
		writeHeader(w, "dip_int_path_changes_total", "counter", "Per-flow path digest flips (reroutes observed in band).")
		writeSample(w, "dip_int_path_changes_total", label, float64(st.PathChanges))
		writeHeader(w, "dip_int_loops_total", "counter", "Postcards with a repeated hop ID (forwarding loop).")
		writeSample(w, "dip_int_loops_total", label, float64(st.Loops))
		writeHeader(w, "dip_int_microbursts_total", "counter", "Hop records at or above the microburst queue depth.")
		writeSample(w, "dip_int_microbursts_total", label, float64(st.Microbursts))
		writeHeader(w, "dip_int_expected_mismatch_total", "counter", "Recorded paths disagreeing with the FIB-derived prediction.")
		writeSample(w, "dip_int_expected_mismatch_total", label, float64(st.ExpectedMismatch))
		writeHeader(w, "dip_int_decode_errors_total", "counter", "Telemetry regions that failed to decode at the edge.")
		writeSample(w, "dip_int_decode_errors_total", label, float64(st.DecodeErrors))
		if len(st.Links) > 0 {
			writeHeader(w, "dip_int_link_latency_ns", "histogram", "Per-link transit latency from hop timestamp deltas (log2 buckets).")
			for _, l := range st.Links {
				ll := join(label, `from=`+quote(linkName(l.FromName, l.From)), `to=`+quote(linkName(l.ToName, l.To)))
				var cum int64
				for b := 0; b < telemetry.HistBuckets; b++ {
					if l.Hist[b] == 0 {
						continue
					}
					cum += l.Hist[b]
					le := fmt.Sprintf("%d", int64(telemetry.BucketUpper(b)))
					writeSample(w, "dip_int_link_latency_ns_bucket", join(ll, `le=`+quote(le)), float64(cum))
				}
				writeSample(w, "dip_int_link_latency_ns_bucket", join(ll, `le="+Inf"`), float64(l.Count))
				writeSample(w, "dip_int_link_latency_ns_sum", ll, float64(l.SumNs))
				writeSample(w, "dip_int_link_latency_ns_count", ll, float64(l.Count))
			}
		}
		if len(st.Hops) > 0 {
			writeHeader(w, "dip_int_hop_records_total", "counter", "Hop records folded per stamping hop.")
			for _, h := range st.Hops {
				hl := join(label, `hop=`+quote(linkName(h.Name, h.HopID)))
				writeSample(w, "dip_int_hop_records_total", hl, float64(h.Count))
			}
			writeHeader(w, "dip_int_hop_congested_total", "counter", "Hop records carrying the congestion flag.")
			for _, h := range st.Hops {
				hl := join(label, `hop=`+quote(linkName(h.Name, h.HopID)))
				writeSample(w, "dip_int_hop_congested_total", hl, float64(h.Congested))
			}
			writeHeader(w, "dip_int_hop_queue_depth_max", "gauge", "Deepest admission queue each hop stamped.")
			for _, h := range st.Hops {
				hl := join(label, `hop=`+quote(linkName(h.Name, h.HopID)))
				writeSample(w, "dip_int_hop_queue_depth_max", hl, float64(h.QueueMax))
			}
		}
	}
	if s.Journeys != nil {
		writeHeader(w, "dip_journey_spans_total", "counter", "Journey spans emitted by this process.")
		writeSample(w, "dip_journey_spans_total", label, float64(s.Journeys.Added()))
		writeHeader(w, "dip_journey_spans_dropped_total", "counter", "Journey spans lost to emitter ring wrap-around.")
		writeSample(w, "dip_journey_spans_dropped_total", label, float64(s.Journeys.Dropped()))
	}
}

// Handler returns the node's observability mux: /metrics, /trace, and the
// pprof family under /debug/pprof/.
func (s Source) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.WriteMetrics(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.Trace == nil {
			fmt.Fprintln(w, "# tracing disabled (run with -trace-every N)")
			return
		}
		s.Trace.Dump(w)
	})
	mux.HandleFunc("/journeys", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.Journeys == nil {
			fmt.Fprintln(w, "# journey tracing disabled (run with -trace-every N)")
			return
		}
		s.Journeys.Dump(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve binds addr (":0" picks a free port) and serves the observability
// mux on a background goroutine. It returns the bound address and a close
// function. Serving errors after close are swallowed; the caller owns the
// process lifetime.
func Serve(addr string, s Source) (bound net.Addr, closeFn func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: s.Handler()}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr(), srv.Close, nil
}

// linkName prefers a hop's display name, falling back to its numeric ID.
func linkName(name string, id uint32) string {
	if name != "" {
		return name
	}
	return fmt.Sprintf("%d", id)
}

// labels renders the constant label set (node=...) or "".
func (s Source) labels() string {
	if s.Node == "" {
		return ""
	}
	return "node=" + quote(s.Node)
}

// quote escapes a label value per the Prometheus text format.
func quote(v string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

func join(labels ...string) string {
	parts := labels[:0:0]
	for _, l := range labels {
		if l != "" {
			parts = append(parts, l)
		}
	}
	return strings.Join(parts, ",")
}

func writeHeader(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func writeSample(w io.Writer, name, labels string, v float64) {
	if labels == "" {
		fmt.Fprintf(w, "%s %g\n", name, v)
		return
	}
	fmt.Fprintf(w, "%s{%s} %g\n", name, labels, v)
}

func sortedDropReasons(m map[core.DropReason]int64) []core.DropReason {
	out := make([]core.DropReason, 0, len(m))
	for r := range m {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedEvents(m map[telemetry.Event]int64) []telemetry.Event {
	out := make([]telemetry.Event, 0, len(m))
	for e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
