package main

import (
	"fmt"
	"time"
)

// metricSpec names one reported metric. The lists below are the single
// source of the names: BENCHMARK.json repeats them and bench_test.go checks
// the two agree.
type metricSpec struct {
	name, unit, better string
	// wire marks a metric measured on a router child over sockets. The wire
	// workloads are not gated (README.md, "Calibration"), so these are not
	// in BENCHMARK.json and only a traced wire run reports them.
	wire bool
}

const wireOnly = true

// endToEnd is what a user of the router sees; every workload reports all
// four in an untraced run. The paced phase's median latency was the fifth;
// the calibration showed it cannot hold a bound of 10 % even in-process
// (README.md, "Calibration"), so it is gen.lat_p50_us below and every
// untraced run prints it on a "not gated" line.
var endToEnd = []metricSpec{
	{"ops_per_s", "1/s", "higher", false},   // saturate: median of slices
	{"cpu_us_per_op", "us", "lower", false}, // saturate: median of slices, process under test
	{"rss_mb", "MiB", "lower", false},       // VmHWM of the process under test
	{"setup_s", "s", "lower", false},        // input generation + start → first verified reply, median of repeats
}

// perLayer is the traced run's report, one group per module. A metric that
// does not apply to a workload is reported as 0 there.
var perLayer = []metricSpec{
	{"wire.self_us_per_op", "us", "lower", wireOnly},
	{"wire.cpu_sys_us_per_op", "us", "lower", wireOnly},
	{"wire.cpu_user_us_per_op", "us", "lower", wireOnly},
	{"wire.ctxsw_per_kop", "1/kop", "lower", wireOnly},
	{"wire.echo_rtt_p50_us", "us", "lower", wireOnly},
	{"wire.over_echo_us", "us", "lower", wireOnly},
	{"wire.timeouts", "count", "lower", wireOnly},

	{"router.handle_ns", "ns", "lower", false},
	{"router.self_ns", "ns", "lower", false},
	{"router.submit_ns_per_pkt", "ns", "lower", false},
	{"router.ring_wait_ns", "ns", "lower", false},
	{"router.dropped", "count", "lower", false},
	{"router.processed", "count", "higher", false},

	{"guard.classify_ns", "ns", "lower", false},
	{"guard.admit_ns", "ns", "lower", false},
	{"guard.rejected", "count", "lower", false},

	{"core.parse_ns", "ns", "lower", false},
	{"core.process_ns", "ns", "lower", false},
	{"core.process_ns.ip32", "ns", "lower", false},
	{"core.process_ns.ip128", "ns", "lower", false},
	{"core.process_ns.ndn", "ns", "lower", false},
	{"core.process_ns.opt", "ns", "lower", false},
	{"core.fn_per_pkt", "count", "lower", false},
	{"core.allocs_per_pkt", "count", "lower", false},

	{"fib.lookup32_ns", "ns", "lower", false},
	{"fib.lookup128_ns", "ns", "lower", false},
	{"fib.lookup_name_ns", "ns", "lower", false},

	{"pit.cycle_ns", "ns", "lower", false},
	{"pit.len_peak", "count", "lower", false},

	{"cs.get_ns", "ns", "lower", false},
	{"cs.put_ns", "ns", "lower", false},
	{"cs.hit_ratio", "ratio", "higher", false},
	{"cs.evictions", "count", "lower", false},

	{"opt.process_ns", "ns", "lower", false},
	{"opt.mac_share", "ratio", "lower", false},

	{"obs.handle_ns_on", "ns", "lower", false},
	{"obs.handle_ns_off", "ns", "lower", false},
	{"obs.on_off_ratio", "ratio", "lower", false},
	{"obs.sampled_frac", "ratio", "higher", false},

	{"export.scrape_ms", "ms", "lower", wireOnly},
	{"export.scrape_bytes", "B", "lower", wireOnly},
	{"export.scrape_dent_frac", "ratio", "lower", wireOnly},

	{"gen.build_s", "s", "lower", false},
	{"gen.late_p99_us", "us", "lower", false},
	{"gen.late_frac", "ratio", "lower", false},
	{"gen.lat_p50_us", "us", "lower", false}, // paced only: reply − due; median of the slices' medians
	{"gen.lat_p99_us", "us", "lower", false},
	{"gen.window_cv", "ratio", "lower", false},
	{"gen.clock_ghz", "GHz", "higher", false},
	{"gen.samples", "count", "higher", false},
	{"gen.idle_poll_frac", "ratio", "higher", wireOnly},

	{"ledger.unexplained_frac", "ratio", "lower", false},
	{"trace.overhead_frac", "ratio", "lower", false},
}

// layerSpec is the per-layer list a traced run of the workload reports.
func layerSpec(wire bool) []metricSpec {
	if wire {
		return perLayer
	}
	var out []metricSpec
	for _, s := range perLayer {
		if !s.wire {
			out = append(out, s)
		}
	}
	return out
}

// gated are the workloads BENCHMARK.json lists, in its order: their
// end-to-end metrics hold the 10 % a bound may be. ungated workloads run the
// same way by hand, but their time-based metrics do not hold it on the box
// the benchmark was calibrated on (README.md, "Calibration").
var (
	gated   = []string{"inproc-mix", "inproc-mix-obs"}
	ungated = []string{"wire-ip32", "wire-ndn-zipf"}
)

func isWire(workload string) bool { return workload == "wire-ip32" || workload == "wire-ndn-zipf" }

// Instrument-health limits: a run beyond them is flagged in the output. The
// slices are 250 ms, not the 2 s windows the limit of 5 % was first meant
// for, and on a quiet box differ by 4-6 %; twice that marks a disturbed run.
const (
	maxLateFrac    = 0.01
	maxWindowCV    = 0.10
	maxUnexplained = 0.25
)

// sliceLen is the length of one slice of a timed phase: short enough that
// the core clock (clock.go) rarely changes inside one.
const sliceLen = 250 * time.Millisecond

// plan is the shape of one run: set-ups in three groups (before the warm-up,
// between the phases and after them), an untimed warm-up, a saturating phase
// and a paced phase, both cut into slices.
type plan struct {
	setups      int // per group
	warm        time.Duration
	slice       time.Duration
	satSlices   int
	pacedSlices int
}

// planFor derives the phases from the measuring time: slices of 250 ms,
// seven twelfths of them saturating and five twelfths paced, so -seconds 24
// gives 14 s + 10 s. A traced run spends less on the system and the rest on
// the per-layer replay.
func planFor(seconds float64, traced bool) plan {
	slices := max(int(seconds*float64(time.Second)/float64(sliceLen)), 12)
	p := plan{setups: 5, warm: 2 * time.Second, slice: sliceLen, satSlices: slices * 7 / 12}
	p.pacedSlices = slices - p.satSlices
	if traced {
		p.setups, p.satSlices, p.pacedSlices = 1, 24, 16
	}
	return p
}

func (p plan) saturate() time.Duration { return p.slice * time.Duration(p.satSlices) }
func (p plan) paced() time.Duration    { return p.slice * time.Duration(p.pacedSlices) }

// metricSet collects the values of one spec list.
type metricSet struct {
	spec   []metricSpec
	values map[string]float64
}

func newMetricSet(spec []metricSpec) *metricSet {
	return &metricSet{spec: spec, values: map[string]float64{}}
}

func (m *metricSet) set(name string, v float64) {
	for _, s := range m.spec {
		if s.name == name {
			m.values[name] = v
			return
		}
	}
	panic(fmt.Sprintf("metric %q is not in the spec", name)) // a typo in this package
}

func (m *metricSet) get(name string) float64 { return m.values[name] }
