// Command bench is the repository's benchmark: four workloads that drive the
// real cmd/diprouter binary over loopback UDP and the real dip.Router and
// Ingress in-process, measured from outside through their public functions.
// README.md in this directory explains every metric; BENCHMARK.json at the
// repository root lists the same names.
//
//	bash bench/run.sh --workload inproc-mix --seed 1 --seconds 48 --trace 0
//
// The last line of standard output is one JSON object with the run's
// correctness verdict, op counts and metrics; everything before it is a
// human-readable report. The exit code is non-zero when an oracle failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

type config struct {
	workload  string
	seed      int64
	plan      plan
	traced    bool
	traceFile string
	size      sizes
	pin       *cpus // wire: set once the generator has its thread
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report receives the human-readable lines; the test reads them back.
var report io.Writer = os.Stdout

// note prints one line of the human-readable report.
func note(format string, args ...any) {
	fmt.Fprintf(report, "# "+format+"\n", args...)
}

// flagNote prints an instrument-health warning; the run still counts.
func flagNote(format string, args ...any) {
	note("FLAG: "+format, args...)
}

func main() {
	if len(os.Args) == 3 && os.Args[1] == "echo-child" {
		echoChild(os.Args[2])
		return
	}
	var (
		workload  = flag.String("workload", "", "one of "+strings.Join(append(gated, ungated...), ", "))
		seed      = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", 48, "measuring time, cut into slices of 250 ms: 7 in 12 saturating, 5 in 12 paced")
		traced    = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics and writing the span file")
		traceFile = flag.String("trace-file", "", "span file of a traced run (default .bench_build/trace-<workload>.csv)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg := config{
		workload: *workload, seed: *seed, plan: planFor(*seconds, *traced == 1),
		traced: *traced == 1, traceFile: *traceFile, size: fullSize,
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and assembles its result.
func run(cfg config) (*result, error) {
	// One P for everything: the wire generator must not share its thread,
	// and in-process the hand-off between submitter and forwarder becomes a
	// deterministic goroutine switch instead of a cross-core wake-up.
	runtime.GOMAXPROCS(1)
	printFingerprint(cfg)

	if cfg.traced && cfg.traceFile == "" {
		dir, err := buildDir()
		if err != nil {
			return nil, err
		}
		cfg.traceFile = filepath.Join(dir, "trace-"+cfg.workload+".csv")
	}
	var (
		out *outcome
		err error
	)
	switch cfg.workload {
	case "wire-ip32", "wire-ndn-zipf":
		out, err = runWire(cfg)
	case "inproc-mix", "inproc-mix-obs":
		out, err = runInproc(cfg)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(append(gated, ungated...), ", "))
	}
	if err != nil {
		return nil, err
	}

	spec := endToEnd
	if cfg.traced {
		spec = layerSpec(isWire(cfg.workload))
	}
	res := &result{
		Correct:   out.failed == 0 && len(out.violations) == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, v := range out.violations {
		note("ORACLE FAILED: %s", v)
	}
	note("%-28s %16s  %s", "metric", "value", "unit")
	for _, s := range spec {
		v := out.metrics.get(s.name)
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
		note("%-28s %16.4f  %s", s.name, v, s.unit)
	}
	note("attempted=%d failed=%d correct=%v", res.Attempted, res.Failed, res.Correct)
	return res, nil
}

// outcome is what a workload runner hands back.
type outcome struct {
	attempted, failed int64
	violations        []string // oracle failures that are not per-op
	metrics           *metricSet
}

// printFingerprint records where the numbers were taken; they are only
// comparable between runs with the same fingerprint.
func printFingerprint(cfg config) {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	note("machine: nproc=%d GOMAXPROCS=%d go=%s kernel=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel)
	note("transport: loopback, not a real link")
	p := cfg.plan
	note("workload=%s seed=%d traced=%v plan: 3×%d set-ups, warm-up %v, slices of %v: %d saturating, %d paced",
		cfg.workload, cfg.seed, cfg.traced, p.setups, p.warm, p.slice, p.satSlices, p.pacedSlices)
}
