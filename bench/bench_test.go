package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// traced wire run re-executes itself as the echo child.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "echo-child" {
		echoChild(os.Args[2])
		return
	}
	os.Exit(m.Run())
}

// benchmarkFile is the part of BENCHMARK.json this package must agree with.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecMatchesBenchmarkFile pins the metric and workload names: the lists
// in spec.go and in BENCHMARK.json are two copies of one contract.
func TestSpecMatchesBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go gates %d", len(f.Workloads), len(gated))
	}
	for i, w := range f.Workloads {
		if w.Name != gated[i] || w.Why == "" || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why %q), want %q with a one-line why", i, w.Name, w.Why, gated[i])
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, spec.go %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		if want := endToEnd[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("end-to-end %d: %+v, want %+v", i, m, want)
		}
		// No gated metric may be looser than 10 %: one that cannot hold it
		// is demoted, not widened.
		if m.Bound <= 0 || m.Bound > 0.10 {
			t.Errorf("%s: bound %v outside (0, 0.10]", m.Name, m.Bound)
		}
	}
	// BENCHMARK.json lists what a traced run of a gated workload reports.
	inproc := layerSpec(false)
	if len(f.PerLayer) != len(inproc) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, spec.go %d", len(f.PerLayer), len(inproc))
	}
	for i, m := range f.PerLayer {
		if want := inproc[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer %d: %+v, want %+v", i, m, want)
		}
	}
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(s.name) || s.unit == "" || seen[s.name] {
			t.Errorf("metric %q (unit %q): bad name, missing unit or duplicate", s.name, s.unit)
		}
		seen[s.name] = true
	}
}

// TestWorkloads runs every workload, untraced and traced, for a fraction of
// a second on tiny inputs and checks what the driver will rely on: the
// oracles pass, no op fails, the result carries exactly the metrics of its
// mode, and a traced run leaves a span file in which every parent exists.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("starts child processes")
	}
	var out bytes.Buffer
	report = &out
	defer func() { report = os.Stdout }()
	for _, w := range append(gated, ungated...) {
		for _, traced := range []bool{false, true} {
			name := w + map[bool]string{false: "", true: "/traced"}[traced]
			out.Reset()
			cfg := config{
				workload: w, seed: 2, traced: traced, size: tinySize,
				traceFile: filepath.Join(t.TempDir(), "spans.csv"),
				plan:      plan{setups: 1, warm: 50 * time.Millisecond, slice: 25 * time.Millisecond, satSlices: 10, pacedSlices: 10},
			}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s: %v\n%s", name, err, out.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", name, res.Correct, res.Attempted, res.Failed, out.String())
			}
			spec := endToEnd
			if traced {
				spec = layerSpec(isWire(w))
			}
			if len(res.Metrics) != len(spec) {
				t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(spec))
			}
			for _, s := range spec {
				if m, ok := res.Metrics[s.name]; !ok || m.Unit != s.unit {
					t.Errorf("%s: metric %s missing or unit %q, want %q", name, s.name, m.Unit, s.unit)
				}
			}
			if !traced {
				for _, s := range endToEnd {
					if res.Metrics[s.name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, s.name, res.Metrics[s.name].Value)
					}
				}
			}
			text := out.String()
			for _, want := range []string{"nproc=", "GOMAXPROCS=", "go=go", "kernel=", "loopback, not a real link"} {
				if !strings.Contains(text, want) {
					t.Errorf("%s: report lacks %q", name, want)
				}
			}
			if traced {
				checkSpanFile(t, name, cfg.traceFile)
			}
		}
	}
}

// checkSpanFile parses the span CSV: ids are unique, every non-root parent
// exists, and no span ends before it starts.
func checkSpanFile(t *testing.T, name, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defer f.Close()
	ids := map[uint64]bool{}
	var parents []uint64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.HasPrefix(line, "id,") {
			continue
		}
		f := strings.Split(line, ",")
		if len(f) != 6 {
			t.Fatalf("%s: span line %q has %d fields", name, line, len(f))
		}
		id, err1 := strconv.ParseUint(f[0], 10, 32)
		parent, err2 := strconv.ParseUint(f[1], 10, 32)
		start, err3 := strconv.ParseInt(f[4], 10, 64)
		end, err4 := strconv.ParseInt(f[5], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil || id == 0 || ids[id] || end < start {
			t.Fatalf("%s: bad span line %q", name, line)
		}
		ids[id] = true
		parents = append(parents, parent)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(ids) == 0 {
		t.Fatalf("%s: span file is empty", name)
	}
	for _, p := range parents {
		if p != 0 && !ids[p] {
			t.Fatalf("%s: span parent %d is not in the file", name, p)
		}
	}
}
