package main

import "time"

// The cores of the box this benchmark was calibrated on change their clock
// under a single-threaded load, in 100 MHz steps between 3.3 and 4.2 GHz,
// holding a step for anything between a quarter of a second and ten
// (README.md, "Noise"). What the in-process workloads measure follows the
// clock in proportion, so two runs of the same code differ by whatever share
// of each fell on fast seconds: as measured, inproc-mix's ops_per_s spread
// over 5-6 % from run to run and its medians moved by up to 7 % between two
// sets of ten, at a fixed clock over 3 % and by 2 % (CALIBRATION.json, which
// keeps both readings). An in-process run therefore reads the clock of its
// thread at every slice boundary and reports each slice as it would have
// been at a fixed reference clock. The wire workloads keep both CPUs busy,
// which holds the clock at its all-core step; they report as measured.

const (
	// chainSteps dependent multiply-adds take about 25 µs: long against the
	// cost of reading the time, short against a slice.
	chainSteps = 20_000
	// A reading is the fastest chain, once chainsAgree chains in a row have
	// failed to beat it by more than a part in 200, or after maxChains.
	chainsAgree = 4
	maxChains   = 64
	// refStepNs is the reference clock, as the time of one step of the
	// chain: 3.2 GHz on a core that needs four cycles for a multiply and an
	// add, as current x86 cores do. A slice measured while a step took
	// 1.0 ns is reported 1.25 times slower than it ran.
	refStepNs = 1.25
	// stepCycles turns a step time into GHz for the report; it is not used
	// in any metric.
	stepCycles = 4
)

var chainSink uint64

// stepNs reads the clock of the CPU the calling thread is on: the time, in
// ns, of one step of a chain of dependent multiply-adds, which no cache,
// memory or other thread can speed up or slow down, only the core's clock
// and having to share the CPU. A chain that was interrupted or that ran while
// the core was still coming out of idle reads slow, never fast; so chains
// are repeated until the fastest has stood for a few in a row.
func stepNs() float64 {
	best := time.Duration(1 << 62)
	for n, stood := 0, 0; n < maxChains && stood < chainsAgree; n++ {
		x := chainSink | 1
		t0 := time.Now()
		for i := 0; i < chainSteps; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		d := time.Since(t0)
		chainSink = x
		if d < best-best/200 {
			best, stood = d, 0
		} else {
			best = min(best, d)
			stood++
		}
	}
	return float64(best) / chainSteps
}

// ghz is a step time as a clock rate, for the report.
func ghz(stepNs float64) float64 { return stepCycles / stepNs }
