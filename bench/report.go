package main

// windowStat is one slice of a timed phase.
type windowStat struct {
	ops     int64
	wall    float64 // seconds
	cpu     float64 // seconds of CPU, process under test
	latEnd  int     // paced: length of the latency log when the slice ended
	step    float64 // in-process: clock of the thread (stepNs), mean of the slice's two ends; 0 = not read
	scraped bool    // wire: a /metrics scrape was under way during the slice
}

// phases is what the two timed phases of any workload leave behind.
type phases struct {
	sat       []windowStat // saturating slices
	paced     []windowStat // paced slices, latEnd set
	lat       *samples     // every paced op's latency, in order
	late      *samples     // every paced op's (or burst's) lateness
	lateCount int64
	setups    []float64 // at the reference clock where it was read
	setupsRaw []float64 // as measured
	rssMiB    float64
}

// digest is the phases reduced to the numbers the run reports.
type digest struct {
	opsPerS, cpuPerOp         float64 // end-to-end, with rss and set-up
	latP50                    float64 // median of the paced slices' medians
	latP99, lateP99, lateFrac float64 // over the whole paced phase, as measured
	windowCV, clockGHz        float64
	setup                     float64
	samples                   int
}

// atRef is how much slower than the reference clock a slice ran: what a
// time measured in it is divided by, and a rate multiplied by. It is 1 for
// a slice whose clock was not read, which is then reported as measured.
func (w *windowStat) atRef() float64 {
	if w.step == 0 {
		return 1
	}
	return w.step / refStepNs
}

// medianAtRef is atRef of the middle slice: the scale for a number taken
// over a whole phase and not slice by slice.
func medianAtRef(ws []windowStat) float64 {
	fs := make([]float64, len(ws))
	for i := range ws {
		fs[i] = ws[i].atRef()
	}
	return quantile(fs, 0.5)
}

// reduce evaluates the slices: each is scaled to the reference clock where
// the clock was read (clock.go), and every metric taken from slices is the
// median of its slices, so that a disturbance costs the slices it hits and a
// regression that hits half of them still shows. Set-ups report their median
// too.
func (p *phases) reduce() digest {
	var d digest
	var raw, rawCosts, rates, costs, clocks []float64
	for i := range p.sat {
		w := &p.sat[i]
		raw = append(raw, float64(w.ops)/w.wall)
		rawCosts = append(rawCosts, w.cpu*1e6/float64(max(w.ops, 1)))
		rates = append(rates, raw[i]*w.atRef())
		costs = append(costs, rawCosts[i]/w.atRef())
		if w.step > 0 {
			clocks = append(clocks, ghz(w.step))
		}
	}
	// Per-slice medians first: they sort their own stretch of the log.
	var rawMeds, meds []float64
	from := 0
	for i := range p.paced {
		w := &p.paced[i]
		if w.latEnd > from {
			m := p.lat.quantilesUs(from, w.latEnd, 0.5)[0]
			rawMeds = append(rawMeds, m)
			meds = append(meds, m/w.atRef())
		}
		from = w.latEnd
	}
	// The series in time order, for anyone who wants another estimator.
	if len(rates) > 0 {
		note("saturate ops/s by slice, as measured: %.0f", raw)
		note("saturate cpu µs/op by slice, as measured: %.4f", rawCosts)
	}
	note("paced median µs by slice, as measured: %.2f", rawMeds)
	if len(clocks) > 0 {
		note("clock GHz by saturating slice: %.2f", clocks)
		note("saturate ops/s by slice, at the reference clock: %.0f", rates)
		note("paced median µs by slice, at the reference clock: %.2f", meds)
		note("clock min %.2f, p50 %.2f, max %.2f GHz (reference %.2f)", quantile(clocks, 0), quantile(clocks, 0.5), quantile(clocks, 1), ghz(refStepNs))
		// calibrate.py reads this line to record what the scaling is worth.
		note("as measured: ops_per_s=%.2f cpu_us_per_op=%.5f lat_p50_us=%.4f setup_s=%.6f",
			quantile(raw, 0.5), quantile(rawCosts, 0.5), quantile(rawMeds, 0.5), quantile(p.setupsRaw, 0.5))
	}
	d.windowCV = cv(rates)
	d.opsPerS = quantile(rates, 0.5)
	d.cpuPerOp = quantile(costs, 0.5)
	d.clockGHz = quantile(clocks, 0.5)
	d.latP50 = quantile(meds, 0.5)
	d.samples = len(p.lat.ns)
	d.latP99 = p.lat.all(0.99)[0]
	d.lateP99 = p.late.all(0.99)[0]
	d.lateFrac = float64(p.lateCount) / float64(max(len(p.late.ns), 1))
	d.setup = quantile(p.setups, 0.5)

	if len(rates) > 0 {
		note("saturate: %d slices; ops/s min %.0f, p25 %.0f, p50 %.0f, p75 %.0f, max %.0f; CV %.1f%%; cpu µs/op p25 %.4f, p50 %.4f, p75 %.4f",
			len(rates), quantile(rates, 0), quantile(rates, 0.25), d.opsPerS, quantile(rates, 0.75), quantile(rates, 1), 100*d.windowCV,
			quantile(costs, 0.25), d.cpuPerOp, quantile(costs, 0.75))
	}
	note("paced: %d samples; slice medians µs min %.2f, p25 %.2f, p50 %.2f, p75 %.2f; whole-phase p99 as measured %.2f µs",
		d.samples, quantile(meds, 0), quantile(meds, 0.25), d.latP50, quantile(meds, 0.75), d.latP99)
	note("paced: lateness p99 %.2f µs, late %.4f%% of %d", d.lateP99, 100*d.lateFrac, len(p.late.ns))
	// calibrate.py reads this line: the record keeps showing why the metric
	// is not an end-to-end one.
	note("not gated: lat_p50_us=%.4f", d.latP50)
	if len(p.setups) > 0 {
		note("set-up times (s): %.4f", p.setups)
	}
	if d.lateFrac > maxLateFrac {
		flagNote("generator ran late on %.2f%% of paced ops (limit %.0f%%): latency includes generator delay", 100*d.lateFrac, 100*maxLateFrac)
	}
	if d.windowCV > maxWindowCV {
		flagNote("saturating slices differ by %.1f%% (CV, limit %.0f%%): the box was disturbed through much of the run", 100*d.windowCV, 100*maxWindowCV)
	}
	return d
}

// endToEndSet is the untraced run's result.
func (p *phases) endToEndSet(d digest) *metricSet {
	m := newMetricSet(endToEnd)
	m.set("ops_per_s", d.opsPerS)
	m.set("cpu_us_per_op", d.cpuPerOp)
	m.set("rss_mb", p.rssMiB)
	m.set("setup_s", d.setup)
	return m
}

// fillGenerator reports the generator's own health in a traced run.
func fillGenerator(m *metricSet, d digest, buildS float64) {
	m.set("gen.build_s", buildS)
	m.set("gen.late_p99_us", d.lateP99)
	m.set("gen.late_frac", d.lateFrac)
	m.set("gen.lat_p50_us", d.latP50)
	m.set("gen.lat_p99_us", d.latP99)
	m.set("gen.window_cv", d.windowCV)
	m.set("gen.clock_ghz", d.clockGHz)
	m.set("gen.samples", float64(d.samples))
}
