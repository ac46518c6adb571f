package journey

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"dip/internal/telemetry"
)

// Config tunes a Collector. Zero values select the defaults noted on each
// field, so Collector{} semantics come from NewCollector(Config{}).
type Config struct {
	// MaxJourneys bounds live journey state (default 4096). When exceeded,
	// the oldest journey is finalized (flagged incomplete if it has no
	// terminal span) and evicted — the collector's memory is O(MaxJourneys
	// × spans-per-journey), never O(traffic).
	MaxJourneys int
	// FlightSize is the anomaly flight recorder's ring capacity (default 64).
	FlightSize int
	// LatencyMinSamples is how many complete journeys must be observed
	// before p99.9 excursion freezing arms (default 100): freezing on the
	// first journeys seen would capture noise, not anomalies.
	LatencyMinSamples int64
}

func (c *Config) fill() {
	if c.MaxJourneys <= 0 {
		c.MaxJourneys = 4096
	}
	if c.FlightSize <= 0 {
		c.FlightSize = 64
	}
	if c.LatencyMinSamples <= 0 {
		c.LatencyMinSamples = 100
	}
}

// Journey is one packet instance's stitched span sequence. A trace ID maps
// to one journey normally; fetch retransmissions and fault-injected
// duplicates open further instances (same Trace, Instance 1, 2, …) so each
// copy's path is told separately.
type Journey struct {
	Trace    TraceID
	Instance int
	// Spans are in stitched order: sorted by (Start, arrival Seq), so
	// reordered collector arrival does not scramble the timeline.
	Spans []Span
	// Incomplete marks a journey evicted (ring wraparound, collector
	// memory bound) before any terminal span arrived — it must never be
	// read as a finished timeline.
	Incomplete bool
	done       bool
}

// Complete reports whether the journey reached a terminal span (delivered,
// satisfied, absorbed, or dropped somewhere attributable).
func (j *Journey) Complete() bool { return j.done }

// Hops counts the router spans — the journey's hop count.
func (j *Journey) Hops() int {
	n := 0
	for i := range j.Spans {
		if j.Spans[i].Kind == SpanRouter {
			n++
		}
	}
	return n
}

// DroppedAt returns the span where the packet died, or nil.
func (j *Journey) DroppedAt() *Span {
	for i := range j.Spans {
		if j.Spans[i].Dropped {
			return &j.Spans[i]
		}
	}
	return nil
}

// Proto returns the journey's protocol family (from its first span that
// knows one).
func (j *Journey) Proto() string {
	for i := range j.Spans {
		if p := j.Spans[i].Proto; p != "" {
			return p
		}
	}
	return "other"
}

// Path is the journey's node chain with link spans elided and consecutive
// repeats collapsed: "C>R1>R2>R3>P". It is the aggregation key for the
// per-path latency histograms.
func (j *Journey) Path() string {
	var b strings.Builder
	last := ""
	for i := range j.Spans {
		sp := &j.Spans[i]
		if sp.Kind == SpanLink {
			continue
		}
		if sp.Node == last {
			continue
		}
		if last != "" {
			b.WriteByte('>')
		}
		b.WriteString(sp.Node)
		last = sp.Node
	}
	return b.String()
}

// Decomposition splits a journey's end-to-end latency into where the time
// went. The components are measured on the one shared journey clock and
// satisfy FN + Queue + Wire + PITWait == Total exactly for complete
// journeys: PITWait is the residual — time the packet (or its data reply)
// sat in network state between spans, which for NDN fetches is dominated
// by PIT wait and for others is scheduling gaps.
type Decomposition struct {
	TotalNs int64
	// FNNs is time inside elements (router Algorithm 1 brackets, tunnel
	// encap/decap, host processing) on the journey clock. In virtual-time
	// simulations element processing is instantaneous, so this is 0 and
	// CPUNs carries the real compute cost.
	FNNs int64
	// QueueNs is time waiting behind other packets at link serializers.
	QueueNs int64
	// WireNs is serialization + propagation (+ injected impairment delay).
	WireNs int64
	// PITWaitNs is the residual: gaps between spans not attributed above.
	PITWaitNs int64
	// CPUNs is total wall-clock engine time across router spans — reported
	// beside the decomposition, not inside it (different clock).
	CPUNs int64
}

// Decompose computes the journey's latency decomposition.
func (j *Journey) Decompose() Decomposition {
	var d Decomposition
	if len(j.Spans) == 0 {
		return d
	}
	first, last := j.Spans[0].Start, j.Spans[0].End
	for i := range j.Spans {
		sp := &j.Spans[i]
		if sp.Start < first {
			first = sp.Start
		}
		if sp.End > last {
			last = sp.End
		}
		switch sp.Kind {
		case SpanLink:
			d.QueueNs += sp.QueueNs
			d.WireNs += sp.WireNs
		default:
			d.FNNs += sp.Duration()
		}
		d.CPUNs += sp.CPUNs
	}
	d.TotalNs = last - first
	d.PITWaitNs = d.TotalNs - d.FNNs - d.QueueNs - d.WireNs
	if d.PITWaitNs < 0 {
		// Overlapping spans (parallel replication) can over-attribute;
		// clamp so the residual never goes negative.
		d.PITWaitNs = 0
	}
	return d
}

// String renders the journey as a '#'-prefixed summary line followed by a
// waterfall: one line per span, indented to its start offset.
func (j *Journey) String() string {
	var b strings.Builder
	d := j.Decompose()
	fmt.Fprintf(&b, "# journey trace=%016x instance=%d spans=%d routers=%d complete=%t",
		uint64(j.Trace), j.Instance, len(j.Spans), j.Hops(), j.Complete())
	if j.Incomplete {
		b.WriteString(" incomplete=1")
	}
	if sp := j.DroppedAt(); sp != nil {
		fmt.Fprintf(&b, " dropped-at=%s", sp.Node)
		if sp.Cause != "" {
			fmt.Fprintf(&b, " cause=%s", sp.Cause)
		}
	}
	fmt.Fprintf(&b, " total=%dns fn=%dns queue=%dns wire=%dns pitwait=%dns cpu=%dns path=%s\n",
		d.TotalNs, d.FNNs, d.QueueNs, d.WireNs, d.PITWaitNs, d.CPUNs, j.Path())
	if len(j.Spans) == 0 {
		return b.String()
	}
	first := j.Spans[0].Start
	for i := range j.Spans {
		if j.Spans[i].Start < first {
			first = j.Spans[i].Start
		}
	}
	for i := range j.Spans {
		sp := &j.Spans[i]
		fmt.Fprintf(&b, "  +%-10d %-10s %-14s", sp.Start-first, sp.Kind, sp.Node)
		switch {
		case sp.Kind == SpanLink:
			fmt.Fprintf(&b, " queue=%dns wire=%dns", sp.QueueNs, sp.WireNs)
		case sp.Kind == SpanRouter:
			fmt.Fprintf(&b, " verdict=%s cpu=%dns", sp.Verdict, sp.CPUNs)
		}
		if sp.Dropped {
			fmt.Fprintf(&b, " DROPPED")
			if sp.Cause != "" {
				fmt.Fprintf(&b, " (%s)", sp.Cause)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// PathStat aggregates complete journeys over one (path, proto) pair.
type PathStat struct {
	Path  string
	Proto string
	Count int64
	// TotalHist is the log2 end-to-end latency histogram (telemetry bucket
	// edges: BucketUpper).
	TotalHist [telemetry.HistBuckets]int64
	// Component sums, for diptopo's per-path summary.
	FNNs, QueueNs, WireNs, PITWaitNs, CPUNs int64
}

// Stats is a Collector snapshot.
type Stats struct {
	Spans      uint64
	Journeys   int
	Complete   int64
	Incomplete int64
	Frozen     int64
	Duplicates int64
	Paths      []PathStat
}

// Collector stitches spans into journeys. Safe for concurrent use; every
// span arrives in-process (in topo simulations, on the simulator
// goroutine). A live router's spans go to its Emitter instead.
type Collector struct {
	cfg Config

	mu      sync.Mutex
	seq     uint64
	byTrace map[TraceID][]*Journey
	order   []*Journey // insertion order, for the memory bound
	paths   map[string]*PathStat

	complete   int64
	incomplete int64
	duplicates int64

	// latency excursion tracking over complete journeys
	latHist  [telemetry.HistBuckets]int64
	latCount int64

	flight *FlightRecorder
}

// NewCollector builds a Collector with its anomaly flight recorder.
func NewCollector(cfg Config) *Collector {
	cfg.fill()
	return &Collector{
		cfg:     cfg,
		byTrace: map[TraceID][]*Journey{},
		paths:   map[string]*PathStat{},
		flight:  newFlightRecorder(cfg.FlightSize),
	}
}

// Flight returns the collector's anomaly flight recorder.
func (c *Collector) Flight() *FlightRecorder { return c.flight }

// AddSpan implements SpanSink: file the span into the right journey
// instance and react to what it says (terminal → finalize; anomalous →
// freeze).
func (c *Collector) AddSpan(sp Span) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	sp.Seq = c.seq

	if sp.Trace == 0 {
		// Untraceable (dead letters and cwnd cuts carry only a name);
		// nothing to stitch, but the anomaly is findable by name.
		if sp.Kind == SpanHostDeadLetter {
			c.freezeByNameLocked(sp.Name, FreezeRetx, sp.Start)
		}
		if sp.Kind == SpanHostCwndCut {
			c.freezeByNameLocked(sp.Name, FreezeCwndCut, sp.Start)
		}
		return
	}

	j := c.routeLocked(&sp)
	j.Spans = append(j.Spans, sp)

	if sp.Kind == SpanHostRetx {
		// The retransmission starts a new packet instance; freeze the
		// stalled predecessor so the anomaly that caused the retx survives.
		if insts := c.byTrace[sp.Trace]; len(insts) > 1 {
			c.freezeLocked(insts[len(insts)-2], FreezeRetx, sp.Start)
		}
	}
	if sp.Terminal() && !j.done {
		j.done = true
		c.finalizeLocked(j, sp.Start)
	}
	if sp.Dropped {
		c.freezeLocked(j, FreezeDrop, sp.Start)
	}
}

// routeLocked picks (or opens) the journey instance a span belongs to.
// Fault-injected duplicates surface as a second span with an (element,
// kind) the existing instance already has — each copy gets its own
// instance so both timelines stay coherent.
func (c *Collector) routeLocked(sp *Span) *Journey {
	insts := c.byTrace[sp.Trace]
	if sp.Kind == SpanHostRetx {
		// A retx is by definition a new transmission: open instance N+1.
		return c.openLocked(sp.Trace, insts)
	}
	for _, j := range insts {
		if j.done {
			continue
		}
		if j.has(sp.Kind, sp.Node) {
			continue
		}
		return j
	}
	if len(insts) > 0 {
		c.duplicates++
	}
	return c.openLocked(sp.Trace, insts)
}

func (j *Journey) has(k SpanKind, node string) bool {
	for i := range j.Spans {
		if j.Spans[i].Kind == k && j.Spans[i].Node == node {
			return true
		}
	}
	return false
}

func (c *Collector) openLocked(id TraceID, insts []*Journey) *Journey {
	j := &Journey{Trace: id, Instance: len(insts)}
	c.byTrace[id] = append(insts, j)
	c.order = append(c.order, j)
	c.evictLocked()
	return j
}

// evictLocked enforces the memory bound: the oldest journey is finalized
// as-is. An unfinished evictee is flagged Incomplete — a ring-wraparound
// partial must never masquerade as a finished timeline.
func (c *Collector) evictLocked() {
	for len(c.order) > c.cfg.MaxJourneys {
		j := c.order[0]
		c.order = c.order[1:]
		if !j.done {
			j.Incomplete = true
			c.incomplete++
		}
		insts := c.byTrace[j.Trace]
		for i, cand := range insts {
			if cand == j {
				insts = append(insts[:i], insts[i+1:]...)
				break
			}
		}
		if len(insts) == 0 {
			delete(c.byTrace, j.Trace)
		} else {
			c.byTrace[j.Trace] = insts
		}
	}
}

// finalizeLocked folds a completed journey into the per-path aggregates
// and checks for a tail-latency excursion.
func (c *Collector) finalizeLocked(j *Journey, at int64) {
	c.complete++
	j.sortSpans()
	d := j.Decompose()
	key := j.Path() + "|" + j.Proto()
	ps := c.paths[key]
	if ps == nil {
		ps = &PathStat{Path: j.Path(), Proto: j.Proto()}
		c.paths[key] = ps
	}
	ps.Count++
	ps.TotalHist[bucketOf(d.TotalNs)]++
	ps.FNNs += d.FNNs
	ps.QueueNs += d.QueueNs
	ps.WireNs += d.WireNs
	ps.PITWaitNs += d.PITWaitNs
	ps.CPUNs += d.CPUNs

	// p99.9 excursion: once enough journeys are in, freeze any journey
	// whose total lands above the current p99.9 bucket.
	if c.latCount >= c.cfg.LatencyMinSamples {
		if d.TotalNs > c.p999UpperLocked() {
			c.freezeLocked(j, FreezeLatency, at)
		}
	}
	c.latHist[bucketOf(d.TotalNs)]++
	c.latCount++
}

func bucketOf(ns int64) int {
	b := 0
	for ns > 1 && b < telemetry.HistBuckets-1 {
		ns >>= 1
		b++
	}
	return b
}

// p999UpperLocked returns the upper bound of the bucket holding the 99.9th
// percentile of complete-journey totals so far.
func (c *Collector) p999UpperLocked() int64 {
	target := c.latCount - c.latCount/1000
	var seen int64
	for b := 0; b < telemetry.HistBuckets; b++ {
		seen += c.latHist[b]
		if seen >= target {
			return int64(telemetry.BucketUpper(b))
		}
	}
	return 1<<63 - 1
}

// freezeLocked snapshots the journey into the flight recorder.
func (c *Collector) freezeLocked(j *Journey, reason FreezeReason, at int64) {
	j.sortSpans()
	c.flight.freeze(j, reason, at)
}

// freezeByNameLocked freezes every live journey carrying the given content
// name — the dead-letter path, where the abandoned interest's packets are
// only findable by name.
func (c *Collector) freezeByNameLocked(name uint32, reason FreezeReason, at int64) {
	for _, j := range c.order {
		for i := range j.Spans {
			if j.Spans[i].HasName && j.Spans[i].Name == name {
				c.freezeLocked(j, reason, at)
				break
			}
		}
	}
}

func (j *Journey) sortSpans() {
	sort.SliceStable(j.Spans, func(a, b int) bool {
		if j.Spans[a].Start != j.Spans[b].Start {
			return j.Spans[a].Start < j.Spans[b].Start
		}
		return j.Spans[a].Seq < j.Spans[b].Seq
	})
}

// Journeys snapshots all live journeys, spans stitched (sorted), oldest
// first. The returned journeys are deep copies safe to hold.
func (c *Collector) Journeys() []*Journey {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Journey, 0, len(c.order))
	for _, j := range c.order {
		j.sortSpans()
		cp := *j
		cp.Spans = append([]Span(nil), j.Spans...)
		out = append(out, &cp)
	}
	return out
}

// JourneysOf returns the instances of one trace, stitched, as deep copies.
func (c *Collector) JourneysOf(id TraceID) []*Journey {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Journey, 0, len(c.byTrace[id]))
	for _, j := range c.byTrace[id] {
		j.sortSpans()
		cp := *j
		cp.Spans = append([]Span(nil), j.Spans...)
		out = append(out, &cp)
	}
	return out
}

// Stats snapshots the collector's aggregates. Paths are sorted by
// descending count for stable display.
func (c *Collector) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Spans:      c.seq,
		Journeys:   len(c.order),
		Complete:   c.complete,
		Incomplete: c.incomplete,
		Frozen:     c.flight.Frozen(),
		Duplicates: c.duplicates,
	}
	for _, ps := range c.paths {
		st.Paths = append(st.Paths, *ps)
	}
	sort.Slice(st.Paths, func(a, b int) bool {
		if st.Paths[a].Count != st.Paths[b].Count {
			return st.Paths[a].Count > st.Paths[b].Count
		}
		return st.Paths[a].Path < st.Paths[b].Path
	})
	return st
}
