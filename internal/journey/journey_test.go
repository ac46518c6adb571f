package journey

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"dip/internal/core"
	"dip/internal/host"
	"dip/internal/profiles"
)

func TestFingerprintStableAcrossHops(t *testing.T) {
	pkt, err := host.BuildPacket(profiles.NDNInterest(0xAA000001), nil)
	if err != nil {
		t.Fatal(err)
	}
	id := Fingerprint(pkt)
	if id == 0 {
		t.Fatal("fingerprint must never be zero")
	}
	// Forwarding mutates only the hop limit; the fingerprint must survive.
	hopped := append([]byte(nil), pkt...)
	hopped[hopLimitByte]--
	if got := Fingerprint(hopped); got != id {
		t.Fatalf("fingerprint changed across a hop: %016x -> %016x", uint64(id), uint64(got))
	}
	// A different name is a different packet.
	other, err := host.BuildPacket(profiles.NDNInterest(0xAA000002), nil)
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(other) == id {
		t.Fatal("distinct packets share a fingerprint")
	}
}

func TestTraceCtxRoundTrip(t *testing.T) {
	const want = TraceID(0xDEADBEEFCAFE0001)
	h := WithTraceCtx(profiles.NDNInterest(0xAA000001), want)
	pkt, err := host.BuildPacket(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := TraceOf(pkt); got != want {
		t.Fatalf("TraceOf = %016x, want the explicit TraceCtx %016x", uint64(got), uint64(want))
	}
	// Without a TraceCtx FN the ID falls back to the fingerprint.
	plain, err := host.BuildPacket(profiles.NDNInterest(0xAA000001), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := TraceOf(plain); got != Fingerprint(plain) {
		t.Fatalf("TraceOf without ctx = %016x, want fingerprint %016x",
			uint64(got), uint64(Fingerprint(plain)))
	}
	// Garbage is untraceable.
	if got := TraceOf([]byte{0xFF, 0xFF}); got != 0 {
		t.Fatalf("TraceOf(garbage) = %016x, want 0", uint64(got))
	}
}

func TestSpanStringRoundTrip(t *testing.T) {
	spans := []Span{
		{Trace: 0xABCD, Kind: SpanRouter, Node: "R1", Start: 100, End: 100,
			CPUNs: 4200, Verdict: core.VerdictForward, Proto: "ndn-interest",
			Name: 0xAA000001, HasName: true},
		{Trace: 0xABCD, Kind: SpanLink, Node: "R1->R2", Start: 100, End: 3100,
			QueueNs: 1000, WireNs: 2000},
		{Trace: 0xABCD, Kind: SpanLink, Node: "R2->R3", Start: 3100, End: 3100,
			Dropped: true, Cause: "loss"},
		{Trace: 0xABCD, Kind: SpanRouter, Node: "R3", Start: 99, End: 99,
			Verdict: core.VerdictDrop, Reason: core.DropHopLimit, Dropped: true},
		{Trace: 0x1, Kind: SpanTunnelEncap, Node: "T1", Start: 5, End: 5},
	}
	for _, want := range spans {
		got, err := ParseSpan(want.String())
		if err != nil {
			t.Fatalf("ParseSpan(%q): %v", want.String(), err)
		}
		if got != want {
			t.Fatalf("round trip mismatch:\n got  %+v\n want %+v", got, want)
		}
	}
	if _, err := ParseSpan("# trace seq=1"); err == nil {
		t.Fatal("ParseSpan accepted a non-span line")
	}
}

// mkSpans builds a complete three-element journey: host send, link transit,
// router forward, link transit, host receive.
func mkSpans(tr TraceID) []Span {
	return []Span{
		{Trace: tr, Kind: SpanHostSend, Node: "C", Start: 0, End: 0, Proto: "ndn-interest"},
		{Trace: tr, Kind: SpanLink, Node: "C->R1", Start: 0, End: 1500, QueueNs: 500, WireNs: 1000},
		{Trace: tr, Kind: SpanRouter, Node: "R1", Start: 1500, End: 1500, CPUNs: 900, Verdict: core.VerdictForward},
		{Trace: tr, Kind: SpanLink, Node: "R1->P", Start: 1500, End: 2500, WireNs: 1000},
		{Trace: tr, Kind: SpanHostRecv, Node: "P", Start: 2500, End: 2500},
	}
}

func TestCollectorStitchesCompleteJourney(t *testing.T) {
	c := NewCollector(Config{})
	for _, sp := range mkSpans(0x42) {
		c.AddSpan(sp)
	}
	all := c.Journeys()
	if len(all) != 1 {
		t.Fatalf("got %d journeys, want 1", len(all))
	}
	j := all[0]
	if !j.Complete() || j.Incomplete {
		t.Fatalf("journey not complete: %+v", j)
	}
	if got := j.Hops(); got != 1 {
		t.Fatalf("Hops = %d, want 1 router", got)
	}
	if got := j.Path(); got != "C>R1>P" {
		t.Fatalf("Path = %q, want C>R1>P", got)
	}
	d := j.Decompose()
	if d.TotalNs != 2500 {
		t.Fatalf("TotalNs = %d, want 2500", d.TotalNs)
	}
	if sum := d.FNNs + d.QueueNs + d.WireNs + d.PITWaitNs; sum != d.TotalNs {
		t.Fatalf("decomposition does not sum: fn=%d queue=%d wire=%d pitwait=%d total=%d",
			d.FNNs, d.QueueNs, d.WireNs, d.PITWaitNs, d.TotalNs)
	}
	if d.QueueNs != 500 || d.WireNs != 2000 {
		t.Fatalf("queue=%d wire=%d, want 500/2000", d.QueueNs, d.WireNs)
	}
	if d.CPUNs != 900 {
		t.Fatalf("CPUNs = %d, want 900", d.CPUNs)
	}
	st := c.Stats()
	if st.Complete != 1 || st.Incomplete != 0 || st.Duplicates != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if len(st.Paths) != 1 || st.Paths[0].Count != 1 {
		t.Fatalf("path stats: %+v", st.Paths)
	}
}

func TestCollectorDuplicatePacketsGetOwnInstances(t *testing.T) {
	c := NewCollector(Config{})
	// A fault-injected duplicate: the same packet (same trace ID) crosses
	// the same elements twice. Each copy must get its own timeline.
	c.AddSpan(Span{Trace: 7, Kind: SpanLink, Node: "R1->R2", Start: 0, End: 10, WireNs: 10})
	c.AddSpan(Span{Trace: 7, Kind: SpanRouter, Node: "R2", Start: 10, End: 10, Verdict: core.VerdictForward})
	c.AddSpan(Span{Trace: 7, Kind: SpanLink, Node: "R1->R2", Start: 0, End: 25, WireNs: 25}) // the copy
	c.AddSpan(Span{Trace: 7, Kind: SpanRouter, Node: "R2", Start: 25, End: 25, Verdict: core.VerdictForward})
	insts := c.JourneysOf(7)
	if len(insts) != 2 {
		t.Fatalf("got %d instances, want 2", len(insts))
	}
	if insts[0].Instance == insts[1].Instance {
		t.Fatal("instances share an index")
	}
	if len(insts[0].Spans) != 2 || len(insts[1].Spans) != 2 {
		t.Fatalf("span split %d/%d, want 2/2", len(insts[0].Spans), len(insts[1].Spans))
	}
	if st := c.Stats(); st.Duplicates != 1 {
		t.Fatalf("Duplicates = %d, want 1", st.Duplicates)
	}
}

func TestCollectorReorderedArrival(t *testing.T) {
	c := NewCollector(Config{})
	spans := mkSpans(0x99)
	// Deliver in scrambled order: the terminal host-recv span first would
	// finalize prematurely, so scramble everything except the terminal.
	order := []int{2, 0, 3, 1, 4}
	for _, i := range order {
		c.AddSpan(spans[i])
	}
	all := c.Journeys()
	if len(all) != 1 || !all[0].Complete() {
		t.Fatalf("reordered spans did not stitch into one complete journey: %+v", all)
	}
	got := all[0].Spans
	for i := 1; i < len(got); i++ {
		if got[i].Start < got[i-1].Start {
			t.Fatalf("spans not sorted by start: %d before %d", got[i-1].Start, got[i].Start)
		}
	}
	if got[0].Kind != SpanHostSend || got[len(got)-1].Kind != SpanHostRecv {
		t.Fatalf("stitched order wrong: first=%s last=%s", got[0].Kind, got[len(got)-1].Kind)
	}
}

func TestCollectorEvictionFlagsIncomplete(t *testing.T) {
	c := NewCollector(Config{MaxJourneys: 2})
	// Three partial journeys; the first must be evicted and flagged.
	for tr := TraceID(1); tr <= 3; tr++ {
		c.AddSpan(Span{Trace: tr, Kind: SpanHostSend, Node: "C", Start: int64(tr), End: int64(tr)})
	}
	st := c.Stats()
	if st.Journeys != 2 {
		t.Fatalf("live journeys = %d, want 2", st.Journeys)
	}
	if st.Incomplete != 1 {
		t.Fatalf("Incomplete = %d, want 1", st.Incomplete)
	}
	// The evicted journey is gone from the index; its trace can reappear
	// as a fresh instance without confusion.
	if n := len(c.JourneysOf(1)); n != 0 {
		t.Fatalf("evicted trace still indexed: %d instances", n)
	}
}

func TestFlightRecorderFreezesDrop(t *testing.T) {
	c := NewCollector(Config{})
	c.AddSpan(Span{Trace: 5, Kind: SpanHostSend, Node: "C", Start: 0, End: 0})
	c.AddSpan(Span{Trace: 5, Kind: SpanLink, Node: "C->R1", Start: 0, End: 100,
		WireNs: 100, Dropped: true, Cause: "loss"})
	entries := c.Flight().Entries()
	if len(entries) != 1 {
		t.Fatalf("got %d frozen entries, want 1", len(entries))
	}
	e := entries[0]
	if e.Reason != FreezeDrop {
		t.Fatalf("reason = %s, want drop", e.Reason)
	}
	dropped := e.Journey.DroppedAt()
	if dropped == nil || dropped.Node != "C->R1" || dropped.Cause != "loss" {
		t.Fatalf("drop attribution wrong: %+v", dropped)
	}
}

func TestFlightRecorderFreezesRetxPredecessor(t *testing.T) {
	c := NewCollector(Config{})
	c.AddSpan(Span{Trace: 9, Kind: SpanHostSend, Node: "C", Start: 0, End: 0,
		Name: 0xAA000001, HasName: true})
	c.AddSpan(Span{Trace: 9, Kind: SpanHostRetx, Node: "C", Start: 5000, End: 5000,
		Name: 0xAA000001, HasName: true})
	if got := c.Flight().FrozenBy(FreezeRetx); got != 1 {
		t.Fatalf("FrozenBy(retx) = %d, want 1", got)
	}
	// The retx opened a second instance.
	if n := len(c.JourneysOf(9)); n != 2 {
		t.Fatalf("instances = %d, want 2 (original + retx)", n)
	}
}

func TestFlightRecorderLatencyExcursion(t *testing.T) {
	c := NewCollector(Config{LatencyMinSamples: 8})
	finish := func(tr TraceID, total int64) {
		c.AddSpan(Span{Trace: tr, Kind: SpanHostSend, Node: "C", Start: 0, End: 0})
		c.AddSpan(Span{Trace: tr, Kind: SpanHostRecv, Node: "P", Start: total, End: total})
	}
	for tr := TraceID(1); tr <= 8; tr++ {
		finish(tr, 1000)
	}
	if got := c.Flight().FrozenBy(FreezeLatency); got != 0 {
		t.Fatalf("premature latency freeze: %d", got)
	}
	finish(100, 1_000_000_000) // three decades above the population
	if got := c.Flight().FrozenBy(FreezeLatency); got != 1 {
		t.Fatalf("FrozenBy(latency) = %d, want 1", got)
	}
}

func TestEmitterIngestRoundTrip(t *testing.T) {
	e := NewEmitter(16)
	spans := mkSpans(0x77)
	for _, sp := range spans {
		e.AddSpan(sp)
	}
	if e.Added() != uint64(len(spans)) || e.Dropped() != 0 {
		t.Fatalf("added=%d dropped=%d", e.Added(), e.Dropped())
	}
	var buf bytes.Buffer
	if err := e.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	// Interleave noise the way a real /journeys scrape would carry it.
	text := "# journeys from R1\n" + buf.String() + "\nnot a span\n"
	c := NewCollector(Config{})
	n := 0
	for _, line := range strings.Split(text, "\n") {
		if sp, err := ParseSpan(line); err == nil {
			c.AddSpan(sp)
			n++
		}
	}
	if n != len(spans) {
		t.Fatalf("ingested %d spans, want %d", n, len(spans))
	}
	all := c.Journeys()
	if len(all) != 1 || !all[0].Complete() {
		t.Fatalf("ingested spans did not stitch: %+v", all)
	}
	if got := all[0].Path(); got != "C>R1>P" {
		t.Fatalf("Path = %q after ingest, want C>R1>P", got)
	}
}

func TestEmitterRingBounds(t *testing.T) {
	e := NewEmitter(4)
	for i := 0; i < 10; i++ {
		e.AddSpan(Span{Trace: TraceID(i + 1), Kind: SpanRouter, Node: "R"})
	}
	if got := len(e.Snapshot()); got != 4 {
		t.Fatalf("ring holds %d, want 4", got)
	}
	if e.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", e.Dropped())
	}
}

// A cwnd-cut span (zero trace, name only) freezes every live journey
// carrying that content name — the congestion event's evidence survives.
func TestFlightRecorderFreezesCwndCutByName(t *testing.T) {
	c := NewCollector(Config{})
	const name = 0xAA000042
	c.AddSpan(Span{Trace: 31, Kind: SpanHostSend, Node: "C", Start: 0, End: 0,
		Name: name, HasName: true})
	c.AddSpan(Span{Trace: 31, Kind: SpanLink, Node: "C->R1", Start: 10, End: 400,
		QueueNs: 350, WireNs: 40})
	// The fetcher's controller cuts its window blaming this name.
	c.AddSpan(Span{Kind: SpanHostCwndCut, Node: "C", Start: 5000, End: 5000,
		Name: name, HasName: true})
	if got := c.Flight().FrozenBy(FreezeCwndCut); got != 1 {
		t.Fatalf("FrozenBy(cwnd-cut) = %d, want 1", got)
	}
	entries := c.Flight().Entries()
	if len(entries) != 1 || entries[0].Reason != FreezeCwndCut {
		t.Fatalf("entries %+v", entries)
	}
	// The frozen journey is the stalled transmission, queue time included.
	froze := entries[0].Journey
	if len(froze.Spans) != 2 || froze.Spans[1].QueueNs != 350 {
		t.Fatalf("frozen journey lost its spans: %+v", froze.Spans)
	}
	// Spans naming other content are untouched.
	c.AddSpan(Span{Kind: SpanHostCwndCut, Node: "C", Start: 6000, End: 6000,
		Name: 0xAA000099, HasName: true})
	if got := c.Flight().Frozen(); got != 1 {
		t.Fatalf("unrelated name froze a journey: %d", got)
	}
	// A second cut blaming the same name does not re-freeze the journey it
	// already froze for that reason.
	c.AddSpan(Span{Kind: SpanHostCwndCut, Node: "C", Start: 7000, End: 7000,
		Name: name, HasName: true})
	if got := c.Flight().Frozen(); got != 1 {
		t.Fatalf("same journey frozen twice for one reason: %d entries", got)
	}
}

// Dump writes every retained anomaly to w in dipdump-renderable form.
func (f *FlightRecorder) Dump(w io.Writer) error {
	for _, e := range f.Entries() {
		if _, err := io.WriteString(w, e.String()); err != nil {
			return err
		}
	}
	return nil
}
