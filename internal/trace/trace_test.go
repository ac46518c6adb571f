package trace

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dip/internal/core"
	"dip/internal/fib"
	"dip/internal/ops"
	"dip/internal/profiles"
	"dip/internal/telemetry"
)

// buildIPv4 returns a parsed IPv4-profile packet and its engine-ready view.
func buildIPv4(t *testing.T) []byte {
	t.Helper()
	h := profiles.IPv4([4]byte{1, 1, 1, 1}, [4]byte{10, 0, 0, 9})
	pkt, err := h.AppendTo(make([]byte, 0, h.WireSize()))
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

func routerEngine(t *testing.T, rec core.Recorder) *core.Engine {
	t.Helper()
	cfg := ops.Config{FIB32: fib32(t)}
	e := core.NewEngine(ops.NewRouterRegistry(cfg), core.Limits{})
	e.SetRecorder(rec)
	return e
}

func process(t *testing.T, e *core.Engine, pkt []byte) core.ExecContext {
	t.Helper()
	pkt[3] = 64 // re-arm hop limit across runs
	v, err := core.ParseView(pkt)
	if err != nil {
		t.Fatal(err)
	}
	var ctx core.ExecContext
	ctx.Reset(v, 3)
	e.Process(&ctx)
	return ctx
}

func TestEveryPacketSampled(t *testing.T) {
	m := &telemetry.Metrics{}
	r := NewRecorder(m, 1, 8, nil, nil)
	e := routerEngine(t, r)
	pkt := buildIPv4(t)
	for i := 0; i < 5; i++ {
		process(t, e, pkt)
	}
	if got := r.Sampled(); got != 5 {
		t.Fatalf("sampled %d, want 5", got)
	}
	recs := r.Snapshot()
	if len(recs) != 5 {
		t.Fatalf("snapshot has %d records, want 5", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i) {
			t.Errorf("record %d has seq %d", i, rec.Seq)
		}
		if rec.InPort != 3 {
			t.Errorf("in-port %d, want 3", rec.InPort)
		}
		if rec.Verdict != core.VerdictForward {
			t.Errorf("verdict %v, want forward", rec.Verdict)
		}
		if rec.NSteps == 0 {
			t.Error("no steps recorded")
		}
		if rec.Steps[0].Key != core.KeyMatch32 {
			t.Errorf("first step %v, want F_32_match", rec.Steps[0].Key)
		}
		if rec.NEgr != 1 || rec.Egress[0] != 1 {
			t.Errorf("egress %v[:%d], want [1]", rec.Egress, rec.NEgr)
		}
		if int(rec.PktLen) != len(buildIPv4(t)) || int(rec.PktTotal) != len(buildIPv4(t)) {
			t.Errorf("capture %d/%d bytes, want full %d-byte packet", rec.PktLen, rec.PktTotal, len(buildIPv4(t)))
		}
	}
	// The aggregate recorder saw every op even though only samples ring.
	if s := m.Snapshot(); len(s.Ops) == 0 {
		t.Error("inner metrics recorded nothing")
	}
}

func TestSamplingDivisor(t *testing.T) {
	r := NewRecorder(nil, 10, 64, nil, nil)
	e := routerEngine(t, r)
	pkt := buildIPv4(t)
	const n = 200
	// One reused context, as a forwarder owns one: the sampling decision
	// counts the packets a context has carried, so the count is an exact
	// 1-in-10 (a fresh context per packet would never reach its 10th).
	var ctx core.ExecContext
	for i := 0; i < n; i++ {
		pkt[3] = 64
		v, err := core.ParseView(pkt)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Reset(v, 3)
		e.Process(&ctx)
	}
	if got := r.Sampled(); got != n/10 {
		t.Fatalf("sampled %d of %d at 1-in-10, want %d", got, n, n/10)
	}
	if seen := r.Seen(); seen != n {
		t.Fatalf("seen %d, want %d", seen, n)
	}
}

func TestRingOverwrite(t *testing.T) {
	r := NewRecorder(nil, 1, 4, nil, nil)
	e := routerEngine(t, r)
	pkt := buildIPv4(t)
	for i := 0; i < 10; i++ {
		process(t, e, pkt)
	}
	if got := r.Overwritten(); got != 6 {
		t.Fatalf("overwritten %d, want 6", got)
	}
	recs := r.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("ring holds %d records, want 4", len(recs))
	}
	if recs[0].Seq != 6 || recs[3].Seq != 9 {
		t.Fatalf("ring retains seqs %d..%d, want 6..9", recs[0].Seq, recs[3].Seq)
	}
}

// TestLappedWriterKeepsItsSlot is the interleaving TestConcurrentSampling
// only reaches by luck, run deterministically: a writer stalls between
// BeginPacket and EndPacket while other packets take a whole ring of
// samples. The sample that comes round to the stalled writer's slot is
// dropped and counted, never a second writer into the same record; the
// stalled writer then seals a record that is entirely its own, and the slot
// serves the next lap as usual.
func TestLappedWriterKeepsItsSlot(t *testing.T) {
	r := NewRecorder(nil, 1, 4, nil, nil)
	e := routerEngine(t, r)
	pkt := buildIPv4(t)
	v, err := core.ParseView(pkt)
	if err != nil {
		t.Fatal(err)
	}
	var stalled core.ExecContext
	stalled.Reset(v, 9)
	r.BeginPacket(&stalled) // seq 0 takes slot 0 and stalls
	for i := 0; i < 4; i++ {
		process(t, e, pkt) // seqs 1–3 fill slots 1–3; seq 4 finds slot 0 taken
	}
	if got := r.Overwritten(); got != 1+1 { // the dropped seq 4, and five samples over four slots
		t.Fatalf("overwritten %d with a writer lapped once, want 2", got)
	}
	stalled.Verdict = core.VerdictDeliver
	r.EndPacket(&stalled)
	recs := r.Snapshot()
	if len(recs) != 3 || recs[0].Seq != 1 || recs[2].Seq != 3 {
		t.Fatalf("snapshot %+v, want seqs 1..3 (seq 0 is out of the window, seq 4 was dropped)", recs)
	}
	if rec := r.slots[0].rec; rec.Seq != 0 || rec.InPort != 9 || rec.Verdict != core.VerdictDeliver || r.slots[0].ver.Load()%2 != 0 {
		t.Fatalf("slot 0 holds %+v at version %d, want the stalled writer's sealed record", rec, r.slots[0].ver.Load())
	}
	for i := 0; i < 4; i++ {
		process(t, e, pkt) // seqs 5–8: the next lap reuses slot 0 for seq 8
	}
	if recs = r.Snapshot(); len(recs) != 4 || recs[0].Seq != 5 || recs[3].Seq != 8 {
		t.Fatalf("after the next lap the ring holds %d records from seq %d, want 5..8", len(recs), recs[0].Seq)
	}
}

func TestDropReasonTraced(t *testing.T) {
	r := NewRecorder(nil, 1, 8, nil, nil)
	// No route for the destination → no-route drop.
	cfg := ops.Config{FIB32: emptyFIB(t)}
	e := core.NewEngine(ops.NewRouterRegistry(cfg), core.Limits{})
	e.SetRecorder(r)
	pkt := buildIPv4(t)
	process(t, e, pkt)
	recs := r.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("want 1 record, got %d", len(recs))
	}
	if recs[0].Verdict != core.VerdictDrop || recs[0].Reason != core.DropNoRoute {
		t.Fatalf("traced %v/%v, want drop/no-route", recs[0].Verdict, recs[0].Reason)
	}
}

func TestRecordStringDumpFormat(t *testing.T) {
	r := NewRecorder(nil, 1, 8, nil, nil)
	e := routerEngine(t, r)
	process(t, e, buildIPv4(t))
	var b strings.Builder
	if err := r.Dump(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("dump of one record has %d lines, want metadata + hex:\n%s", len(lines), out)
	}
	for _, want := range []string{"# trace seq=0", "verdict=forward", "in=3", "steps=", "F_32_match:", "egress=1"} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("metadata line missing %q: %s", want, lines[0])
		}
	}
	if strings.ContainsAny(lines[1], "# ") || len(lines[1])%2 != 0 {
		t.Errorf("second line is not bare hex: %q", lines[1])
	}
}

func TestConcurrentSampling(t *testing.T) {
	r := NewRecorder(&telemetry.Metrics{}, 2, 256, nil, nil)
	e := routerEngine(t, r)
	var wg sync.WaitGroup
	const workers, per = 8, 500
	base := buildIPv4(t)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pkt := append([]byte(nil), base...)
			v, err := core.ParseView(pkt)
			if err != nil {
				panic(err)
			}
			var ctx core.ExecContext
			for i := 0; i < per; i++ {
				pkt[3] = 64
				ctx.Reset(v, 0)
				e.Process(&ctx)
			}
		}()
	}
	wg.Wait()
	if seen := r.Seen(); seen != workers*per {
		t.Fatalf("seen %d, want %d", seen, workers*per)
	}
	// Each worker samples 1-in-2 of what its own context carries.
	sampled := r.Sampled()
	if sampled < workers*per/4 || sampled > workers*per {
		t.Fatalf("sampled %d of %d at 1-in-2: striping broke the rate", sampled, workers*per)
	}
	// Every stable snapshot record is internally consistent.
	for _, rec := range r.Snapshot() {
		if rec.Verdict != core.VerdictForward || rec.NSteps == 0 {
			t.Fatalf("torn record: %+v", rec)
		}
	}
}

// TestUnsampledZeroAlloc pins the contract the whole design hangs on: with
// tracing installed and sampling enabled, the unsampled path allocates
// nothing. (The sampled path is also allocation-free; the root
// zeroalloc_test covers the mixed case end to end.)
func TestUnsampledZeroAlloc(t *testing.T) {
	r := NewRecorder(&telemetry.Metrics{}, 1<<30, 8, nil, nil) // effectively never samples
	e := routerEngine(t, r)
	pkt := buildIPv4(t)
	v, err := core.ParseView(pkt)
	if err != nil {
		t.Fatal(err)
	}
	var ctx core.ExecContext
	run := func() {
		pkt[3] = 64
		ctx.Reset(v, 0)
		e.Process(&ctx)
	}
	run()
	if n := testing.AllocsPerRun(200, run); n != 0 {
		t.Fatalf("unsampled traced path allocates %.1f/op, want 0", n)
	}
}

func TestSampledZeroAlloc(t *testing.T) {
	r := NewRecorder(&telemetry.Metrics{}, 1, 64, nil, nil) // sample every packet
	e := routerEngine(t, r)
	pkt := buildIPv4(t)
	v, err := core.ParseView(pkt)
	if err != nil {
		t.Fatal(err)
	}
	var ctx core.ExecContext
	run := func() {
		pkt[3] = 64
		ctx.Reset(v, 0)
		e.Process(&ctx)
	}
	run()
	if n := testing.AllocsPerRun(200, run); n != 0 {
		t.Fatalf("sampled trace path allocates %.1f/op, want 0", n)
	}
}

func fib32(t *testing.T) *fib.Table {
	t.Helper()
	f := fib.New()
	if err := f.AddUint32(0x0A000000, 8, fib.NextHop{Port: 1}); err != nil {
		t.Fatal(err)
	}
	return f
}

func emptyFIB(t *testing.T) *fib.Table {
	t.Helper()
	return fib.New()
}

// TestCaptureStampOrdering pins the export-ordering contract: every record
// carries a dense Seq and an At stamp from the recorder's clock, so rings
// from several routers merge into one correctly ordered stream by (At, Seq).
// The sink sees each record once, complete, with an end stamp read from the
// same clock.
func TestCaptureStampOrdering(t *testing.T) {
	var vclock int64
	var sealed []Record
	var ends []int64
	r := NewRecorder(nil, 1, 8, func() int64 { vclock += 100; return vclock }, func(rec *Record, end int64, _ core.View) {
		sealed = append(sealed, *rec)
		ends = append(ends, end)
	})
	e := routerEngine(t, r)
	pkt := buildIPv4(t)
	for i := 0; i < 4; i++ {
		process(t, e, pkt)
	}
	recs := r.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("snapshot has %d records, want 4", len(recs))
	}
	for i, rec := range recs {
		if rec.Seq != uint64(i) {
			t.Fatalf("record %d has Seq=%d, want dense sequence", i, rec.Seq)
		}
		if i > 0 && recs[i].At <= recs[i-1].At {
			t.Fatalf("At not increasing on the virtual clock: %d then %d",
				recs[i-1].At, recs[i].At)
		}
	}
	if !strings.Contains(recs[0].String(), " at=") {
		t.Fatalf("Record.String missing the at= stamp: %s", recs[0].String())
	}
	if len(sealed) != len(recs) {
		t.Fatalf("sink saw %d records, ring holds %d", len(sealed), len(recs))
	}
	for i := range recs {
		if sealed[i] != recs[i] || ends[i] != recs[i].At+100 {
			t.Fatalf("sink record %d: %+v ending at %d, ring has %+v", i, sealed[i], ends[i], recs[i])
		}
	}
}

// stagedOp is a no-op operation with a declared parallel stage; a positive
// delay makes it finish after its wave-mates that have none.
type stagedOp struct {
	key   core.Key
	stage int
	delay time.Duration
}

func (o stagedOp) Key() core.Key { return o.key }
func (o stagedOp) Name() string  { return o.key.String() }
func (o stagedOp) Stage() int    { return o.stage }
func (o stagedOp) Execute(*core.ExecContext, uint, uint) error {
	time.Sleep(o.delay)
	return nil
}

func recordKeys(rec Record) []core.Key {
	keys := make([]core.Key, rec.NSteps)
	for i := range keys {
		keys[i] = rec.Steps[i].Key
	}
	return keys
}

// TestParallelWaveStepOrder pins the record of a parallel-flag packet: every
// wave step appears exactly once, stages in order and FN-list order inside a
// wave — not completion order, which the delays below would scramble.
func TestParallelWaveStepOrder(t *testing.T) {
	reg := core.NewRegistry()
	reg.MustRegister(
		stagedOp{key: core.KeyParm, stage: 0},
		stagedOp{key: core.KeyMAC, stage: 1, delay: 3 * time.Millisecond}, // first in its wave, last to finish
		stagedOp{key: core.KeyMark, stage: 1, delay: time.Millisecond},
		stagedOp{key: core.KeyFIB, stage: 1},
		stagedOp{key: core.KeyPIT, stage: 2},
	)
	m := &telemetry.Metrics{}
	r := NewRecorder(m, 1, 8, nil, nil)
	e := core.NewEngine(reg, core.Limits{})
	e.SetRecorder(r)
	h := &core.Header{
		Parallel: true,
		FNs: []core.FN{
			core.RouterFN(0, 8, core.KeyMAC),
			core.RouterFN(0, 8, core.KeyPIT),
			core.RouterFN(0, 8, core.KeyMark),
			core.RouterFN(0, 8, core.KeyParm),
			core.RouterFN(0, 8, core.KeyFIB),
		},
		Locations: make([]byte, 1),
	}
	pkt, err := h.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []core.Key{core.KeyParm, core.KeyMAC, core.KeyMark, core.KeyFIB, core.KeyPIT}
	for i := 0; i < 3; i++ {
		process(t, e, pkt)
	}
	for _, rec := range r.Snapshot() {
		if got := recordKeys(rec); !slices.Equal(got, want) {
			t.Fatalf("record %d steps %v, want wave order %v", rec.Seq, got, want)
		}
	}
	for _, op := range m.Snapshot().Ops {
		if op.Count != 3 {
			t.Errorf("%v counted %d times over 3 packets", op.Key, op.Count)
		}
	}
}

// TestStepTruncation pins the record's bound: a packet executing more than
// MaxSteps FNs keeps the first MaxSteps and counts the rest in Truncated,
// while the metrics underneath still count every one of them.
func TestStepTruncation(t *testing.T) {
	const extra = 8
	reg := core.NewRegistry()
	reg.MustRegister(stagedOp{key: core.KeyFIB}, stagedOp{key: core.KeyPIT})
	m := &telemetry.Metrics{}
	r := NewRecorder(m, 1, 8, nil, nil)
	e := core.NewEngine(reg, core.Limits{})
	e.SetRecorder(r)
	h := &core.Header{Locations: make([]byte, 1)}
	for i := 0; i < MaxSteps; i++ {
		h.FNs = append(h.FNs, core.RouterFN(0, 8, core.KeyFIB))
	}
	for i := 0; i < extra; i++ {
		h.FNs = append(h.FNs, core.RouterFN(0, 8, core.KeyPIT))
	}
	pkt, err := h.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	process(t, e, pkt)
	rec := r.Snapshot()[0]
	if rec.NSteps != MaxSteps || rec.Truncated != extra {
		t.Fatalf("record keeps %d steps, truncated %d; want %d and %d", rec.NSteps, rec.Truncated, MaxSteps, extra)
	}
	for _, k := range recordKeys(rec) {
		if k != core.KeyFIB {
			t.Fatalf("retained step %v is not among the first %d", k, MaxSteps)
		}
	}
	counts := map[core.Key]int64{}
	for _, op := range m.Snapshot().Ops {
		counts[op.Key] = op.Count
	}
	if counts[core.KeyFIB] != MaxSteps || counts[core.KeyPIT] != extra {
		t.Fatalf("metrics counted %v, want all %d+%d executed FNs", counts, MaxSteps, extra)
	}
}
