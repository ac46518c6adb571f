package extops

import (
	"testing"
	"time"

	"dip/internal/core"
	"dip/internal/telemetry"
)

// ccPacket builds a DIP packet carrying an F_cc FN over a fresh tag.
func ccPacket(t *testing.T, flow uint32) []byte {
	t.Helper()
	h := &core.Header{
		HopLimit:  4,
		FNs:       []core.FN{core.RouterFN(0, CCOperandBits, KeyCC)},
		Locations: NewCCTag(flow),
	}
	b, err := h.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	return append(b, make([]byte, 1000)...) // 1 KB payload drives the rate
}

func ccEngine(t *testing.T, cc *CC) *core.Engine {
	t.Helper()
	reg := core.NewRegistry()
	reg.MustRegister(cc)
	return core.NewEngine(reg, core.Limits{})
}

func processCC(t *testing.T, e *core.Engine, pkt []byte) core.View {
	t.Helper()
	v, err := core.ParseView(pkt)
	if err != nil {
		t.Fatal(err)
	}
	var ctx core.ExecContext
	ctx.Reset(v, 0)
	e.Process(&ctx)
	if ctx.Verdict == core.VerdictDrop {
		t.Fatalf("dropped: %v", ctx.Reason)
	}
	return v
}

func TestCCIncreaseWhenUncongested(t *testing.T) {
	var clock time.Duration
	cc := NewCC(CCConfig{
		CapacityBps: 1e9, // far above what one packet per 10ms produces
		Key:         [16]byte{1},
		Now:         func() int64 { return int64(clock) },
	})
	e := ccEngine(t, cc)
	pkt := ccPacket(t, 7)
	for i := 0; i < 5; i++ {
		clock += 10 * time.Millisecond
		pkt[3] = 4
		v := processCC(t, e, pkt)
		flow, action, _, ok := VerifyCC(&[16]byte{1}, v.Locations())
		if !ok {
			t.Fatal("tag MAC invalid")
		}
		if flow != 7 || action != ActionIncrease {
			t.Fatalf("flow=%d action=%d", flow, action)
		}
	}
	if cc.Flows() != 1 {
		t.Errorf("flows = %d", cc.Flows())
	}
}

func TestCCDecreaseWhenCongested(t *testing.T) {
	var clock time.Duration
	cc := NewCC(CCConfig{
		CapacityBps: 1_000, // 1 KB/s: a 1 KB packet per ms is way over
		Key:         [16]byte{2},
		Now:         func() int64 { return int64(clock) },
	})
	e := ccEngine(t, cc)
	pkt := ccPacket(t, 9)
	var lastAction byte
	for i := 0; i < 20; i++ {
		clock += time.Millisecond
		pkt[3] = 4
		v := processCC(t, e, pkt)
		_, lastAction, _, _ = VerifyCC(&[16]byte{2}, v.Locations())
		// Reset the tag action so each hop decision is observed fresh.
		v.Locations()[ccActionOff] = ActionIncrease
		StampCC(&[16]byte{2}, v.Locations())
	}
	if lastAction != ActionDecrease {
		t.Error("sustained overload did not trigger decrease")
	}
}

func TestCCDecreaseSticksAcrossHops(t *testing.T) {
	// An upstream Decrease must survive a downstream uncongested hop.
	var clock time.Duration
	uncongested := NewCC(CCConfig{
		CapacityBps: 1e12,
		Key:         [16]byte{3},
		Now:         func() int64 { clock += time.Millisecond; return int64(clock) },
	})
	e := ccEngine(t, uncongested)
	pkt := ccPacket(t, 1)
	v, _ := core.ParseView(pkt)
	v.Locations()[ccActionOff] = ActionDecrease // upstream verdict
	v = processCC(t, e, pkt)
	if v.Locations()[ccActionOff] != ActionDecrease {
		t.Error("downstream hop erased upstream congestion feedback")
	}
}

func TestCCTagForgeryDetected(t *testing.T) {
	key := [16]byte{5}
	tag := NewCCTag(3)
	tag[ccActionOff] = ActionDecrease // the router observed congestion
	StampCC(&key, tag)
	if _, action, _, ok := VerifyCC(&key, tag); !ok || action != ActionDecrease {
		t.Fatal("valid tag rejected")
	}
	tag[ccActionOff] = ActionIncrease // a cheater clears congestion feedback
	if _, _, _, ok := VerifyCC(&key, tag); ok {
		t.Error("forged tag accepted")
	}
	if _, _, _, ok := VerifyCC(&key, tag[:8]); ok {
		t.Error("short tag accepted")
	}
}

func TestCCOperandValidation(t *testing.T) {
	cc := NewCC(CCConfig{CapacityBps: 1})
	reg := core.NewRegistry()
	reg.MustRegister(cc)
	e := core.NewEngine(reg, core.Limits{})
	h := &core.Header{
		HopLimit:  4,
		FNs:       []core.FN{core.RouterFN(0, 64, KeyCC)},
		Locations: make([]byte, 8),
	}
	b, _ := h.AppendTo(nil)
	v, _ := core.ParseView(b)
	var ctx core.ExecContext
	ctx.Reset(v, 0)
	e.Process(&ctx)
	if ctx.Verdict != core.VerdictDrop || ctx.Reason != core.DropOpError {
		t.Errorf("got %v/%v", ctx.Verdict, ctx.Reason)
	}
}

func TestAIMD(t *testing.T) {
	a := &AIMD{RateBps: 1000, Step: 100, Floor: 10}
	a.Apply(ActionIncrease)
	if a.RateBps != 1100 {
		t.Errorf("rate %f", a.RateBps)
	}
	a.Apply(ActionDecrease)
	if a.RateBps != 550 {
		t.Errorf("rate %f", a.RateBps)
	}
	for i := 0; i < 20; i++ {
		a.Apply(ActionDecrease)
	}
	if a.RateBps != 10 {
		t.Errorf("floor not enforced: %f", a.RateBps)
	}
}

func telPacket(t *testing.T, slots int) []byte {
	t.Helper()
	h := &core.Header{
		HopLimit:  8,
		FNs:       []core.FN{core.RouterFN(0, TelOperandBits(slots), KeyTel)},
		Locations: NewTelRegion(slots),
	}
	b, err := h.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTelemetryCollectsHops(t *testing.T) {
	base := time.Second
	mkEngine := func(hop uint32, at time.Duration) *core.Engine {
		reg := core.NewRegistry()
		reg.MustRegister(NewTel(TelConfig{HopID: hop, Now: func() int64 { return int64(base + at) }}))
		return core.NewEngine(reg, core.Limits{})
	}
	pkt := telPacket(t, 4)
	hops := []struct {
		id uint32
		at time.Duration
	}{{101, 0}, {202, 3 * time.Millisecond}, {303, 9 * time.Millisecond}}
	for _, h := range hops {
		v, _ := core.ParseView(pkt)
		var ctx core.ExecContext
		ctx.Reset(v, 0)
		mkEngine(h.id, h.at).Process(&ctx)
		if ctx.Verdict == core.VerdictDrop {
			t.Fatalf("dropped at hop %d: %v", h.id, ctx.Reason)
		}
	}
	v, _ := core.ParseView(pkt)
	records, overflow, err := DecodeTel(v.Locations())
	if err != nil || overflow {
		t.Fatalf("decode: %v overflow=%v", err, overflow)
	}
	if len(records) != 3 {
		t.Fatalf("records: %v", records)
	}
	for i, h := range hops {
		if records[i].HopID != h.id {
			t.Errorf("record %d hop %d", i, records[i].HopID)
		}
	}
	// Latency between hop 0 and hop 2 is recoverable.
	if d := records[2].TimestampUs - records[0].TimestampUs; d != 9000 {
		t.Errorf("path latency %d µs, want 9000", d)
	}
}

func TestTelemetryOverflow(t *testing.T) {
	pkt := telPacket(t, 2)
	for hop := uint32(1); hop <= 4; hop++ {
		reg := core.NewRegistry()
		reg.MustRegister(NewTel(TelConfig{HopID: hop}))
		e := core.NewEngine(reg, core.Limits{})
		v, _ := core.ParseView(pkt)
		var ctx core.ExecContext
		ctx.Reset(v, 0)
		e.Process(&ctx)
	}
	v, _ := core.ParseView(pkt)
	records, overflow, err := DecodeTel(v.Locations())
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 || !overflow {
		t.Errorf("records=%d overflow=%v", len(records), overflow)
	}
	// The recorded hops are the first two, untouched by the overflowing ones.
	if records[0].HopID != 1 || records[1].HopID != 2 {
		t.Errorf("records: %v", records)
	}
}

func TestDecodeTelValidation(t *testing.T) {
	if _, _, err := DecodeTel([]byte{1}); err == nil {
		t.Error("tiny region accepted")
	}
	bad := NewTelRegion(1)
	bad[0] = 5 // count beyond capacity
	if _, _, err := DecodeTel(bad); err == nil {
		t.Error("inconsistent count accepted")
	}
}

func TestTelZeroAlloc(t *testing.T) {
	// All providers wired: the rich record (latency, depth, epoch,
	// congestion) must stamp at 0 allocs, same as the toy one did.
	reg := core.NewRegistry()
	reg.MustRegister(NewTel(TelConfig{
		HopID:      7,
		Now:        func() int64 { return 5_000 },
		QueueDepth: func() int { return 3 },
		Epoch:      func() uint32 { return 1 },
	}))
	e := core.NewEngine(reg, core.Limits{})
	pkt := telPacket(t, 4)
	var ctx core.ExecContext
	allocs := testing.AllocsPerRun(500, func() {
		pkt[core.BasicHeaderSize+core.FNSize] = 0 // reset the slot counter byte
		v, _ := core.ParseView(pkt)
		ctx.Reset(v, 0)
		ctx.AdmittedAt = 2_000
		ctx.QueueDepth = 8
		e.Process(&ctx)
	})
	if allocs != 0 {
		t.Errorf("F_tel allocates %.1f", allocs)
	}
}

// TestTelDefaultClockTimedAndUntimed pins the default timestamp source under
// the observation diprouter always installs: Metrics times one packet in 64,
// where F_tel reuses the engine's reading (ctx.MonoNow), and on the other 63
// MonoNow is zero and F_tel reads the clock itself — both stamp wall µs.
func TestTelDefaultClockTimedAndUntimed(t *testing.T) {
	reg := core.NewRegistry()
	reg.MustRegister(NewTel(TelConfig{HopID: 7}))
	e := core.NewEngine(reg, core.Limits{})
	m := &telemetry.Metrics{}
	e.SetRecorder(m)
	pkt := telPacket(t, 1)
	var ctx core.ExecContext
	const slack = 5 // µs: truncation in the wall↔monotonic conversions
	timed := 0
	for i := 0; i < 128; i++ {
		pkt[core.BasicHeaderSize+core.FNSize] = 0 // reset the slot counter byte
		v, _ := core.ParseView(pkt)
		ctx.Reset(v, 0)
		before := time.Now().UnixMicro()
		e.Process(&ctx)
		after := time.Now().UnixMicro()
		if ctx.Obs.Timed != (ctx.MonoNow != 0) {
			t.Fatalf("packet %d: Timed=%v but MonoNow=%v", i+1, ctx.Obs.Timed, ctx.MonoNow)
		}
		if ctx.Obs.Timed {
			timed++
		}
		records, _, err := DecodeTel(v.Locations())
		if err != nil || len(records) != 1 {
			t.Fatalf("packet %d: records %v, %v", i+1, records, err)
		}
		// The slot keeps the low 32 bits; compare modulo 2^32.
		ts := records[0].TimestampUs
		if ts-uint32(before-slack) > uint32(after-before+2*slack) {
			t.Errorf("packet %d (timed %v): stamp %d outside wall µs [%d, %d]", i+1, ctx.Obs.Timed, ts, uint32(before), uint32(after))
		}
	}
	if timed != 2 {
		t.Errorf("%d of 128 packets timed, want 2", timed)
	}
	if s := m.Snapshot(); len(s.Ops) != 1 || s.Ops[0].Count != 128 || s.Ops[0].Timed != 2 {
		t.Errorf("F_tel stats: %+v", s.Ops)
	}
}

func TestTelemetryRichRecord(t *testing.T) {
	reg := core.NewRegistry()
	reg.MustRegister(NewTel(TelConfig{
		HopID:      42,
		Now:        func() int64 { return 5_000_000 }, // 5000 µs
		QueueDepth: func() int { return 3 },
		Epoch:      func() uint32 { return 9 },
		CongestAt:  10,
	}))
	e := core.NewEngine(reg, core.Limits{})
	pkt := telPacket(t, 2)
	v, _ := core.ParseView(pkt)
	var ctx core.ExecContext
	ctx.Reset(v, 5)
	ctx.AdmittedAt = 4_997_500 // latency = 5_000_000 - 4_997_500
	ctx.QueueDepth = 12        // beats the provider's 3, trips CongestAt=10
	e.Process(&ctx)
	if ctx.Verdict == core.VerdictDrop {
		t.Fatalf("dropped: %v", ctx.Reason)
	}
	v, _ = core.ParseView(pkt)
	records, overflow, err := DecodeTel(v.Locations())
	if err != nil || overflow || len(records) != 1 {
		t.Fatalf("decode: %v overflow=%v records=%v", err, overflow, records)
	}
	r := records[0]
	if r.HopID != 42 || r.TimestampUs != 5000 {
		t.Errorf("identity fields: %+v", r)
	}
	if r.LatencyNs != 2500 {
		t.Errorf("latency %d ns, want 2500", r.LatencyNs)
	}
	if r.Epoch != 9 {
		t.Errorf("epoch %d, want 9", r.Epoch)
	}
	if r.Ingress != 5 {
		t.Errorf("ingress %d, want 5", r.Ingress)
	}
	if r.Egress != TelPortNone {
		t.Errorf("egress %d, want none (no match FN ran)", r.Egress)
	}
	if r.QueueDepth != 12 {
		t.Errorf("queue depth %d, want 12", r.QueueDepth)
	}
	if !r.Congested() {
		t.Error("congestion flag not set at depth 12 ≥ threshold 10")
	}
}

func TestTelemetryEgressAndFallbackDepth(t *testing.T) {
	// Without a burst-admission snapshot, the hop's own provider supplies
	// the depth; a chosen egress port is stamped.
	tel := NewTel(TelConfig{HopID: 7, QueueDepth: func() int { return 4 }})
	pkt := telPacket(t, 1)
	v, _ := core.ParseView(pkt)
	var ctx core.ExecContext
	ctx.Reset(v, 1)
	ctx.AddEgress(3)
	if err := tel.Execute(&ctx, 0, uint(TelOperandBits(1))); err != nil {
		t.Fatal(err)
	}
	records, _, err := DecodeTel(v.Locations())
	if err != nil || len(records) != 1 {
		t.Fatalf("decode: %v records=%v", err, records)
	}
	if records[0].Ingress != 1 || records[0].Egress != 3 {
		t.Errorf("ports in=%d out=%d, want 1/3", records[0].Ingress, records[0].Egress)
	}
	if records[0].QueueDepth != 4 {
		t.Errorf("fallback depth %d, want 4", records[0].QueueDepth)
	}
	if records[0].LatencyNs != 0 {
		t.Errorf("latency %d without a clock provider, want 0", records[0].LatencyNs)
	}
}

func FuzzDecodeTel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	ok2 := NewTelRegion(2)
	ok2[0] = 2
	f.Add(ok2)
	over := NewTelRegion(1)
	over[0] = 0x81 // one slot, overflow bit set
	f.Add(over)
	bad := NewTelRegion(1)
	bad[0] = 5 // count beyond capacity
	f.Add(bad)
	f.Add(append(NewTelRegion(1), 0xFF)) // ragged tail byte
	f.Fuzz(func(t *testing.T, region []byte) {
		records, _, err := DecodeTel(region)
		if err != nil {
			if records != nil {
				t.Fatalf("records returned alongside error %v", err)
			}
			return
		}
		capacity := (len(region) - telSlotsOff) / TelSlotSize
		if len(records) > capacity {
			t.Fatalf("%d records from capacity-%d region", len(records), capacity)
		}
	})
}

// Flows returns the number of tracked flows (tests, telemetry).
func (o *CC) Flows() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.flows)
}
