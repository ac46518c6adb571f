package pisa

import (
	"encoding/binary"
	"sync"
	"testing"

	"dip/internal/core"
	"dip/internal/extops"
	"dip/internal/fib"
	"dip/internal/ops"
	"dip/internal/profiles"
)

func TestRegisterArray(t *testing.T) {
	r := NewRegisterArray("flows", 8)
	if r.Name() != "flows" || r.Len() != 8 || r.Bytes() != 32 {
		t.Errorf("metadata: %s %d %d", r.Name(), r.Len(), r.Bytes())
	}
	if got := r.RMW(3, func(v uint32) uint32 { return v + 5 }); got != 5 {
		t.Errorf("RMW = %d", got)
	}
	if r.Read(3) != 5 {
		t.Errorf("Read = %d", r.Read(3))
	}
	if r.RMW(99, func(v uint32) uint32 { return 1 }) != 0 || r.Read(-1) != 0 {
		t.Error("out-of-range cells must be inert")
	}
	// Atomicity under contention.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.RMW(0, func(v uint32) uint32 { return v + 1 })
			}
		}()
	}
	wg.Wait()
	if r.Read(0) != 8000 {
		t.Errorf("lost updates: %d", r.Read(0))
	}
}

func TestTableRuntimeMutationAndStats(t *testing.T) {
	tb := &Table{
		Kind: MatchExact,
		Key:  func(phv *PHV, _ *Metadata) []byte { return phv.Bytes(tfA) },
	}
	hit := 0
	if err := tb.InsertEntry(Entry{Key: []byte{7}, Action: func(*PHV, *Metadata) { hit++ }}); err != nil {
		t.Fatal(err)
	}
	var phv PHV
	var md Metadata
	phv.Set(tfA, []byte{7})
	tb.Apply(&phv, &md)
	phv.Set(tfA, []byte{8})
	tb.Apply(&phv, &md)
	if hit != 1 {
		t.Errorf("hits ran %d", hit)
	}
	if s := tb.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats %+v", s)
	}
	if n := tb.DeleteEntries(func(e Entry) bool { return e.Key[0] == 7 }); n != 1 {
		t.Errorf("deleted %d", n)
	}
	if tb.EntryCount() != 0 {
		t.Errorf("count %d", tb.EntryCount())
	}
	phv.Set(tfA, []byte{7})
	tb.Apply(&phv, &md)
	if hit != 1 {
		t.Error("deleted entry still firing")
	}
}

func TestUsageAndBudget(t *testing.T) {
	cfg := ops.Config{FIB32: fib.New()}
	for i := uint32(0); i < 100; i++ {
		cfg.FIB32.AddUint32(i<<16, 16, fib.NextHop{Port: 1})
	}
	pl, err := Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	regs := NewRegisterArray("r", 1024)
	u := pl.Usage(regs)
	if u.Stages != len(pl.Stages) || u.Entries < 100 || u.RegisterBytes != 4096 {
		t.Errorf("usage %+v", u)
	}
	if err := u.CheckBudget(); err != nil {
		t.Errorf("in-budget pipeline rejected: %v", err)
	}
	over := u
	over.MaxStageWidth = MaxTablesPerStage + 1
	if over.CheckBudget() == nil {
		t.Error("stage-width violation accepted")
	}
	over = u
	over.RegisterBytes = MaxRegisterBytes + 1
	if over.CheckBudget() == nil {
		t.Error("register violation accepted")
	}
	over = u
	over.Stages = MaxStages + 1
	if over.CheckBudget() == nil {
		t.Error("stage violation accepted")
	}
	over = u
	over.ParserStates = MaxParserStates + 1
	if over.CheckBudget() == nil {
		t.Error("parser violation accepted")
	}
}

// The flagship runtime-programmability scenario: F_tel is installed into a
// live PISA switch via table writes; packets carrying key 14 collect
// telemetry only after installation, and stop after removal.
func TestInstallOperationAtRuntime(t *testing.T) {
	cfg := ops.Config{FIB32: fib.New()}
	cfg.FIB32.AddUint32(0x0A000000, 8, fib.NextHop{Port: 1})
	prog, err := CompileProgram(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Composed packet: DIP-32 forwarding + an F_tel operand.
	h := profiles.IPv4([4]byte{1, 1, 1, 1}, [4]byte{10, 0, 0, 9})
	telOff := uint16(len(h.Locations) * 8)
	h.Locations = append(h.Locations, extops.NewTelRegion(2)...)
	h.FNs = append(h.FNs, core.FN{Loc: telOff, Len: extops.TelOperandBits(2), Key: extops.KeyTel})
	pkt, err := h.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}

	run := func() []extops.HopRecord {
		t.Helper()
		cp := append([]byte(nil), pkt...)
		var phv PHV
		var md Metadata
		out, err := prog.Pipeline.Process(cp, 0, &phv, &md)
		if err != nil || md.Drop {
			t.Fatalf("md=%+v err=%v", md, err)
		}
		if md.NEgress != 1 {
			t.Fatalf("forwarding broken: %+v", md)
		}
		v, _ := core.ParseView(out)
		records, _, err := extops.DecodeTel(v.Locations()[telOff/8:])
		if err != nil {
			t.Fatal(err)
		}
		return records
	}

	// Before installation key 14 is unknown: ignored, no telemetry.
	if records := run(); len(records) != 0 {
		t.Fatalf("telemetry before installation: %v", records)
	}

	// Install F_tel with a register-backed hop counter at runtime.
	seq := NewRegisterArray("tel_seq", 1)
	err = prog.InstallOperation(extops.KeyTel, func(op Operand, _ *PHV, md *Metadata) {
		region := op.Bytes()
		if region == nil {
			md.DropWith("unsupported-slice")
			return
		}
		count := int(region[0])
		if 4+(count+1)*extops.TelSlotSize > len(region) {
			region[0] |= 0x80
			return
		}
		slot := region[4+count*extops.TelSlotSize:]
		binary.BigEndian.PutUint32(slot, 0x51)
		binary.BigEndian.PutUint32(slot[4:], seq.RMW(0, func(v uint32) uint32 { return v + 1 }))
		region[0] = byte(count + 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	records := run()
	if len(records) != 1 || records[0].HopID != 0x51 || records[0].TimestampUs != 1 {
		t.Fatalf("telemetry after installation: %v", records)
	}
	if records := run(); len(records) != 1 || records[0].TimestampUs != 2 {
		t.Fatalf("register state not advancing: %v", records)
	}

	// Withdraw the module: key 14 is ignored again.
	if n := prog.RemoveOperation(extops.KeyTel); n != MaxFNSlots {
		t.Fatalf("removed %d entries", n)
	}
	if records := run(); len(records) != 0 {
		t.Fatalf("telemetry after removal: %v", records)
	}
}

func TestInstallOperationValidation(t *testing.T) {
	prog, err := CompileProgram(ops.Config{FIB32: fib.New()})
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.InstallOperation(core.KeyInvalid, nil); err == nil {
		t.Error("key 0 installed")
	}
	if err := prog.InstallOperation(0x8001, nil); err == nil {
		t.Error("key above 15 bits installed")
	}
}

func TestOperandBytes(t *testing.T) {
	region := []byte{1, 2, 3, 4}
	if b := (Operand{LocBits: 8, LenBits: 16, Region: region}).Bytes(); len(b) != 2 || b[0] != 2 {
		t.Errorf("aligned: %v", b)
	}
	if (Operand{LocBits: 4, LenBits: 16, Region: region}).Bytes() != nil {
		t.Error("unaligned loc accepted")
	}
	if (Operand{LocBits: 0, LenBits: 12, Region: region}).Bytes() != nil {
		t.Error("unaligned len accepted")
	}
	if (Operand{LocBits: 24, LenBits: 16, Region: region}).Bytes() != nil {
		t.Error("out of range accepted")
	}
}
