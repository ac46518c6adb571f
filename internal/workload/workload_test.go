package workload

import (
	"bytes"
	"testing"

	"dip/internal/core"
	"dip/internal/drkey"
	"dip/internal/fib"
	"dip/internal/ops"
	"dip/internal/opt"
	"dip/internal/pit"
)

func testSession(t *testing.T) (*opt.Session, *drkey.SecretValue) {
	t.Helper()
	sv, err := drkey.NewSecretValue("r", bytes.Repeat([]byte{1}, 16))
	if err != nil {
		t.Fatal(err)
	}
	dst, _ := drkey.NewSecretValue("d", bytes.Repeat([]byte{2}, 16))
	sess, err := opt.NewSession(opt.Kind2EM, []opt.HopConfig{{Secret: sv}}, dst)
	if err != nil {
		t.Fatal(err)
	}
	return sess, sv
}

func TestGenerateDeterministic(t *testing.T) {
	spec := Spec{Weights: map[Protocol]float64{ProtoIPv4: 1, ProtoNDN: 1}, Seed: 42}
	a, err := Generate(spec, 100)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate(spec, 100)
	if len(a.Packets) != len(b.Packets) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Packets), len(b.Packets))
	}
	for i := range a.Packets {
		if !bytes.Equal(a.Packets[i].Buf, b.Packets[i].Buf) || a.Packets[i].InPort != b.Packets[i].InPort {
			t.Fatalf("packet %d differs", i)
		}
	}
}

func TestGenerateMixAndValidity(t *testing.T) {
	sess, _ := testSession(t)
	spec := Spec{
		Weights:    map[Protocol]float64{ProtoIPv4: 2, ProtoIPv6: 1, ProtoNDN: 1, ProtoOPT: 1, ProtoNDNOPT: 1},
		Names:      64,
		ZipfS:      1.2,
		PacketSize: 128,
		Ports:      8,
		Session:    sess,
		Seed:       7,
	}
	tr, err := Generate(spec, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Packets) < 500 {
		t.Fatalf("only %d packets", len(tr.Packets))
	}
	for _, p := range []Protocol{ProtoIPv4, ProtoIPv6, ProtoNDN, ProtoOPT, ProtoNDNOPT} {
		if tr.Counts[p] == 0 {
			t.Errorf("no %v packets generated", p)
		}
	}
	for i, p := range tr.Packets {
		if len(p.Buf) < spec.PacketSize {
			t.Fatalf("packet %d is %d bytes", i, len(p.Buf))
		}
		if p.InPort < 0 || p.InPort >= spec.Ports {
			t.Fatalf("packet %d port %d", i, p.InPort)
		}
		if _, err := core.ParseView(p.Buf); err != nil {
			t.Fatalf("packet %d unparseable: %v", i, err)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Spec{}, 10); err == nil {
		t.Error("no weights accepted")
	}
	if _, err := Generate(Spec{Weights: map[Protocol]float64{ProtoOPT: 1}}, 10); err == nil {
		t.Error("OPT without session accepted")
	}
}

// A generated trace must actually flow through a router: NDN data packets
// find their PIT entries because interests precede them.
func TestTraceForwardsThroughEngine(t *testing.T) {
	sess, sv := testSession(t)
	cfg := ops.Config{
		FIB32:   fib.New(),
		FIB128:  fib.New(),
		NameFIB: fib.New(),
		PIT:     pit.New[uint32](),
		Secret:  sv,
		MACKind: opt.Kind2EM,
	}
	cfg.FIB32.AddUint32(uint32(AddrPrefixByte)<<24, 8, fib.NextHop{Port: 1})
	pfx := make([]byte, 16)
	pfx[0] = Addr6PrefixByte
	cfg.FIB128.Add(pfx, 8, fib.NextHop{Port: 1})
	cfg.NameFIB.AddUint32(NamePrefix, 8, fib.NextHop{Port: 1})
	e := core.NewEngine(ops.NewRouterRegistry(cfg), core.Limits{})

	tr, err := Generate(Spec{
		Weights: map[Protocol]float64{ProtoIPv4: 1, ProtoIPv6: 1, ProtoNDN: 2, ProtoOPT: 1, ProtoNDNOPT: 1},
		Names:   50,
		Session: sess,
		Seed:    3,
	}, 400)
	if err != nil {
		t.Fatal(err)
	}
	var ctx core.ExecContext
	verdicts := map[core.Verdict]int{}
	drops := map[core.DropReason]int{}
	for i := range tr.Packets {
		p := &tr.Packets[i]
		v, err := core.ParseView(p.Buf)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Reset(v, p.InPort)
		e.Process(&ctx)
		verdicts[ctx.Verdict]++
		if ctx.Verdict == core.VerdictDrop {
			drops[ctx.Reason]++
		}
	}
	// Drops can only come from NDN name collisions (duplicate data after
	// aggregation); everything else must forward or absorb.
	for reason, n := range drops {
		if reason != core.DropPITMiss {
			t.Errorf("%d unexpected drops: %v", n, reason)
		}
	}
	if verdicts[core.VerdictForward] < len(tr.Packets)/2 {
		t.Errorf("too few forwards: %v", verdicts)
	}
}

func TestRearm(t *testing.T) {
	tr, err := Generate(Spec{Weights: map[Protocol]float64{ProtoIPv4: 1}, Seed: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := &tr.Packets[0]
	p.Buf[p.HopByte] = 0
	p.Rearm()
	v, _ := core.ParseView(p.Buf)
	if v.HopLimit() != 64 {
		t.Errorf("hop limit %d", v.HopLimit())
	}
}

func TestZipfSkewsPopularity(t *testing.T) {
	spec := Spec{
		Weights: map[Protocol]float64{ProtoNDN: 1},
		Names:   1000,
		ZipfS:   1.5,
		Seed:    11,
	}
	tr, err := Generate(spec, 2000)
	if err != nil {
		t.Fatal(err)
	}
	// Count name frequency from interest packets.
	freq := map[uint32]int{}
	for _, p := range tr.Packets {
		v, _ := core.ParseView(p.Buf)
		if v.FN(0).Key == core.KeyFIB {
			freq[uint32(v.Locations()[0])<<24|uint32(v.Locations()[1])<<16|
				uint32(v.Locations()[2])<<8|uint32(v.Locations()[3])]++
		}
	}
	max := 0
	for _, n := range freq {
		if n > max {
			max = n
		}
	}
	// With s=1.5 the most popular of 1000 names must dominate far beyond
	// the uniform expectation (~2 of 2000).
	if max < 50 {
		t.Errorf("zipf skew missing: max frequency %d", max)
	}
}

func TestProtocolString(t *testing.T) {
	if ProtoNDNOPT.String() != "ndn+opt" || Protocol(99).String() != "proto(?)" {
		t.Error("Protocol strings")
	}
}
