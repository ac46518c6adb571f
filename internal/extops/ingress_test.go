package extops_test

import (
	"testing"

	"dip/internal/core"
	"dip/internal/extops"
	"dip/internal/router"
)

// TestTelIngressOneClockRead: on a packet the serve layer admitted, F_tel
// takes the stamp's wall µs and the admission→execution latency from one
// read of the clock the ingress stamped AdmittedAt with — two reads per
// packet in all, each answering a later instant, so a second read inside
// F_tel would show as a µs/latency pair that disagree.
func TestTelIngressOneClockRead(t *testing.T) {
	var reads int
	readings := []int64{10_000_000, 10_002_500, 10_005_000}
	now := func() int64 { reads++; return readings[min(reads, len(readings))-1] }
	reg := core.NewRegistry()
	reg.MustRegister(extops.NewTel(extops.TelConfig{HopID: 7, Now: now}))
	r := router.New(reg, router.Config{Name: "tel"})
	in := r.ServeGuarded(router.ServeConfig{Workers: 0, Clock: now})
	defer in.Close()
	h := &core.Header{
		HopLimit:  8,
		FNs:       []core.FN{core.RouterFN(0, extops.TelOperandBits(1), extops.KeyTel)},
		Locations: extops.NewTelRegion(1),
	}
	pkt, err := h.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !in.Submit(pkt, 0) || in.Pump() != 1 {
		t.Fatal("packet not admitted and run")
	}
	if reads != 2 {
		t.Errorf("%d clock reads, want 2: the burst's admission stamp and F_tel's", reads)
	}
	v, err := core.ParseView(pkt)
	if err != nil {
		t.Fatal(err)
	}
	hops, _, err := extops.DecodeTel(v.Locations())
	if err != nil || len(hops) != 1 {
		t.Fatalf("records %+v, %v", hops, err)
	}
	if hops[0].TimestampUs != 10_002 || hops[0].LatencyNs != 2_500 {
		t.Errorf("stamp %d µs, latency %d ns: want 10002 µs and 2500 ns from the one read at 10 002 500 ns",
			hops[0].TimestampUs, hops[0].LatencyNs)
	}
}
