// Deploying new network-layer functions by composing field operations —
// the paper's §5 claim ("network providers can now support new services by
// only upgrading FNs") made concrete with the two extension operations
// this repository ships:
//
//   - F_cc: NetFence-style in-network congestion policing with
//     MAC-protected AIMD feedback (the paper's own §1 motivation).
//   - F_tel: INT-style in-band telemetry (§5 "efficient network telemetry").
//
// One packet composition carries ordinary IPv4-style forwarding PLUS
// congestion policing PLUS hop-by-hop telemetry through two routers. No new
// protocol was defined — three FNs were composed.
//
//	go run ./examples/customfn
package main

import (
	"fmt"
	"log"
	"time"

	"dip"
	"dip/internal/extops"
)

func main() {
	var ccKey [16]byte
	copy(ccKey[:], "netfence-demo-k!")

	// Two routers: R1 lightly loaded, R2 a 64 kB/s bottleneck. Both run
	// on one virtual clock (ns), as a simulation's nodes do.
	var clock time.Duration
	now := func() int64 { return int64(clock) }
	mkRouter := func(name string, hopID uint32, capacityBps float64, egress dip.Port) *dip.Router {
		state := dip.NewNodeState()
		state.FIB32.AddUint32(0x0A000000, 8, dip.NextHop{Port: 0})
		reg := dip.NewRouterRegistry(state.OpsConfig())
		// Upgrading the network = registering new operation modules.
		if err := reg.Register(extops.NewCC(extops.CCConfig{
			CapacityBps: capacityBps,
			Key:         ccKey,
			Now:         now,
		})); err != nil {
			log.Fatal(err)
		}
		if err := reg.Register(extops.NewTel(extops.TelConfig{HopID: hopID, Now: now})); err != nil {
			log.Fatal(err)
		}
		r := dip.NewRouterWithRegistry(reg, dip.RouterOptions{Name: name})
		r.AttachPort(egress)
		return r
	}

	var delivered []byte
	sink := dip.PortFunc(func(pkt []byte) { delivered = append(delivered[:0], pkt...) })
	r2 := mkRouter("R2-bottleneck", 202, 64_000, sink)
	r1 := mkRouter("R1", 101, 1e9, dip.PortFunc(func(pkt []byte) {
		clock += 2 * time.Millisecond // link latency
		r2.HandlePacket(pkt, 0)
	}))

	// The composition: DIP-32 forwarding + F_cc tag + F_tel region, all in
	// one FN-locations layout.
	const flowID = 0xF00D
	base := dip.IPv4Profile([4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2})
	ccOff := uint16(len(base.Locations) * 8)
	base.Locations = append(base.Locations, extops.NewCCTag(flowID)...)
	telOff := uint16(len(base.Locations) * 8)
	telBits := extops.TelOperandBits(4)
	base.Locations = append(base.Locations, extops.NewTelRegion(4)...)
	base.FNs = append(base.FNs,
		dip.FN{Loc: ccOff, Len: extops.CCOperandBits, Key: extops.KeyCC},
		dip.FN{Loc: telOff, Len: telBits, Key: extops.KeyTel},
	)
	fmt.Println("composed packet:")
	for i, fn := range base.FNs {
		fmt.Printf("  FN[%d] = %v\n", i, fn)
	}
	fmt.Printf("header: %d bytes\n\n", base.WireSize())

	// The sender pushes 1 kB packets every millisecond (≈1 MB/s, 15× the
	// bottleneck) and applies AIMD to the verified feedback.
	sender := &extops.AIMD{RateBps: 1_000_000, Step: 50_000, Floor: 8_000}
	fmt.Printf("%-8s %-12s %-10s %s\n", "packet", "rate (B/s)", "feedback", "telemetry path (hop@µs)")
	for i := 0; i < 12; i++ {
		clock += time.Millisecond
		pkt, err := dip.BuildPacket(base, make([]byte, 1000))
		if err != nil {
			log.Fatal(err)
		}
		r1.HandlePacket(pkt, 1)
		if delivered == nil {
			log.Fatal("packet lost")
		}
		v, _ := dip.ParsePacket(delivered)
		locs := v.Locations()
		_, action, _, ok := extops.VerifyCC(&ccKey, locs[ccOff/8:])
		if !ok {
			log.Fatal("congestion tag forged or corrupted")
		}
		records, _, err := extops.DecodeTel(locs[telOff/8:])
		if err != nil {
			log.Fatal(err)
		}
		feedback := "increase"
		if action == extops.ActionDecrease {
			feedback = "DECREASE"
		}
		sender.Apply(action)
		trace := ""
		for _, rec := range records {
			trace += fmt.Sprintf("%d@%d ", rec.HopID, rec.TimestampUs)
		}
		fmt.Printf("%-8d %-12.0f %-10s %s\n", i, sender.RateBps, feedback, trace)
	}
	fmt.Println("\nthe bottleneck router policed the flow down toward its capacity and")
	fmt.Println("every packet carried its own hop-by-hop latency record — both added")
	fmt.Println("to the network by registering two operation modules.")
}
