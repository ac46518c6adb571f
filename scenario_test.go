package dip

// Multi-AS systems test tying §2.3 and §2.4 together: a source wants
// OPT-protected delivery to another AS; the default path crosses a legacy
// AS that cannot run the authentication FNs. The source learns this twice —
// proactively from the AS-level FN propagation graph, and reactively from
// the legacy router's FN-unsupported notification — and succeeds by
// steering onto the FN-capable path.

import (
	"bytes"
	"testing"

	"dip/internal/bootstrap"
	"dip/internal/netsim"
)

func TestMultiASHeterogeneousPathSelection(t *testing.T) {
	// Control plane: AS graph with FN catalogs (§2.3's propagation).
	authKeys := []Key{KeyParm, KeyMAC, KeyMark}
	full := bootstrap.Catalog{
		{Key: KeyMatch32}, {Key: KeySource},
		{Key: KeyParm, Policy: PolicySignal},
		{Key: KeyMAC, Policy: PolicySignal},
		{Key: KeyMark, Policy: PolicySignal},
	}
	legacy := bootstrap.Catalog{{Key: KeyMatch32}, {Key: KeySource}}
	g := bootstrap.NewASGraph()
	g.AddAS("A", full)
	g.AddAS("B-legacy", legacy)
	g.AddAS("D", full)
	g.AddAS("C", full)
	g.Peer("A", "B-legacy")
	g.Peer("B-legacy", "C")
	g.Peer("A", "D")
	g.Peer("D", "C")

	// Proactive check: the graph warns that A→C may cross the legacy AS.
	path, ok := g.PathSupports("A", "C", authKeys...)
	viaLegacy := len(path) == 3 && path[1] == "B-legacy"
	if viaLegacy && ok {
		t.Fatal("graph claims legacy AS supports path authentication")
	}

	// Data plane: two candidate next hops out of AS A — port 0 toward the
	// legacy AS B, port 1 toward the capable AS D.
	sim := netsim.New()
	svD, _ := NewSecret("D", bytes.Repeat([]byte{0xDD}, 16))
	dstSecret, _ := NewSecret("dstC", bytes.Repeat([]byte{0xCC}, 16))
	sess, err := NewSession(MAC2EM, []HopConfig{{Secret: svD}}, dstSecret)
	if err != nil {
		t.Fatal(err)
	}

	// Legacy AS B: forwards IP but signals on the auth FNs (per its
	// advertised catalog).
	legacyState := NewNodeState()
	legacyState.FIB32.AddUint32(0x0C000000, 8, NextHop{Port: 1})
	legacyReg := NewRouterRegistry(OpsConfig{FIB32: legacyState.FIB32})
	for _, k := range authKeys {
		legacyReg.SetPolicy(k, PolicySignal)
	}
	routerB := NewRouterWithRegistry(legacyReg, RouterOptions{Name: "B-legacy"})

	// Capable AS D.
	stateD := NewNodeState()
	stateD.EnableOPT(svD, MAC2EM, [16]byte{}, 0)
	stateD.FIB32.AddUint32(0x0C000000, 8, NextHop{Port: 1})
	routerD := NewRouter(stateD.OpsConfig(), RouterOptions{Name: "D"})

	// Destination host in AS C.
	dstHost := NewHost()
	dstHost.Sessions.Add(sess)
	var delivered *Rx
	destination := netsim.ReceiverFunc(func(pkt []byte, _ int) {
		rx := dstHost.HandlePacket(pkt)
		delivered = &rx
	})

	// Source host in AS A: reacts to FN-unsupported notifications.
	srcHost := NewHost()
	var notified *Rx
	sourceRx := netsim.ReceiverFunc(func(pkt []byte, _ int) {
		rx := srcHost.HandlePacket(pkt)
		notified = &rx
	})

	routerB.AttachPort(sim.Pipe(sourceRx, 0, 1e6, 0))    // back to the source
	routerB.AttachPort(sim.Pipe(destination, 0, 1e6, 0)) // toward C (never used for OPT)
	routerD.AttachPort(sim.Pipe(sourceRx, 0, 1e6, 0))
	routerD.AttachPort(sim.Pipe(destination, 0, 1e6, 0))

	// The OPT packet: auth chain + DIP-32 forwarding toward AS C's prefix,
	// with F_source so notifications can find their way back.
	buildPacket := func() []byte {
		payload := []byte("cross-AS verified")
		h, err := OPTProfile(sess, payload, 7)
		if err != nil {
			t.Fatal(err)
		}
		off := uint16(len(h.Locations) * 8)
		h.Locations = append(h.Locations, 12, 0, 0, 9 /* dst in C */, 10, 0, 0, 1 /* src in A */)
		h.FNs = append([]FN{
			{Loc: off, Len: 32, Key: KeyMatch32},
			{Loc: off + 32, Len: 32, Key: KeySource},
		}, h.FNs...)
		pkt, err := BuildPacket(h, payload)
		if err != nil {
			t.Fatal(err)
		}
		return pkt
	}

	// Attempt 1: the source naively uses the legacy path. The packet is
	// dropped and the source is notified which FN the AS lacks.
	sim.Schedule(0, func() { routerB.HandlePacket(buildPacket(), 0) })
	sim.Run()
	if delivered != nil {
		t.Fatal("packet crossed the legacy AS despite signalling policy")
	}
	if notified == nil || notified.Kind != RxFNUnsupported {
		t.Fatalf("no FN-unsupported notification: %+v", notified)
	}
	if notified.Key != KeyParm {
		t.Errorf("notification names %v, want F_parm", notified.Key)
	}

	// Attempt 2: steer onto the capable AS D (which the control-plane graph
	// also recommends once the legacy AS is excluded).
	g2 := bootstrap.NewASGraph()
	g2.AddAS("A", full)
	g2.AddAS("D", full)
	g2.AddAS("C", full)
	g2.Peer("A", "D")
	g2.Peer("D", "C")
	if _, ok := g2.PathSupports("A", "C", authKeys...); !ok {
		t.Fatal("capable path not recognized by the graph")
	}
	sim.Schedule(0, func() { routerD.HandlePacket(buildPacket(), 0) })
	sim.Run()
	if delivered == nil {
		t.Fatal("packet lost on the capable path")
	}
	if delivered.Kind != RxDelivered {
		t.Fatalf("destination rejected: %v/%v", delivered.Kind, delivered.Reason)
	}
	if !bytes.Equal(delivered.Payload, []byte("cross-AS verified")) {
		t.Errorf("payload %q", delivered.Payload)
	}
}
