package dip

// Facade-level tests covering the public API surface not already exercised
// by the integration tests: PISA compilation, bootstrap interplay, node
// state builders, and the extension-operation composition path.

import (
	"bytes"
	"testing"

	"dip/internal/bootstrap"
	"dip/internal/extops"
	"dip/internal/pisa"
	"dip/internal/profiles"
)

func TestCompilePISAThroughFacade(t *testing.T) {
	state := NewNodeState()
	state.FIB32.AddUint32(0x0A000000, 8, NextHop{Port: 2})
	pl, err := CompilePISA(state.OpsConfig())
	if err != nil {
		t.Fatal(err)
	}
	pkt, _ := BuildPacket(IPv4Profile([4]byte{1, 1, 1, 1}, [4]byte{10, 0, 0, 9}), nil)
	var phv pisa.PHV
	var md pisa.Metadata
	if _, err := pl.Process(pkt, 0, &phv, &md); err != nil || md.Drop {
		t.Fatalf("md=%+v err=%v", md, err)
	}
	if md.NEgress != 1 || md.Egress[0] != 2 {
		t.Errorf("egress %v", md.Egress[:md.NEgress])
	}
}

func TestNodeStateBuilders(t *testing.T) {
	state := NewNodeState().EnableCache(32)
	if state.ContentStore == nil {
		t.Fatal("EnableCache did not attach a store")
	}
	sv, err := NewSecret("n", bytes.Repeat([]byte{1}, 16))
	if err != nil {
		t.Fatal(err)
	}
	var label [16]byte
	label[0] = 9
	state.EnableOPT(sv, MACAESCMAC, label, 3)
	cfg := state.OpsConfig()
	if cfg.Secret != sv || cfg.MACKind != MACAESCMAC || cfg.PrevLabel != label || cfg.HopIndex != 3 {
		t.Errorf("OpsConfig lost OPT settings: %+v", cfg)
	}
	if cfg.ContentStore != state.ContentStore || cfg.PIT != state.PIT {
		t.Error("OpsConfig lost table bindings")
	}
}

func TestBootstrapAgainstFacadeRegistry(t *testing.T) {
	state := NewNodeState()
	sv, _ := NewSecret("r", bytes.Repeat([]byte{1}, 16))
	state.EnableOPT(sv, MAC2EM, [16]byte{}, 0)
	reg := NewRouterRegistry(state.OpsConfig())
	responder := bootstrap.NewResponder(reg)
	reply := responder.Handle(bootstrap.EncodeDiscover())
	_, catalog, err := bootstrap.Decode(reply)
	if err != nil {
		t.Fatal(err)
	}
	// A fully configured node advertises the whole Table 1 (sans F_ver,
	// which is host-side) plus F_pass.
	for _, k := range []Key{KeyMatch32, KeyMatch128, KeySource, KeyFIB, KeyPIT,
		KeyParm, KeyMAC, KeyMark, KeyDAG, KeyIntent, KeyPass} {
		if !catalog.Supports(k) {
			t.Errorf("catalog missing %v", k)
		}
	}
	if catalog.Supports(KeyVer) {
		t.Error("router advertises the host-side F_ver")
	}
	// Path-authentication keys carry the signalling policy.
	for _, e := range catalog {
		if e.Key == KeyParm && e.Policy != PolicySignal {
			t.Error("F_parm not advertised with PolicySignal")
		}
	}
}

// Extension operations compose with standard profiles through the facade —
// the §5 "upgrade FNs, not hardware" path.
func TestExtensionOpsThroughFacade(t *testing.T) {
	var ccKey [16]byte
	ccKey[0] = 0x42
	state := NewNodeState()
	state.FIB32.AddUint32(0x0A000000, 8, NextHop{Port: 0})
	reg := NewRouterRegistry(state.OpsConfig())
	if err := reg.Register(extops.NewCC(extops.CCConfig{CapacityBps: 1e9, Key: ccKey})); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(extops.NewTel(extops.TelConfig{HopID: 7})); err != nil {
		t.Fatal(err)
	}
	r := NewRouterWithRegistry(reg, RouterOptions{})
	var out []byte
	r.AttachPort(PortFunc(func(pkt []byte) { out = append([]byte(nil), pkt...) }))

	h := IPv4Profile([4]byte{10, 0, 0, 1}, [4]byte{10, 0, 0, 2})
	ccOff := uint16(len(h.Locations) * 8)
	h.Locations = append(h.Locations, extops.NewCCTag(0xF00D)...)
	telOff := uint16(len(h.Locations) * 8)
	h.Locations = append(h.Locations, extops.NewTelRegion(2)...)
	h.FNs = append(h.FNs,
		FN{Loc: ccOff, Len: extops.CCOperandBits, Key: extops.KeyCC},
		FN{Loc: telOff, Len: extops.TelOperandBits(2), Key: extops.KeyTel},
	)
	pkt, err := BuildPacket(h, []byte("composable"))
	if err != nil {
		t.Fatal(err)
	}
	r.HandlePacket(pkt, 1)
	if out == nil {
		t.Fatal("not forwarded")
	}
	v, _ := ParsePacket(out)
	locs := v.Locations()
	flow, _, _, ok := extops.VerifyCC(&ccKey, locs[ccOff/8:])
	if !ok || flow != 0xF00D {
		t.Errorf("cc tag: flow=%#x ok=%v", flow, ok)
	}
	records, _, err := extops.DecodeTel(locs[telOff/8:])
	if err != nil || len(records) != 1 || records[0].HopID != 7 {
		t.Errorf("telemetry: %v %v", records, err)
	}
}

// The route-exchange control plane is drivable purely through facade
// symbols: a Speaker's advertisement rides a RouteExchange packet through a
// real Router, whose F_ctl verdict hands it to the local-delivery sink, and
// the learning side commits the route into its FIB.
func TestRouteExchangeThroughFacade(t *testing.T) {
	now := func() int64 { return 0 }

	// Learner: a router whose local-delivery sink feeds its Speaker.
	state := NewNodeState()
	sp := NewSpeaker(SpeakerConfig{Name: "learner", FIB32: state.FIB32, Now: now})
	sp.AddNeighbor(0, func([]byte) {}) // return path, unused here
	learner := NewRouter(state.OpsConfig(), RouterOptions{LocalDelivery: func(pkt []byte, inPort int) {
		v, err := ParsePacket(pkt)
		if err != nil || v.NextHeader() != NHRouteExchange {
			t.Errorf("unexpected local delivery: %v", err)
			return
		}
		if err := sp.Handle(v.Payload(), inPort); err != nil {
			t.Errorf("speaker: %v", err)
		}
	}})

	// Origin: its Speaker wraps messages in the control profile and injects
	// them into the learner's pipeline as port-0 arrivals.
	origin := NewSpeaker(SpeakerConfig{Name: "origin", Now: now})
	origin.AddNeighbor(0, func(msg []byte) {
		pkt, err := BuildPacket(profiles.RouteExchange(), msg)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		learner.HandlePacket(pkt, 0)
	})
	origin.Originate(bootstrap.Entry32(0x0A000000, 8, 0), NextHop{Port: 3})
	origin.Refresh()

	if st := sp.Stats(); st.RIB != 1 || st.RoutesInstalled != 1 {
		t.Fatalf("stats after exchange: %+v", st)
	}
	if nh, ok := state.FIB32.LookupUint32(0x0A010203); !ok || nh.Port != 0 {
		t.Errorf("learned route not committed to the FIB (nh=%+v ok=%v)", nh, ok)
	}
}

// An unconfigured node must still build, forward nothing, and drop cleanly.
func TestMinimalNode(t *testing.T) {
	r := NewRouter(OpsConfig{}, RouterOptions{})
	r.AttachPort(PortFunc(func([]byte) { t.Error("minimal node forwarded") }))
	pkt, _ := BuildPacket(IPv4Profile([4]byte{1, 1, 1, 1}, [4]byte{2, 2, 2, 2}), nil)
	r.HandlePacket(pkt, 0) // F_32_match unregistered → ignored → no egress
}
