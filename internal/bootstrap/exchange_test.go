package bootstrap

import (
	"testing"
	"time"

	"dip/internal/fib"
)

func TestExchangeCodecRoundTrip(t *testing.T) {
	routes := []RouteEntry{
		Entry32(0x0a000000, 8, 0),
		Entry128([]byte{0x20, 0x01, 0x0d, 0xb8}, 32, 3),
		EntryName(0xdeadbeef, 32, 7),
	}
	cat := Catalog{{Key: 1}, {Key: 7, Policy: 1}}
	adv := EncodeAdvertise("r1", 42, routes, cat)
	ex, err := DecodeExchange(adv)
	if err != nil {
		t.Fatalf("decode advertise: %v", err)
	}
	if ex.Type != TypeAdvertise || ex.Origin != "r1" || ex.Seq != 42 {
		t.Fatalf("envelope = %+v", ex)
	}
	if len(ex.Routes) != len(routes) {
		t.Fatalf("routes = %d, want %d", len(ex.Routes), len(routes))
	}
	for i := range routes {
		if ex.Routes[i] != routes[i] {
			t.Errorf("route %d: %+v != %+v", i, ex.Routes[i], routes[i])
		}
	}
	if len(ex.Catalog) != 2 || ex.Catalog[0] != cat[0] || ex.Catalog[1] != cat[1] {
		t.Errorf("catalog = %+v, want %+v", ex.Catalog, cat)
	}

	wd := EncodeWithdraw("r2", 7, routes[:1])
	ex, err = DecodeExchange(wd)
	if err != nil {
		t.Fatalf("decode withdraw: %v", err)
	}
	if ex.Type != TypeWithdraw || ex.Origin != "r2" || len(ex.Routes) != 1 || ex.Catalog != nil {
		t.Fatalf("withdraw = %+v", ex)
	}
}

func TestDecodeExchangeRejectsHostileInput(t *testing.T) {
	valid := EncodeAdvertise("r", 1, []RouteEntry{Entry32(0x0a000000, 8, 0)}, nil)
	cases := []struct {
		name string
		msg  []byte
	}{
		{"empty", nil},
		{"unknown type", []byte{9, 0, 0, 0, 1, 0, 0, 0}},
		{"truncated envelope", valid[:5]},
		{"truncated route", valid[:len(valid)-4]},
		{"origin past end", []byte{TypeAdvertise, 0, 0, 0, 1, 200, 'x'}},
		{"bad kind", mutate(valid, 8, 0x77)},
		{"plen 33 on kind32", mutate(valid, 9, 33)},
		{"count overstates routes", mutate2(valid, 6, 7, 0xFF, 0xFF)},
		{"withdraw trailing bytes", append(EncodeWithdraw("r", 1, nil), 0xAA)},
		{"advertise missing catalog", EncodeWithdraw("r", 1, nil)[:0:0]},
	}
	for _, c := range cases {
		if c.name == "advertise missing catalog" {
			// An advertise envelope with routes but no catalog section.
			c.msg = encodeEnvelope(TypeAdvertise, "r", 1, nil)
		}
		if _, err := DecodeExchange(c.msg); err == nil {
			t.Errorf("%s: decoded without error", c.name)
		}
	}
	// plen 128 on Kind128 is legal, 129 is not.
	ok := EncodeAdvertise("r", 1, []RouteEntry{Entry128(make([]byte, 16), 128, 0)}, nil)
	if _, err := DecodeExchange(ok); err != nil {
		t.Errorf("plen 128 rejected: %v", err)
	}
	if _, err := DecodeExchange(mutate(ok, 9, 129)); err == nil {
		t.Error("plen 129 on kind128 decoded without error")
	}
}

func mutate(b []byte, off int, v byte) []byte {
	out := append([]byte(nil), b...)
	out[off] = v
	return out
}

func mutate2(b []byte, off1, off2 int, v1, v2 byte) []byte {
	out := append([]byte(nil), b...)
	out[off1], out[off2] = v1, v2
	return out
}

// wireUp builds a full mesh-or-line of speakers joined by synchronous
// in-process links: port i on a speaker delivers straight into the peer's
// Handle. Returns the per-speaker FIB32 tables for assertions.
type testNet struct {
	speakers []*Speaker
	fibs     []*fib.Table
	now      time.Duration
	cut      map[[2]int]bool
}

func (n *testNet) clock() int64 { return int64(n.now) }

// link joins speakers a and b; the port numbers are chosen by the caller.
// A link silenced via silence() eats messages in both directions — the
// "router died without carrier loss" failure soft-state expiry exists for.
func (n *testNet) link(a, portA, b, portB int) {
	sa, sb := n.speakers[a], n.speakers[b]
	key := [2]int{a, b}
	sa.AddNeighbor(portA, func(msg []byte) {
		if !n.cut[key] {
			sb.Handle(msg, portB)
		}
	})
	sb.AddNeighbor(portB, func(msg []byte) {
		if !n.cut[key] {
			sa.Handle(msg, portA)
		}
	})
}

func (n *testNet) silence(a, b int) { n.cut[[2]int{a, b}] = true }

func newTestNet(t *testing.T, nodes int, hold time.Duration) *testNet {
	t.Helper()
	n := &testNet{cut: map[[2]int]bool{}}
	for i := 0; i < nodes; i++ {
		tb := fib.New()
		n.fibs = append(n.fibs, tb)
		n.speakers = append(n.speakers, NewSpeaker(SpeakerConfig{
			Name:    string(rune('A' + i)),
			FIB32:   tb,
			Now:     n.clock,
			HoldFor: hold,
		}))
	}
	return n
}

func lookup32(tb *fib.Table, key uint32) (fib.NextHop, bool) {
	return tb.LookupUint32(key)
}

func TestSpeakerConvergesOnLine(t *testing.T) {
	// A —0/0— B —1/0— C: A originates 10.0.0.0/8; after refresh everyone
	// reaches it with metrics increasing along the line.
	n := newTestNet(t, 3, 0)
	n.link(0, 0, 1, 0)
	n.link(1, 1, 2, 0)
	n.speakers[0].Originate(Entry32(0x0a000000, 8, 0), fib.Local)
	n.speakers[0].Refresh()

	if nh, ok := lookup32(n.fibs[1], 0x0a000001); !ok || nh.Port != 0 {
		t.Fatalf("B route = %+v %v, want port 0", nh, ok)
	}
	if nh, ok := lookup32(n.fibs[2], 0x0a000001); !ok || nh.Port != 0 {
		t.Fatalf("C route = %+v %v, want port 0 (toward B)", nh, ok)
	}
	// A never learns its own route back (split horizon + local suppression).
	if _, ok := lookup32(n.fibs[0], 0x0a000001); ok {
		t.Fatal("A installed its own originated route as learned")
	}
	st := n.speakers[2].Stats()
	if st.RIB != 1 || st.RoutesInstalled != 1 {
		t.Errorf("C stats = %+v, want 1 learned route", st)
	}
}

func TestSpeakerIdleRefreshPublishesNothing(t *testing.T) {
	// After convergence, further refresh cycles must not publish new FIB
	// snapshots (the no-op Txn contract): pure soft-state confirmation.
	n := newTestNet(t, 2, 0)
	n.link(0, 0, 1, 0)
	n.speakers[0].Originate(Entry32(0x0a000000, 8, 0), fib.Local)
	n.speakers[0].Refresh()
	before := n.speakers[1].Stats()
	for i := 0; i < 5; i++ {
		n.now += time.Second
		n.speakers[0].Refresh()
	}
	after := n.speakers[1].Stats()
	if after.AdvertisesRecv != before.AdvertisesRecv+5 {
		t.Fatalf("B saw %d refreshes, want 5", after.AdvertisesRecv-before.AdvertisesRecv)
	}
	if after.Commits != before.Commits {
		t.Errorf("idle refreshes published %d snapshots", after.Commits-before.Commits)
	}
}

func TestSpeakerCatalogGossip(t *testing.T) {
	n := newTestNet(t, 2, 0)
	n.speakers[0].cfg.Catalog = Catalog{{Key: 1}, {Key: 4, Policy: 1}}
	n.link(0, 0, 1, 0)
	n.speakers[0].Originate(Entry32(0x0a000000, 8, 0), fib.Local)
	n.speakers[0].Refresh()
	cat, ok := n.speakers[1].NeighborCatalog(0)
	if !ok || len(cat) != 2 || !cat.Supports(1, 4) {
		t.Fatalf("neighbor catalog = %+v %v", cat, ok)
	}
}

func TestSpeakerStaleAndMalformed(t *testing.T) {
	n := newTestNet(t, 2, 0)
	n.link(0, 0, 1, 0)
	b := n.speakers[1]
	if err := b.Handle([]byte{0xFF}, 0); err == nil {
		t.Fatal("malformed message accepted")
	}
	adv := EncodeAdvertise("x", 5, []RouteEntry{Entry32(0x0a000000, 8, 0)}, nil)
	if err := b.Handle(adv, 0); err != nil {
		t.Fatalf("first advertise: %v", err)
	}
	// Replay of the same seq is dropped, as is an older one.
	b.Handle(adv, 0)
	b.Handle(EncodeAdvertise("x", 4, []RouteEntry{Entry32(0x14000000, 8, 0)}, nil), 0)
	// Messages on a port with no adjacency never install routes.
	b.Handle(EncodeAdvertise("x", 9, []RouteEntry{Entry32(0x1e000000, 8, 0)}, nil), 7)
	st := b.Stats()
	if st.Malformed != 1 || st.Stale != 3 || st.RIB != 1 {
		t.Errorf("stats = %+v, want 1 malformed, 3 stale, 1 route", st)
	}
}

func TestSpeakerMetricCeiling(t *testing.T) {
	n := newTestNet(t, 2, 0)
	n.link(0, 0, 1, 0)
	b := n.speakers[1]
	// Metric 16 advertisement → metric 17 here → beyond the horizon.
	b.Handle(EncodeAdvertise("x", 1, []RouteEntry{Entry32(0x0a000000, 8, 16)}, nil), 0)
	if st := b.Stats(); st.RIB != 0 {
		t.Errorf("unreachable route installed: %+v", st)
	}
}

// TestWithdrawOnLinkDown is the table-driven fault matrix for the
// reconvergence machinery: each case kills something and states where
// traffic to the victim prefix must flow afterwards.
func TestWithdrawOnLinkDown(t *testing.T) {
	// Diamond: A(0)—B, A(1)—C, B(1)—D(0), C(1)—D(1); D originates P.
	// A prefers whichever path it learned first; killing it must swing A
	// to the survivor, and killing both must leave A with no route.
	const p = uint32(0x0a000000)
	build := func(t *testing.T) *testNet {
		n := newTestNet(t, 4, 0)
		n.link(0, 0, 1, 0) // A:0 ↔ B:0
		n.link(0, 1, 2, 0) // A:1 ↔ C:0
		n.link(1, 1, 3, 0) // B:1 ↔ D:0
		n.link(2, 1, 3, 1) // C:1 ↔ D:1
		n.speakers[3].Originate(Entry32(p, 8, 0), fib.Local)
		n.speakers[3].Refresh()
		return n
	}
	cases := []struct {
		name string
		kill func(n *testNet)
		// wantPort is A's expected egress after reconvergence; -1 = no route.
		wantPort int
	}{
		{
			name: "kill B-D: A swings to C",
			kill: func(n *testNet) {
				n.speakers[1].PortDown(1)
				n.speakers[3].PortDown(0)
			},
			wantPort: 1,
		},
		{
			name: "kill C-D: A swings to B",
			kill: func(n *testNet) {
				n.speakers[2].PortDown(1)
				n.speakers[3].PortDown(1)
			},
			wantPort: 0,
		},
		{
			name: "kill both: A loses the route entirely",
			kill: func(n *testNet) {
				n.speakers[1].PortDown(1)
				n.speakers[3].PortDown(0)
				n.speakers[2].PortDown(1)
				n.speakers[3].PortDown(1)
			},
			wantPort: -1,
		},
		{
			name: "kill A-B access link: A swings to C",
			kill: func(n *testNet) {
				n.speakers[0].PortDown(0)
				n.speakers[1].PortDown(0)
			},
			wantPort: 1,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := build(t)
			if _, ok := lookup32(n.fibs[0], p+1); !ok {
				t.Fatal("A never converged before the fault")
			}
			c.kill(n)
			nh, ok := lookup32(n.fibs[0], p+1)
			if c.wantPort < 0 {
				if ok {
					t.Fatalf("A still routes to %+v after total partition", nh)
				}
				return
			}
			if !ok || nh.Port != c.wantPort {
				t.Fatalf("A route after fault = %+v %v, want port %d", nh, ok, c.wantPort)
			}
		})
	}
}

func TestSpeakerPortUpRestoresRoutes(t *testing.T) {
	n := newTestNet(t, 2, 0)
	n.link(0, 0, 1, 0)
	n.speakers[0].Originate(Entry32(0x0a000000, 8, 0), fib.NextHop{Port: 5})
	n.speakers[0].Refresh()
	if _, ok := lookup32(n.fibs[1], 0x0a000001); !ok {
		t.Fatal("route never propagated")
	}
	// The origin's egress port dies: it must withdraw its own route.
	n.speakers[0].PortDown(5)
	if _, ok := lookup32(n.fibs[1], 0x0a000001); ok {
		t.Fatal("route survived the origin's egress dying")
	}
	// Recovery re-originates and floods.
	n.speakers[0].PortUp(5)
	if _, ok := lookup32(n.fibs[1], 0x0a000001); !ok {
		t.Fatal("route not restored after egress recovery")
	}
}

func TestSpeakerSoftStateExpiry(t *testing.T) {
	// B learns a route, then A goes silent (no explicit withdraw — the
	// failure mode triggered updates cannot cover). The hold timer must
	// reap it, and the reaping must flood withdraws downstream to C.
	n := newTestNet(t, 3, 2*time.Second)
	n.link(0, 0, 1, 0)
	n.link(1, 1, 2, 0)
	n.speakers[0].Originate(Entry32(0x0a000000, 8, 0), fib.Local)
	n.speakers[0].Refresh()
	if _, ok := lookup32(n.fibs[2], 0x0a000001); !ok {
		t.Fatal("C never converged")
	}
	// A dies silently: no carrier loss, no withdraw, the link just eats
	// everything (including B's own withdraw probe). The hold timer is the
	// only thing left that can reap the route.
	n.silence(0, 1)
	n.now += 3 * time.Second
	n.speakers[1].Refresh()
	if _, ok := lookup32(n.fibs[1], 0x0a000001); ok {
		t.Fatal("B kept the stale route past its hold time")
	}
	if _, ok := lookup32(n.fibs[2], 0x0a000001); ok {
		t.Fatal("expiry withdraw never reached C")
	}
	if st := n.speakers[1].Stats(); st.RoutesExpired != 1 {
		t.Errorf("B stats = %+v, want 1 expired", st)
	}
}

func TestSpeakerOriginateFromFIBs(t *testing.T) {
	t32, t128, tname := fib.New(), fib.New(), fib.New()
	t32.AddUint32(0x0a000000, 8, fib.NextHop{Port: 1})
	t128.Add(make([]byte, 16), 32, fib.NextHop{Port: 2})
	tname.AddUint32(0xdeadbeef, 32, fib.Local)
	s := NewSpeaker(SpeakerConfig{
		Name: "r", FIB32: t32, FIB128: t128, NameFIB: tname,
		Now: func() int64 { return 0 },
	})
	if n := s.OriginateFromFIBs(); n != 3 {
		t.Fatalf("originated %d, want 3", n)
	}
	if st := s.Stats(); st.Local != 3 {
		t.Fatalf("local = %d, want 3", st.Local)
	}
}

func TestSpeakerChunksLargeAdvertisements(t *testing.T) {
	n := newTestNet(t, 2, 0)
	n.speakers[0].cfg.MaxRoutesPerMsg = 10
	n.link(0, 0, 1, 0)
	for i := 0; i < 35; i++ {
		n.speakers[0].Originate(Entry32(uint32(i)<<16, 16, 0), fib.Local)
	}
	n.speakers[0].Refresh()
	if st := n.speakers[1].Stats(); st.RIB != 35 {
		t.Fatalf("B learned %d routes, want 35", st.RIB)
	}
	if st := n.speakers[0].Stats(); st.AdvertisesSent != 4 {
		t.Errorf("sent %d advertisements, want 4 chunks of ≤10", st.AdvertisesSent)
	}
}
