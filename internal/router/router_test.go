package router

import (
	"bytes"
	"encoding/binary"
	"testing"

	"dip/internal/core"
	"dip/internal/cs"
	"dip/internal/drkey"
	"dip/internal/fib"
	"dip/internal/host"
	"dip/internal/ops"
	"dip/internal/pit"
	"dip/internal/profiles"
	"dip/internal/telemetry"
)

type capturePort struct{ pkts [][]byte }

func (c *capturePort) Send(pkt []byte) {
	c.pkts = append(c.pkts, append([]byte(nil), pkt...))
}

func newTestRouter(t *testing.T, cfg ops.Config, rcfg Config) (*Router, []*capturePort) {
	t.Helper()
	r := New(ops.NewRouterRegistry(cfg), rcfg)
	ports := make([]*capturePort, 4)
	for i := range ports {
		ports[i] = &capturePort{}
		r.AttachPort(ports[i])
	}
	return r, ports
}

func baseCfg(t *testing.T) ops.Config {
	t.Helper()
	sv, err := drkey.NewSecretValue("r", bytes.Repeat([]byte{3}, 16))
	if err != nil {
		t.Fatal(err)
	}
	return ops.Config{
		FIB32:   fib.New(),
		FIB128:  fib.New(),
		NameFIB: fib.New(),
		PIT:     pit.New[uint32](),
		Secret:  sv,
	}
}

func pkt(t *testing.T, h *core.Header, payload []byte) []byte {
	t.Helper()
	b, err := host.BuildPacket(h, payload)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestForwardIPv4Profile(t *testing.T) {
	cfg := baseCfg(t)
	cfg.FIB32.AddUint32(0x0A000000, 8, fib.NextHop{Port: 2})
	m := &telemetry.Metrics{}
	r, ports := newTestRouter(t, cfg, Config{Metrics: m})

	p := pkt(t, profiles.IPv4([4]byte{1, 1, 1, 1}, [4]byte{10, 0, 0, 9}), []byte("hi"))
	r.HandlePacket(p, 0)
	if len(ports[2].pkts) != 1 {
		t.Fatalf("port 2 got %d packets", len(ports[2].pkts))
	}
	out, _ := core.ParseView(ports[2].pkts[0])
	if out.HopLimit() != profiles.DefaultHopLimit-1 {
		t.Errorf("hop limit %d", out.HopLimit())
	}
	if !bytes.Equal(out.Payload(), []byte("hi")) {
		t.Errorf("payload %q", out.Payload())
	}
	snap := m.Snapshot()
	if snap.Forwarded != 1 || snap.Received != 1 {
		t.Errorf("metrics %+v", snap)
	}
}

func TestHopLimitExhaustion(t *testing.T) {
	cfg := baseCfg(t)
	cfg.FIB32.AddUint32(0, 0, fib.NextHop{Port: 1})
	m := &telemetry.Metrics{}
	r, ports := newTestRouter(t, cfg, Config{Metrics: m})
	h := profiles.IPv4([4]byte{1, 1, 1, 1}, [4]byte{2, 2, 2, 2})
	h.HopLimit = 0
	r.HandlePacket(pkt(t, h, nil), 0)
	for _, p := range ports {
		if len(p.pkts) != 0 {
			t.Fatal("expired packet forwarded")
		}
	}
	if m.Snapshot().Drops[core.DropHopLimit] != 1 {
		t.Error("hop-limit drop not counted")
	}
}

func TestMalformedCounted(t *testing.T) {
	m := &telemetry.Metrics{}
	r, _ := newTestRouter(t, baseCfg(t), Config{Metrics: m})
	r.HandlePacket([]byte{1, 2, 3}, 0)
	if m.Snapshot().Drops[core.DropMalformed] != 1 {
		t.Error("malformed drop not counted")
	}
}

func TestLocalDelivery(t *testing.T) {
	cfg := baseCfg(t)
	cfg.FIB32.AddUint32(0x7F000001, 32, fib.Local)
	var delivered []byte
	r, _ := newTestRouter(t, cfg, Config{
		LocalDelivery: func(p []byte, _ int) { delivered = append([]byte(nil), p...) },
	})
	r.HandlePacket(pkt(t, profiles.IPv4([4]byte{1, 1, 1, 1}, [4]byte{127, 0, 0, 1}), []byte("local")), 3)
	if delivered == nil {
		t.Fatal("not delivered")
	}
	v, _ := core.ParseView(delivered)
	if !bytes.Equal(v.Payload(), []byte("local")) {
		t.Errorf("payload %q", v.Payload())
	}
}

func TestPITFanOut(t *testing.T) {
	cfg := baseCfg(t)
	cfg.NameFIB.AddUint32(0xAA000000, 8, fib.NextHop{Port: 3})
	r, ports := newTestRouter(t, cfg, Config{})

	// Interests from ports 0 and 1 (second aggregates).
	r.HandlePacket(pkt(t, profiles.NDNInterest(0xAA000001), nil), 0)
	r.HandlePacket(pkt(t, profiles.NDNInterest(0xAA000001), nil), 1)
	if len(ports[3].pkts) != 1 {
		t.Fatalf("upstream got %d interests, want 1 (aggregation)", len(ports[3].pkts))
	}
	// Data from upstream fans out to both.
	r.HandlePacket(pkt(t, profiles.NDNData(0xAA000001), []byte("content")), 3)
	if len(ports[0].pkts) != 1 || len(ports[1].pkts) != 1 {
		t.Fatalf("fan-out: %d/%d", len(ports[0].pkts), len(ports[1].pkts))
	}
}

func TestCacheReplySynthesis(t *testing.T) {
	cfg := baseCfg(t)
	cfg.NameFIB.AddUint32(0xAA000000, 8, fib.NextHop{Port: 3})
	cfg.ContentStore = cs.New[uint32](8)
	r, ports := newTestRouter(t, cfg, Config{})

	// Prime the cache via a full interest/data exchange.
	r.HandlePacket(pkt(t, profiles.NDNInterest(0xAA000001), nil), 0)
	r.HandlePacket(pkt(t, profiles.NDNData(0xAA000001), []byte("the bits")), 3)
	ports[0].pkts = nil

	// A new interest from port 1 must be answered from the cache on port 1.
	r.HandlePacket(pkt(t, profiles.NDNInterest(0xAA000001), nil), 1)
	if len(ports[3].pkts) != 1 {
		t.Fatalf("upstream interests = %d, want 1 (cache absorbed the second)", len(ports[3].pkts))
	}
	if len(ports[1].pkts) != 1 {
		t.Fatal("no cache reply")
	}
	v, err := core.ParseView(ports[1].pkts[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v.Payload(), []byte("the bits")) {
		t.Errorf("cached payload %q", v.Payload())
	}
	// The reply is a data packet: one F_PIT FN over the same name.
	fn := v.FN(0)
	if fn.Key != core.KeyPIT {
		t.Errorf("reply FN %v", fn)
	}
	if binary.BigEndian.Uint32(v.Locations()) != 0xAA000001 {
		t.Errorf("reply name %#x", binary.BigEndian.Uint32(v.Locations()))
	}
}

// TestCacheReplyBufferOwnership: the reply is built in the buffer the
// execution context owns — the second hit reuses the first one's storage —
// and a reply that outgrew maxReplyKeep is sent but its buffer is not kept,
// so an idle context never pins a jumbo payload.
func TestCacheReplyBufferOwnership(t *testing.T) {
	cfg := baseCfg(t)
	cfg.NameFIB.AddUint32(0xAA000000, 8, fib.NextHop{Port: 3})
	cfg.ContentStore = cs.New[uint32](8)
	r, ports := newTestRouter(t, cfg, Config{})
	jumbo := bytes.Repeat([]byte{0x5A}, maxReplyKeep+1)
	for name, payload := range map[uint32][]byte{0xAA000001: []byte("the bits"), 0xAA000002: jumbo} {
		r.HandlePacket(pkt(t, profiles.NDNInterest(name), nil), 0)
		r.HandlePacket(pkt(t, profiles.NDNData(name), payload), 3)
	}
	ctx := new(core.ExecContext)
	hit := func(name uint32) []byte {
		ports[1].pkts = nil
		r.handlePacket(ctx, pkt(t, profiles.NDNInterest(name), nil), 1)
		if len(ports[1].pkts) != 1 {
			t.Fatalf("name %#x: %d cache replies, want 1", name, len(ports[1].pkts))
		}
		return ports[1].pkts[0]
	}
	first := hit(0xAA000001) // the port's copy: ctx.Reply itself is rewritten by every hit
	if !bytes.Equal(ctx.Reply, first) {
		t.Fatalf("context holds %x after a hit, sent %x", ctx.Reply, first)
	}
	owned := &ctx.Reply[0]
	hit(0xAA000001)
	if &ctx.Reply[0] != owned {
		t.Error("second hit did not reuse the context's reply buffer")
	}
	if got := hit(0xAA000002); !bytes.HasSuffix(got, jumbo) || len(got) != len(first)-len("the bits")+len(jumbo) {
		t.Errorf("jumbo reply is %d bytes, want header + %d", len(got), len(jumbo))
	}
	if ctx.Reply != nil {
		t.Errorf("context still holds a %d-byte buffer after a jumbo reply", cap(ctx.Reply))
	}
	if got := hit(0xAA000001); !bytes.Equal(got, first) {
		t.Errorf("reply after the buffer was dropped: %x, want %x", got, first)
	}
}

// TestCacheReplyNarrowAndUnalignedNames: F_FIB accepts a 1…32-bit name at
// any bit offset and absorbs the interest on a cache hit, so the router must
// answer every such hit — under the name the store was asked for — not only
// a 32-bit, byte-aligned one, and also when F_FIB ran in a parallel wave.
func TestCacheReplyNarrowAndUnalignedNames(t *testing.T) {
	cfg := baseCfg(t)
	cfg.NameFIB.AddUint32(0xAA000000, 8, fib.NextHop{Port: 3})
	cfg.ContentStore = cs.New[uint32](8)
	r, ports := newTestRouter(t, cfg, Config{})
	r.HandlePacket(pkt(t, profiles.NDNInterest(0xAABBCC00), nil), 0)
	r.HandlePacket(pkt(t, profiles.NDNData(0xAABBCC00), []byte("the bits")), 3)
	for _, c := range []struct {
		name     string
		loc, len uint16
		locs     []byte
		parallel bool
	}{
		{"24 bits in a parallel wave", 0, 24, []byte{0xAA, 0xBB, 0xCC}, true},
		{"24 bits", 0, 24, []byte{0xAA, 0xBB, 0xCC}, false},
		{"32 bits at bit 4", 4, 32, []byte{0x0A, 0xAB, 0xBC, 0xC0, 0x00}, false},
	} {
		ports[1].pkts = nil
		h := &core.Header{
			HopLimit:  9,
			FNs:       []core.FN{core.RouterFN(c.loc, c.len, core.KeyFIB)},
			Locations: c.locs,
		}
		if c.parallel {
			// F_source shares F_FIB's stage, so the two run as one wave.
			h.Parallel = true
			h.FNs = append(h.FNs, core.RouterFN(0, 8, core.KeySource))
		}
		r.HandlePacket(pkt(t, h, nil), 1)
		if len(ports[1].pkts) != 1 {
			t.Errorf("%s: %d cache replies, want 1", c.name, len(ports[1].pkts))
			continue
		}
		v, err := core.ParseView(ports[1].pkts[0])
		if err != nil {
			t.Fatal(err)
		}
		if name, ok := host.DataName(v); !ok || name != 0xAABBCC00 || string(v.Payload()) != "the bits" {
			t.Errorf("%s: reply for %#x (ok %v) carrying %q", c.name, name, ok, v.Payload())
		}
		if v.HopLimit() != 8 {
			t.Errorf("%s: reply hop limit %d, want the interest's 8", c.name, v.HopLimit())
		}
	}
	if len(ports[3].pkts) != 1 {
		t.Errorf("upstream interests = %d, want 1 (the cache absorbed the rest)", len(ports[3].pkts))
	}
}

// TestFNUnsupportedSignalling: the registry's per-key policy is the one
// switch for FN-unsupported signalling. A router without OPT state receives
// an OPT packet carrying F_source: under PolicySignal its F_parm is dropped
// and answered toward the source; under PolicyIgnore the FN is skipped and
// nothing is sent.
func TestFNUnsupportedSignalling(t *testing.T) {
	// An OPT-ish packet that carries F_source so the reply is addressable.
	h := &core.Header{
		HopLimit: 9,
		FNs: []core.FN{
			core.RouterFN(0, 32, core.KeySource),
			core.RouterFN(32, 128, core.KeyParm),
		},
		Locations: append([]byte{9, 9, 9, 9}, make([]byte, 16)...),
	}
	route := func(t *testing.T, policy core.UnknownPolicy) (*capturePort, *telemetry.Metrics) {
		reg := ops.NewRouterRegistry(ops.Config{FIB32: fib.New()})
		reg.SetPolicy(core.KeyParm, policy)
		m := &telemetry.Metrics{}
		r := New(reg, Config{Metrics: m})
		in := &capturePort{}
		r.AttachPort(in)
		r.HandlePacket(pkt(t, h, nil), 0)
		return in, m
	}
	t.Run("signal", func(t *testing.T) {
		in, m := route(t, core.PolicySignal)
		if len(in.pkts) != 1 {
			t.Fatal("no FN-unsupported reply")
		}
		v, err := core.ParseView(in.pkts[0])
		if err != nil {
			t.Fatal(err)
		}
		key, ok := profiles.ParseFNUnsupported(v)
		if !ok || key != core.KeyParm {
			t.Errorf("parsed %v %v", key, ok)
		}
		// The reply routes to the original source via DIP-32.
		locs := v.Locations()
		if !bytes.Equal(locs[0:4], []byte{9, 9, 9, 9}) {
			t.Errorf("reply dst %v", locs[0:4])
		}
		if m.Snapshot().Drops[core.DropUnsupportedFN] != 1 {
			t.Error("drop not counted")
		}
	})
	t.Run("ignore", func(t *testing.T) {
		in, m := route(t, core.PolicyIgnore)
		if len(in.pkts) != 0 {
			t.Errorf("%d packets sent for an ignored FN", len(in.pkts))
		}
		if n := m.Snapshot().Drops[core.DropUnsupportedFN]; n != 0 {
			t.Errorf("ignored FN counted %d unsupported drops", n)
		}
	})
}

func TestFNUnsupportedWithoutSourceSilent(t *testing.T) {
	reg := ops.NewRouterRegistry(ops.Config{})
	reg.SetPolicy(core.KeyParm, core.PolicySignal)
	r := New(reg, Config{})
	in := &capturePort{}
	r.AttachPort(in)
	h := &core.Header{
		HopLimit:  9,
		FNs:       []core.FN{core.RouterFN(0, 128, core.KeyParm)},
		Locations: make([]byte, 16),
	}
	r.HandlePacket(pkt(t, h, nil), 0)
	if len(in.pkts) != 0 {
		t.Error("unaddressable reply sent anyway")
	}
}

func TestBuildFNUnsupportedIPv6(t *testing.T) {
	src := bytes.Repeat([]byte{0xAB}, 16)
	msg, err := profiles.BuildFNUnsupported(src, core.KeyMAC)
	if err != nil {
		t.Fatal(err)
	}
	v, err := core.ParseView(msg)
	if err != nil {
		t.Fatal(err)
	}
	key, ok := profiles.ParseFNUnsupported(v)
	if !ok || key != core.KeyMAC {
		t.Errorf("%v %v", key, ok)
	}
	if !bytes.Equal(v.Locations()[0:16], src) {
		t.Error("dst address")
	}
	if _, err := profiles.BuildFNUnsupported(make([]byte, 3), core.KeyMAC); err == nil {
		t.Error("odd source length accepted")
	}
}

func TestParseFNUnsupportedNegative(t *testing.T) {
	b := pkt(t, profiles.NDNInterest(1), nil)
	v, _ := core.ParseView(b)
	if _, ok := profiles.ParseFNUnsupported(v); ok {
		t.Error("data packet parsed as notification")
	}
	// Notification with truncated payload.
	h := profiles.IPv4([4]byte{}, [4]byte{})
	h.NextHeader = profiles.NHFNUnsupported
	v2, _ := core.ParseView(pkt(t, h, []byte{0x01}))
	if _, ok := profiles.ParseFNUnsupported(v2); ok {
		t.Error("truncated notification parsed")
	}
}

func TestOpBudgetLimitEnforced(t *testing.T) {
	cfg := baseCfg(t)
	cfg.FIB32.AddUint32(0, 0, fib.NextHop{Port: 1})
	m := &telemetry.Metrics{}
	r, ports := newTestRouter(t, cfg, Config{Metrics: m, Limits: core.Limits{MaxFNs: 1}})
	// The IPv4 profile carries two router FNs — over the limit of one.
	r.HandlePacket(pkt(t, profiles.IPv4([4]byte{1, 1, 1, 1}, [4]byte{2, 2, 2, 2}), nil), 0)
	if len(ports[1].pkts) != 0 {
		t.Fatal("over-budget packet forwarded")
	}
	if m.Snapshot().Drops[core.DropOpBudget] != 1 {
		t.Error("budget drop not counted")
	}
}

func TestRouterAccessors(t *testing.T) {
	reg := ops.NewRouterRegistry(ops.Config{})
	r := New(reg, Config{Name: "r9"})
	if r.Name() != "r9" || r.Registry() != reg || r.NumPorts() != 0 {
		t.Error("accessors")
	}
	r.AttachPort(PortFunc(func([]byte) {}))
	if r.NumPorts() != 1 {
		t.Error("AttachPort")
	}
	// Forwarding to an unattached port index must not panic.
	r.sendOn(99, []byte{1})
	r.sendOn(-1, []byte{1})
}

// NumPorts returns the number of attached ports.
func (r *Router) NumPorts() int { return len(r.ports) }
