package node_test

// An external test package: the oracle trace comes from internal/workload,
// which builds its consumer-fleet router with node.Build.

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"dip/internal/drkey"
	"dip/internal/netsim"
	"dip/internal/node"
	"dip/internal/opt"
	"dip/internal/router"
	"dip/internal/telemetry"
	"dip/internal/workload"
)

// outcome is what one packet did to a node: which verdict/drop counters
// moved and which ports it left on.
type outcome struct {
	verdict string
	egress  string
}

// probe builds spec under env with four recording ports and returns a
// function feeding one packet and reporting its outcome. settle drains
// whatever the environment deferred (and nothing later: a simulation run
// to the end would age the PIT by sweeping it).
func probe(t *testing.T, spec node.Spec, env node.Env, settle func()) func(pkt []byte, inPort int) outcome {
	t.Helper()
	n, err := node.Build(spec, env)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	var egress []int
	for p := 0; p < 4; p++ {
		p := p
		n.AttachPort(router.PortFunc(func([]byte) { egress = append(egress, p) }), false)
	}
	prev := n.Metrics.Snapshot()
	return func(pkt []byte, inPort int) outcome {
		egress = egress[:0]
		n.Handle(append([]byte(nil), pkt...), inPort)
		settle()
		cur := n.Metrics.Snapshot()
		o := outcome{verdict: verdictDelta(prev, cur)}
		prev = cur
		sort.Ints(egress)
		o.egress = fmt.Sprint(egress)
		return o
	}
}

func verdictDelta(a, b telemetry.Snapshot) string {
	var parts []string
	for _, c := range []struct {
		name string
		d    int64
	}{
		{"forward", b.Forwarded - a.Forwarded}, {"deliver", b.Delivered - a.Delivered},
		{"absorb", b.Absorbed - a.Absorbed}, {"no-action", b.NoAction - a.NoAction},
		{"drop", b.Dropped - a.Dropped},
	} {
		if c.d != 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", c.name, c.d))
		}
	}
	for reason, n := range b.Drops {
		if d := n - a.Drops[reason]; d != 0 {
			parts = append(parts, fmt.Sprintf("%v=%d", reason, d))
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// TestOneWayToBuild is the oracle the package exists for: one Spec built
// under the wall Env and under the netsim Env must treat the five-protocol
// trace identically, packet for packet. The Spec turns on everything that
// does not depend on goroutine timing — pump-mode guard, cache, sharded PIT,
// OPT, the trace sampler (feeding the journey emitter) and INT. (The cold tier is left out: its
// wall-Env reads complete on reader goroutines, at no fixed point in the
// packet sequence.)
func TestOneWayToBuild(t *testing.T) {
	secret := bytes.Repeat([]byte{0x42}, 16)
	sv, err := drkey.NewSecretValue("oracle", secret)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := drkey.NewSecretValue("dst", bytes.Repeat([]byte{0xD0}, 16))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := opt.NewSession(opt.Kind2EM, []opt.HopConfig{{Secret: sv}}, dst)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.Generate(workload.Spec{
		Weights: map[workload.Protocol]float64{
			workload.ProtoIPv4: 4, workload.ProtoIPv6: 2, workload.ProtoNDN: 2,
			workload.ProtoOPT: 1, workload.ProtoNDNOPT: 1,
		},
		Names: 256, ZipfS: 1.1, Ports: 4, Session: sess, Seed: 13,
	}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	p6 := make([]byte, 16)
	p6[0] = workload.Addr6PrefixByte
	spec := node.Spec{
		Name:      "oracle",
		Secret:    secret,
		Routes32:  []node.Route{{Prefix: []byte{workload.AddrPrefixByte, 0, 0, 0}, Len: 8, Port: 1}},
		Routes128: []node.Route{{Prefix: p6, Len: 8, Port: 2}},
		Names:     []node.Route{{Prefix: []byte{0xAA, 0, 0, 0}, Len: 8, Port: 3}},
		Cache:     64, PITShards: 4, Batch: 8, Queue: 32,
		TraceEvery: 4, IntEvery: 1,
	}
	sim := netsim.New()
	wall := probe(t, spec, node.WallEnv(nil), func() {})
	virt := probe(t, spec, node.SimEnv(sim), func() { sim.RunUntil(sim.Now()) })
	seen := map[string]int{}
	for i, p := range tr.Packets {
		w, v := wall(p.Buf, p.InPort), virt(p.Buf, p.InPort)
		if w != v {
			t.Fatalf("packet %d (%v): wall %+v, netsim %+v", i, p.Proto, w, v)
		}
		seen[w.verdict]++
	}
	// The comparison must not be vacuous: the trace forwards, absorbs
	// (interests answered from cache), drops (their now-unsolicited data)
	// and ends the pure-OPT packets with no forwarding action.
	for _, want := range []string{"forward=1", "absorb=1", "drop=1,pit-miss=1", "no-action=1"} {
		if seen[want] == 0 {
			t.Errorf("no packet with verdict %q in %v", want, seen)
		}
	}
}
