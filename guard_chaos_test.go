package dip

// Overload chaos test: a flooding attacker and a well-behaved NDN consumer
// share one bottleneck router running the full ingress guard layer —
// admission control, two-class priority queues, PIT per-port flood caps,
// and the panic quarantine. The attacker's interest flood is contained by
// its own port's token bucket and PIT cap; the consumer's fetches all
// complete. A poison packet that panics the pipeline mid-run lands in the
// quarantine ring and service continues. The router runs in pump mode
// (Workers: 0) with the admission clock wired to virtual time, so the
// whole run is deterministic and asserted as such.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"dip/internal/guard"
	"dip/internal/host"
	"dip/internal/netsim"
	"dip/internal/pit"
)

type guardChaosOutcome struct {
	Stats            SegStats
	CompletedAt      map[uint32]time.Duration
	Health           Health
	AttackerRejected int64
	ConsumerRejected int64
	ProducerRejected int64
	PortCapHits      int64
	ConsumerPending  int
	Quarantined      int64
	QuarantineSeqs   []int64
}

const (
	gcConsumerPort = 0
	gcProducerPort = 1
	gcAttackerPort = 2
)

func runGuardChaos(t *testing.T, nFetch, batch int) guardChaosOutcome {
	t.Helper()
	sim := netsim.New()
	simNow := func() int64 { return int64(sim.Now()) }

	st := NewNodeState()
	st.PIT = pit.New[uint32](
		pit.WithTTL[uint32](50*time.Millisecond),
		pit.WithClock[uint32](simNow),
		pit.WithPerPortCap[uint32](8),
	)
	st.NameFIB.AddUint32(0xAA000000, 8, NextHop{Port: gcProducerPort})
	st.NameFIB.AddUint32(0xAB000000, 8, NextHop{Port: gcProducerPort})
	st.FIB32.AddUint32(0, 0, Local) // poison packet delivers locally
	r := NewRouter(st.OpsConfig(), RouterOptions{
		Name: "bottleneck",
		LocalDelivery: func(pkt []byte, _ int) {
			if len(pkt) > 0 && pkt[len(pkt)-1] == 0xEE {
				panic("chaos poison")
			}
		},
	})

	adm := guard.NewAdmission(AdmissionPolicy{
		PerPort: AdmissionRate{PerSec: 500, Burst: 8},
	}, simNow)
	in := r.ServeGuarded(ServeConfig{
		Workers:   0, // pump mode: deterministic inline drain under virtual time
		Batch:     batch,
		HighDepth: 16,
		LowDepth:  4,
		Admission: adm,
		Clock:     simNow,
	})
	defer in.Close()

	// Every link feeds the guarded ingress instead of HandlePacket directly;
	// an accepted packet is drained by a pump event a service-latency later.
	const serviceDelay = 200 * time.Microsecond
	rx := netsim.ReceiverFunc(func(pkt []byte, port int) {
		if in.Submit(pkt, port) {
			sim.Schedule(serviceDelay, func() { in.Pump() })
		}
	})
	const hop = time.Millisecond

	var fetcher *SegFetcher
	consumerRx := netsim.ReceiverFunc(func(pkt []byte, _ int) { fetcher.HandleData(pkt) })

	// Producer answers only the consumer's 0xAA names; the attacker's 0xAB
	// interests pin PIT state until their TTL, as a real flood would.
	var toProducerSide *netsim.Endpoint
	producerRx := netsim.ReceiverFunc(func(pkt []byte, _ int) {
		v, err := ParsePacket(pkt)
		if err != nil {
			return
		}
		name, ok := host.InterestName(v)
		if !ok || name>>24 != 0xAA {
			return
		}
		reply, err := BuildPacket(NDNDataProfile(name), []byte(fmt.Sprintf("content-%08x", name)))
		if err != nil {
			return
		}
		toProducerSide.Send(reply)
	})

	toConsumerSide := sim.Pipe(rx, gcConsumerPort, hop, 0)
	toAttackerSide := sim.Pipe(rx, gcAttackerPort, hop, 0)
	r.AttachPort(sim.Pipe(consumerRx, 0, hop, 0))                                // port 0 → consumer
	r.AttachPort(sim.Pipe(producerRx, 0, hop, 0))                                // port 1 → producer
	r.AttachPort(sim.Pipe(netsim.ReceiverFunc(func([]byte, int) {}), 0, hop, 0)) // port 2 → attacker (sink)
	toProducerSide = sim.Pipe(rx, gcProducerPort, hop, 0)

	fetcher = NewSegFetcher(sim, func(pkt []byte) { toConsumerSide.Send(pkt) }, SegConfig{
		CC: CCConfig{Algo: CCAlgoBlind, InitCwnd: nFetch,
			RTT: RTTConfig{InitRTO: 60 * time.Millisecond}},
		MaxRetx: 8,
	})
	outcome := guardChaosOutcome{CompletedAt: map[uint32]time.Duration{}}
	fetcher.OnObject = func(name uint32, _ []byte) { outcome.CompletedAt[name] = sim.Now() }

	sweep := st.PIT.SweepEvery(sim, 25*time.Millisecond, nil)
	defer sweep()

	// Consumer: one fetch every 10ms.
	for i := 0; i < nFetch; i++ {
		name := uint32(0xAA000000 + i)
		sim.Schedule(time.Duration(1+10*i)*time.Millisecond, func() { fetcher.FetchObject(name, 1) })
	}

	// Attacker: bursts of 30 distinct-name interests every 5ms for the whole
	// run — far over the port's 8-token burst (admission rejects) and the
	// 4-deep bulk queue (sheds), and over the PIT per-port cap of 8.
	horizon := time.Duration(1+10*nFetch)*time.Millisecond + 200*time.Millisecond
	seq := uint32(0)
	for at := time.Duration(0); at < horizon; at += 5 * time.Millisecond {
		at := at
		sim.Schedule(at, func() {
			for j := 0; j < 30; j++ {
				seq++
				p, err := BuildPacket(NDNInterestProfile(0xAB000000+seq), nil)
				if err != nil {
					t.Errorf("attacker build: %v", err)
					return
				}
				toAttackerSide.Send(p)
			}
		})
	}

	// Mid-run, the attacker lobs a poison packet that panics local delivery.
	sim.Schedule(37*time.Millisecond, func() {
		p, err := BuildPacket(IPv4Profile([4]byte{9, 9, 9, 9}, [4]byte{2, 2, 2, 2}), []byte{0xEE})
		if err != nil {
			t.Errorf("poison build: %v", err)
			return
		}
		toAttackerSide.Send(p)
	})

	sim.RunUntil(horizon + time.Second)

	outcome.Stats = fetcher.Stats()
	outcome.Health = in.Health()
	outcome.AttackerRejected = adm.RejectedOnPort(gcAttackerPort)
	outcome.ConsumerRejected = adm.RejectedOnPort(gcConsumerPort)
	outcome.ProducerRejected = adm.RejectedOnPort(gcProducerPort)
	outcome.PortCapHits = st.PIT.PortCapRejections()
	outcome.ConsumerPending = st.PIT.PortPending(gcConsumerPort)
	outcome.Quarantined = in.Quarantine().Total()
	for _, c := range in.Quarantine().Snapshot() {
		outcome.QuarantineSeqs = append(outcome.QuarantineSeqs, c.Seq)
	}
	return outcome
}

func TestGuardChaosFloodSharesRouterWithConsumer(t *testing.T) {
	const n = 10
	// Batch 1 is the packet-at-a-time discipline E14 was originally run
	// under; TestGuardChaosFloodBatch64 repeats the scenario at the batched
	// default.
	out := runGuardChaos(t, n, 1)

	// The well-behaved consumer is unharmed: every fetch completes and the
	// guards never touched its port.
	if out.Stats.ObjectsCompleted != n || len(out.CompletedAt) != n {
		t.Fatalf("consumer completed %d/%d fetches (dead-lettered %d, pending %d)",
			out.Stats.ObjectsCompleted, n, out.Stats.DeadLettered, out.Stats.PendingSegments)
	}
	if out.ConsumerRejected != 0 {
		t.Errorf("admission rejected %d consumer packets", out.ConsumerRejected)
	}
	if out.ProducerRejected != 0 {
		t.Errorf("admission rejected %d producer packets", out.ProducerRejected)
	}

	// The attacker hit every guard: token bucket, queue shed, PIT port cap.
	if out.AttackerRejected == 0 {
		t.Error("admission control never rejected the flooding port")
	}
	if out.Health.AdmitRejected != out.AttackerRejected {
		t.Errorf("ingress counted %d rejections, admission %d",
			out.Health.AdmitRejected, out.AttackerRejected)
	}
	if out.Health.ShedLow == 0 {
		t.Error("bulk queue never shed under the flood")
	}
	if out.Health.ShedHigh != 0 {
		t.Errorf("control queue shed %d — flood leaked into the high class", out.Health.ShedHigh)
	}
	if out.PortCapHits == 0 {
		t.Error("PIT per-port cap never engaged")
	}
	if out.ConsumerPending != 0 {
		t.Errorf("%d consumer PIT entries leaked", out.ConsumerPending)
	}

	// The poison packet is quarantined, not fatal: captures carry the
	// attacker's port and the panic, and service continued afterwards (the
	// late fetches completed above).
	if out.Quarantined != 1 || len(out.QuarantineSeqs) != 1 {
		t.Fatalf("quarantined %d packets (%d captures), want 1", out.Quarantined, len(out.QuarantineSeqs))
	}
	if out.Health.Quarantined != 1 {
		t.Errorf("Health.Quarantined = %d, want 1", out.Health.Quarantined)
	}

	// Deterministic: an identical run reproduces every counter and time.
	again := runGuardChaos(t, n, 1)
	if !reflect.DeepEqual(out, again) {
		t.Fatalf("guard chaos run not deterministic:\n run1: %+v\n run2: %+v", out, again)
	}

	t.Logf("guard chaos: %d fetches ok; attacker: %d admit-rejected, %d shed, %d PIT-capped; %s",
		n, out.AttackerRejected, out.Health.ShedLow, out.PortCapHits, out.Health)
}

// TestGuardChaosFloodBatch64 re-runs the E14 flood-vs-consumer scenario
// with the batched run-to-completion dataplane at its default burst size:
// the fairness outcome must survive batching. Control-class traffic still
// preempts queued bulk (ShedHigh stays zero while the bulk queue sheds),
// the attacker is contained by the same three guards, every consumer
// fetch completes, and the run is still deterministic.
func TestGuardChaosFloodBatch64(t *testing.T) {
	const n = 10
	out := runGuardChaos(t, n, 64)

	if out.Stats.ObjectsCompleted != n || len(out.CompletedAt) != n {
		t.Fatalf("consumer completed %d/%d fetches under batch=64 (dead-lettered %d, pending %d)",
			out.Stats.ObjectsCompleted, n, out.Stats.DeadLettered, out.Stats.PendingSegments)
	}
	if out.ConsumerRejected != 0 {
		t.Errorf("admission rejected %d consumer packets", out.ConsumerRejected)
	}
	if out.AttackerRejected == 0 {
		t.Error("admission control never rejected the flooding port")
	}
	if out.Health.ShedLow == 0 {
		t.Error("bulk queue never shed under the flood")
	}
	if out.Health.ShedHigh != 0 {
		t.Errorf("control queue shed %d at batch=64 — bulk bursts starved the control class",
			out.Health.ShedHigh)
	}
	if out.PortCapHits == 0 {
		t.Error("PIT per-port cap never engaged")
	}
	if out.ConsumerPending != 0 {
		t.Errorf("%d consumer PIT entries leaked", out.ConsumerPending)
	}
	if out.Quarantined != 1 {
		t.Fatalf("quarantined %d packets, want 1", out.Quarantined)
	}

	again := runGuardChaos(t, n, 64)
	if !reflect.DeepEqual(out, again) {
		t.Fatalf("batched guard chaos run not deterministic:\n run1: %+v\n run2: %+v", out, again)
	}

	t.Logf("guard chaos batch=64: %d fetches ok; attacker: %d admit-rejected, %d shed, %d PIT-capped; %s",
		n, out.AttackerRejected, out.Health.ShedLow, out.PortCapHits, out.Health)
}

// The quarantine capture from a run like the above dumps in a form dipdump
// accepts: '#' annotations around one hex packet line.
func TestGuardChaosQuarantineDumpShape(t *testing.T) {
	sim := netsim.New()
	st := NewNodeState()
	st.FIB32.AddUint32(0, 0, Local)
	r := NewRouter(st.OpsConfig(), RouterOptions{
		LocalDelivery: func([]byte, int) { panic("boom") },
	})
	in := r.ServeGuarded(ServeConfig{Workers: 0, Clock: func() int64 { return int64(sim.Now()) }})
	defer in.Close()
	p, err := BuildPacket(IPv4Profile([4]byte{1, 1, 1, 1}, [4]byte{2, 2, 2, 2}), []byte{0xEE})
	if err != nil {
		t.Fatal(err)
	}
	if !in.Submit(p, 5) {
		t.Fatal("submit refused")
	}
	if in.Pump() != 1 {
		t.Fatal("pump did not process the packet")
	}
	dump := in.Quarantine().Dump()
	if !strings.Contains(dump, "inport=5") || !strings.Contains(dump, `panic="boom"`) {
		t.Errorf("dump missing capture metadata:\n%s", dump)
	}
	hexLines := 0
	for _, line := range strings.Split(dump, "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			hexLines++
		}
	}
	if hexLines != 1 {
		t.Errorf("dump has %d packet lines, want 1:\n%s", hexLines, dump)
	}
}
