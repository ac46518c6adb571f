package dip

// Observability tests: the per-interval snapshot deltas must localize a
// fault in *time* — final totals can prove recovery happened, only a rate
// series can prove it stopped being needed. A link-down window forces the
// consumer's fetcher to retransmit; the retransmit rate must be nonzero
// while the link is down and decay to zero once it heals.

import (
	"testing"
	"time"

	"dip/internal/host"
	"dip/internal/netsim"
	"dip/internal/node"
	"dip/internal/telemetry"
)

func TestRetransmitRateDecaysAfterLinkHeals(t *testing.T) {
	sim := netsim.New()
	r := chaosNode(t, node.SimEnv(sim), NodeSpec{Name: "R", Cache: 64})
	m := r.Metrics

	// The consumer→router link is down for a 100ms window; everything else
	// is clean, so every retransmission is attributable to that outage.
	im := netsim.NewImpairment(9)
	im.DownBetween(20*time.Millisecond, 120*time.Millisecond)

	var fetcher *SegFetcher
	consumerRx := netsim.ReceiverFunc(func(pkt []byte, _ int) { fetcher.HandleData(pkt) })
	var toR *netsim.Endpoint
	producerRx := netsim.ReceiverFunc(func(pkt []byte, _ int) {
		v, err := ParsePacket(pkt)
		if err != nil {
			return
		}
		if name, ok := host.InterestName(v); ok {
			if reply, err := BuildPacket(NDNDataProfile(name), []byte("bits")); err == nil {
				toR.Send(reply)
			}
		}
	})
	rRecv := netsim.ReceiverFunc(r.Handle)
	toRDown := sim.Pipe(rRecv, 0, time.Millisecond, 0, netsim.WithImpairment(im))
	r.AttachPort(sim.Pipe(consumerRx, 0, time.Millisecond, 0), false)
	r.AttachPort(sim.Pipe(producerRx, 0, time.Millisecond, 0), false)
	toR = sim.Pipe(rRecv, 1, time.Millisecond, 0)

	// The five names share one flow, and so one backoff: their first five
	// timeouts would double it to 960ms. MaxRTO holds it at 120ms, the gap
	// a single name's 30 → 60 → 120ms schedule has reached by the heal.
	const n = 5
	fetcher = NewSegFetcher(sim, func(pkt []byte) { toRDown.Send(pkt) }, SegConfig{
		CC: CCConfig{Algo: CCAlgoBlind, InitCwnd: n,
			RTT: RTTConfig{InitRTO: 30 * time.Millisecond, MaxRTO: 120 * time.Millisecond}},
		MaxRetx: 8,
		Metrics: m,
	})
	for i := 0; i < n; i++ {
		name := uint32(0xAA000000 + i)
		// All fetches start inside the down window, guaranteeing loss.
		sim.Schedule(time.Duration(21+i)*time.Millisecond, func() { fetcher.FetchObject(name, 1) })
	}

	// Drive the run on a fixed sampling grid, snapshotting each tick — the
	// same shape topo.RunSampled produces for scenario files.
	const tick = 50 * time.Millisecond
	samples := []MetricsSnapshot{m.Snapshot()}
	ticks := []time.Duration{0}
	for at := tick; at <= 600*time.Millisecond; at += tick {
		sim.RunUntil(at)
		samples = append(samples, m.Snapshot())
		ticks = append(ticks, at)
	}

	if st := fetcher.Stats(); st.ObjectsCompleted != n || st.Retransmits == 0 {
		t.Fatalf("completed %d/%d with %d retransmits — outage recovery never ran",
			st.ObjectsCompleted, n, st.Retransmits)
	}

	var during, after int64
	for i := 1; i < len(samples); i++ {
		d := samples[i].Delta(samples[i-1]).Events[telemetry.EventRetransmit]
		if d < 0 {
			t.Fatalf("retransmit counter went backwards in interval ending %v", ticks[i])
		}
		if ticks[i] <= 150*time.Millisecond {
			during += d
		}
		if ticks[i] > 300*time.Millisecond {
			after += d
		}
	}
	if during == 0 {
		t.Error("no retransmissions observed in the intervals covering the down window")
	}
	// The heal happened at 120ms; with a 30ms base timeout every pending
	// name recovers well before 300ms, so the rate must decay to zero.
	if after != 0 {
		t.Errorf("retransmit rate did not decay: %d retransmits after 300ms", after)
	}
}
