package journey

import (
	"sync/atomic"
	"time"

	"dip/internal/core"
	"dip/internal/host"
	"dip/internal/netsim"
	"dip/internal/tunnel"
)

// RouterTap wraps a router's installed recorder (metrics or trace recorder)
// and additionally emits one SpanRouter per sampled packet, bracketing
// Algorithm 1 from ingress to verdict. It implements core.Recorder; install
// with Router.SetRecorder. The unsampled path is the sampling decision plus
// the wrapped recorder's own cost — zero allocations (pinned by
// zeroalloc_test.go).
type RouterTap struct {
	node  string
	sink  SpanSink
	inner core.Recorder
	every core.Every
	now   func() int64
	seen  atomic.Uint64
}

// NewRouterTap builds a span-emitting recorder for the named router. Every
// every-th packet gets a span (1 = all); inner (may be nil) observes every
// packet unchanged; now is the journey clock (nil = wall time).
func NewRouterTap(node string, sink SpanSink, inner core.Recorder, every int, now func() int64) *RouterTap {
	if every < 1 {
		every = 1
	}
	if now == nil {
		now = func() int64 { return time.Now().UnixNano() }
	}
	return &RouterTap{node: node, sink: sink, inner: inner, every: core.NewEvery(uint64(every)), now: now}
}

// BeginPacket implements core.Recorder: forward the bracket, then decide
// sampling and, on a hit, claim the two things only this moment can tell —
// the trace ID while the packet is still as it arrived (the fingerprint
// must match what the upstream link saw) and the journey-clock start.
func (t *RouterTap) BeginPacket(ctx *core.ExecContext) {
	if t.inner != nil {
		t.inner.BeginPacket(ctx)
	}
	if ctx.SampleEvery(t.every, &t.seen) {
		ctx.Obs.Claim(t, uint64(TraceOfView(ctx.View)), uint64(t.now()))
	}
}

// EndPacket implements core.Recorder: build the sampled packet's span from
// its claim and observation record and emit it, then forward the bracket.
func (t *RouterTap) EndPacket(ctx *core.ExecContext) {
	if id, start, ok := ctx.Obs.Release(t); ok {
		o, v := &ctx.Obs, ctx.View
		sp := Span{
			Trace:   TraceID(id),
			Kind:    SpanRouter,
			Node:    t.node,
			Start:   int64(start),
			End:     max(t.now(), int64(start)),
			CPUNs:   int64(time.Since(core.MonoBase()) - o.Begin),
			Proto:   ProtoOf(v),
			Verdict: ctx.Verdict,
			Reason:  ctx.Reason,
			Dropped: ctx.Verdict == core.VerdictDrop,
		}
		sp.Name, sp.HasName = nameOfView(v)
		sp.NSteps = uint8(copy(sp.Steps[:], o.Steps[:o.N]))
		if t.sink != nil {
			t.sink.AddSpan(sp)
		}
	}
	if t.inner != nil {
		t.inner.EndPacket(ctx)
	}
}

// Seen returns how many packets passed the tap's sampling decision.
func (t *RouterTap) Seen() uint64 { return t.seen.Load() }

// NewLinkTap adapts a SpanSink into a netsim.TransitObserver for the link
// labeled node ("R1->R2"): every observed transit becomes one SpanLink with
// the queueing vs wire split the simulator already computed. Transits whose
// packet yields no trace ID (probe control traffic) are skipped.
func NewLinkTap(node string, sink SpanSink) netsim.TransitObserver {
	return func(tr netsim.Transit) {
		id := TraceOf(tr.Pkt)
		if id == 0 {
			return
		}
		sp := Span{
			Trace:   id,
			Kind:    SpanLink,
			Node:    node,
			Start:   int64(tr.Offered),
			End:     int64(tr.Arrival),
			QueueNs: int64(tr.Queue),
			WireNs:  int64(tr.Wire),
			Dropped: tr.Dropped,
			Cause:   tr.Cause,
		}
		if sp.Dropped {
			// A dropped packet never reaches the far end; its span extends
			// only through the phase that killed it.
			sp.End = sp.Start + sp.QueueNs + sp.WireNs
		}
		sink.AddSpan(sp)
	}
}

// NewTunnelTap adapts a SpanSink into a tunnel.Observer for the tunnel
// endpoint labeled node: encap/decap become point spans on the inner
// packet's journey; probe misses and failovers (which concern no single
// packet) become zero-trace point spans the Collector files as standalone
// tunnel-health events.
func NewTunnelTap(node string, sink SpanSink, now func() int64) tunnel.Observer {
	if now == nil {
		now = func() int64 { return time.Now().UnixNano() }
	}
	return func(ev tunnel.Event, dipPkt []byte) {
		sp := Span{Node: node, Start: now()}
		sp.End = sp.Start
		switch ev {
		case tunnel.EventEncap:
			sp.Kind = SpanTunnelEncap
		case tunnel.EventDecap:
			sp.Kind = SpanTunnelDecap
		case tunnel.EventProbeMiss:
			sp.Kind = SpanTunnelProbeMiss
		case tunnel.EventFailover:
			sp.Kind = SpanTunnelFailover
		default:
			return
		}
		if len(dipPkt) > 0 {
			sp.Trace = TraceOf(dipPkt)
			if sp.Trace == 0 {
				return
			}
		}
		sink.AddSpan(sp)
	}
}

// NewFetcherTap adapts a SpanSink into a host.FetchObserver for the
// consumer labeled node: sends, retransmissions (which open a new journey
// instance at the Collector), satisfactions and dead letters become host
// spans. The satisfy span carries the data packet's trace ID, so it
// terminates the data journey; the interest journey is linked by name.
func NewFetcherTap(node string, sink SpanSink, now func() int64) host.FetchObserver {
	if now == nil {
		now = func() int64 { return time.Now().UnixNano() }
	}
	return func(ev host.FetchEvent, name uint32, pkt []byte) {
		sp := Span{Node: node, Start: now(), Name: name, HasName: true}
		sp.End = sp.Start
		switch ev {
		case host.FetchSend:
			sp.Kind = SpanHostSend
		case host.FetchRetx:
			sp.Kind = SpanHostRetx
		case host.FetchSatisfy:
			sp.Kind = SpanHostSatisfy
		case host.FetchDeadLetter:
			sp.Kind = SpanHostDeadLetter
			sp.Dropped = true
			sp.Cause = "dead-letter"
		case host.FetchCwndCut:
			sp.Kind = SpanHostCwndCut
		default:
			return
		}
		if len(pkt) > 0 {
			sp.Trace = TraceOf(pkt)
		}
		sink.AddSpan(sp)
	}
}
