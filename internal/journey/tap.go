package journey

import (
	"dip/internal/core"
	"dip/internal/host"
	"dip/internal/netsim"
	"dip/internal/trace"
	"dip/internal/tunnel"
)

// RouterSpans is the span half of a router's one sampler: the trace.Sink
// that turns every record the router's trace.Recorder seals into a
// SpanRouter for the named node on sink. The record supplies the packet as
// it arrived (its first CaptureBytes, exactly what Fingerprint covers), the
// start stamp, steps, verdict and engine time; the view supplies what no FN
// rewrites — the TraceCtx operand, the protocol and the content name. The
// path is allocation-free (pinned by zeroalloc_test.go).
func RouterSpans(node string, sink SpanSink) trace.Sink {
	return func(rec *trace.Record, end int64, v core.View) {
		id, ok := traceCtx(v)
		if !ok {
			id = Fingerprint(rec.Pkt[:rec.PktLen])
		}
		sp := Span{
			Trace:   id,
			Kind:    SpanRouter,
			Node:    node,
			Start:   rec.At,
			End:     max(end, rec.At),
			CPUNs:   rec.TotalNs,
			Proto:   ProtoOf(v),
			Verdict: rec.Verdict,
			Reason:  rec.Reason,
			Dropped: rec.Verdict == core.VerdictDrop,
		}
		sp.Name, sp.HasName = nameOfView(v)
		sp.NSteps = uint8(copy(sp.Steps[:], rec.Steps[:rec.NSteps]))
		sink.AddSpan(sp)
	}
}

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
// packet's journey, stamped on now (nil is core.Now).
func NewTunnelTap(node string, sink SpanSink, now func() int64) tunnel.Observer {
	if now == nil {
		now = core.Now
	}
	return func(ev tunnel.Event, dipPkt []byte) {
		sp := Span{Node: node, Start: now()}
		sp.End = sp.Start
		switch ev {
		case tunnel.EventEncap:
			sp.Kind = SpanTunnelEncap
		case tunnel.EventDecap:
			sp.Kind = SpanTunnelDecap
		default:
			return
		}
		if sp.Trace = TraceOf(dipPkt); sp.Trace == 0 {
			return
		}
		sink.AddSpan(sp)
	}
}

// NewFetchTap adapts a SpanSink into a host.FetchObserver for the
// consumer labeled node: sends, retransmissions (which open a new journey
// instance at the Collector), satisfactions and dead letters become host
// spans. The satisfy span carries the data packet's trace ID, so it
// terminates the data journey; the interest journey is linked by name.
// Spans are stamped on now (nil is core.Now).
func NewFetchTap(node string, sink SpanSink, now func() int64) host.FetchObserver {
	if now == nil {
		now = core.Now
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
