// Package router assembles the DIP per-hop pipeline: parse the header
// (in place), enforce the hop limit, run Algorithm 1 through the engine,
// and act on the verdict — forward (with replication), deliver locally,
// answer interests from the content store, or drop, including the
// FN-unsupported signalling of §2.4 for heterogeneous deployments.
package router

import (
	"sync"
	"sync/atomic"

	"dip/internal/core"
	"dip/internal/profiles"
	"dip/internal/telemetry"
	"dip/internal/trace"
)

// Port is an attachment point packets leave through. Send must not retain
// pkt after returning (links and sockets copy as they serialize) — and the
// contract is load-bearing: a cache reply's buffer is rewritten by the next.
type Port interface {
	Send(pkt []byte)
}

// PortFunc adapts a function to the Port interface.
type PortFunc func(pkt []byte)

// Send implements Port.
func (f PortFunc) Send(pkt []byte) { f(pkt) }

// Config tunes a router beyond its operation registry.
type Config struct {
	// Name labels the router in diagnostics.
	Name string
	// Limits are the per-packet security limits (§2.4).
	Limits core.Limits
	// Metrics, when set, receives per-op and per-verdict telemetry: the
	// router tallies each packet's verdict (and the drops it decides before
	// the engine) on the packet's context, and the engine's recorder stack
	// folds the tally into Metrics.
	Metrics *telemetry.Metrics
	// Trace, when set, is installed as the engine's recorder instead of
	// Metrics directly: it samples per-packet FN journeys into its ring and
	// forwards the bracket and the fold to its inner recorder. Construct it
	// with trace.NewRecorder(cfg.Metrics, …) so the counters keep flowing.
	Trace *trace.Recorder
	// LocalDelivery receives packets whose verdict is Deliver (this node
	// is the destination or the local producer). The buffer is only valid
	// during the call.
	LocalDelivery func(pkt []byte, inPort int)
}

// Router is one DIP-capable node.
type Router struct {
	engine *core.Engine
	cfg    Config
	ports  []Port
	// ingress is the currently serving guard layer, when any (set by
	// ServeGuarded, cleared by Close); Health reads through it.
	ingress atomic.Pointer[Ingress]
}

// New builds a router over the operation registry.
func New(reg *core.Registry, cfg Config) *Router {
	e := core.NewEngine(reg, cfg.Limits)
	if cfg.Trace != nil {
		e.SetRecorder(cfg.Trace)
	} else if cfg.Metrics != nil {
		e.SetRecorder(cfg.Metrics)
	}
	return &Router{engine: e, cfg: cfg}
}

// SetRecorder replaces the engine's recorder. Call before packets flow (and
// before ServeGuarded) — it installs a stack other than the one Config
// built, such as a span-emitting trace recorder wrapping Config's (it
// forwards to the wrapped recorder, so metrics and traces keep working
// underneath). Config.Metrics is counted through the stack, so it must be
// in it.
func (r *Router) SetRecorder(rec core.Recorder) { r.engine.SetRecorder(rec) }

// Registry exposes the router's current operation catalog (bootstrap
// advertises it).
func (r *Router) Registry() *core.Registry { return r.engine.Registry() }

// ReplaceRegistry atomically installs a new operation catalog while the
// data plane keeps running — the §2.4 dynamic-security-policy mechanism
// ("F_pass can be enabled on the fly upon detecting content poisoning
// attacks"). It returns the previous catalog.
func (r *Router) ReplaceRegistry(reg *core.Registry) *core.Registry {
	return r.engine.SwapRegistry(reg)
}

// Name returns the router's diagnostic label.
func (r *Router) Name() string { return r.cfg.Name }

// Health snapshots the serving ingress guard layer. ok is false when the
// router is not currently serving (no queues to report on).
func (r *Router) Health() (h Health, ok bool) {
	in := r.ingress.Load()
	if in == nil {
		return Health{}, false
	}
	return in.Health(), true
}

// AttachPort registers an egress port and returns its index.
func (r *Router) AttachPort(p Port) int {
	r.ports = append(r.ports, p)
	return len(r.ports) - 1
}

// HandlePacket runs one received packet through the pipeline. The buffer is
// mutated in place (hop limit, FN operand updates) and handed to egress
// ports; it must not be reused by the caller until HandlePacket returns.
func (r *Router) HandlePacket(pkt []byte, inPort int) {
	ctx := ctxPool.Get().(*core.ExecContext)
	r.handlePacket(ctx, pkt, inPort)
	r.engine.Fold(ctx)
	releaseCtx(ctx)
}

// handlePacket is the context-reusing core of HandlePacket. Forwarders
// (Ingress.runBurst) call it once per packet with the context they own for
// life and have burst-stamped, and fold its tally once per burst; everyone
// else goes through HandlePacket and pays one pool Get/Put and one fold per
// packet.
func (r *Router) handlePacket(ctx *core.ExecContext, pkt []byte, inPort int) {
	if ctx.Load(pkt, inPort) != nil {
		r.countDrop(ctx, core.DropMalformed)
		return
	}
	if !ctx.View.DecHopLimit() {
		r.countDrop(ctx, core.DropHopLimit)
		return
	}
	r.engine.Process(ctx)
	if r.cfg.Metrics != nil {
		ctx.Tally.CountVerdict(ctx.Verdict)
	}
	switch ctx.Verdict {
	case core.VerdictForward:
		for _, p := range ctx.EgressPorts() {
			r.sendOn(p, pkt)
		}
	case core.VerdictDeliver:
		if r.cfg.LocalDelivery != nil {
			r.cfg.LocalDelivery(pkt, inPort)
		}
	case core.VerdictAbsorb:
		if ctx.Cached != nil {
			r.replyFromCache(ctx, inPort)
		}
	case core.VerdictDrop:
		if ctx.SignalUnsupported {
			r.signalUnsupported(ctx, inPort)
		}
	}
}

// ctxPool recycles execution contexts so HandlePacket stays allocation-free
// even though contexts escape into the engine through interface calls. Each
// is burst-stamped once, with the unknown admission snapshot (0, 0) an
// unstamped context has, so Process leaves the fold to HandlePacket: one
// per packet, after the router has tallied the verdict.
var ctxPool = sync.Pool{New: func() any {
	ctx := new(core.ExecContext)
	ctx.BeginBurst(0, 0)
	return ctx
}}

func releaseCtx(ctx *core.ExecContext) {
	scrub(ctx)
	ctxPool.Put(ctx)
}

// scrub drops the references an idle context would otherwise pin.
func scrub(ctx *core.ExecContext) {
	ctx.Cached = nil       // the content-store entry
	ctx.View = core.View{} // the packet buffer
}

func (r *Router) sendOn(port int, pkt []byte) {
	if port >= 0 && port < len(r.ports) && r.ports[port] != nil {
		r.ports[port].Send(pkt)
		return
	}
	// A route pointing at a detached port is a configuration fault; count it
	// so the packet does not vanish without trace.
	if r.cfg.Metrics != nil {
		r.cfg.Metrics.RecordEvent(telemetry.EventBadEgress)
	}
}

func (r *Router) countDrop(ctx *core.ExecContext, reason core.DropReason) {
	if r.cfg.Metrics != nil {
		ctx.Tally.CountDrop(reason)
	}
}

// maxReplyKeep bounds the reply buffer an idle context may pin.
const maxReplyKeep = 64 << 10

// replyFromCache synthesizes the NDN data packet answering an interest the
// content store satisfied (footnote 2) under the name F_FIB looked up,
// whatever its operand's width and offset, and sends it back on the ingress
// port.
func (r *Router) replyFromCache(ctx *core.ExecContext, inPort int) {
	h := profiles.NDNData(ctx.CachedName)
	h.HopLimit = ctx.View.HopLimit()
	buf, err := h.AppendTo(ctx.Reply[:0])
	if err != nil {
		return
	}
	buf = append(buf, ctx.Cached...)
	r.sendOn(inPort, buf)
	ctx.Reply = buf
	if cap(buf) > maxReplyKeep {
		ctx.Reply = nil
	}
}

// signalUnsupported builds and sends the FN-unsupported notification back
// toward the packet's source. Without an F_source FN the source is
// unaddressable and the packet is silently dropped.
func (r *Router) signalUnsupported(ctx *core.ExecContext, inPort int) {
	src := profiles.SourceOf(ctx.View)
	msg, err := profiles.BuildFNUnsupported(src, ctx.UnsupportedKey)
	if err != nil {
		return
	}
	r.sendOn(inPort, msg)
}
