// Package journey implements end-to-end distributed tracing for DIP: one
// span per element a packet traverses (router, link, tunnel endpoint, host
// fetcher), stitched into per-packet journeys by a Collector, decomposed
// into time-in-FN vs time-in-queue vs time-on-wire vs PIT-wait, and frozen
// into an anomaly flight recorder when something goes wrong.
//
// The hard problem is correlation: which spans belong to one packet? Two
// mechanisms coexist, mirroring the paper's own extensibility story (§2.4):
//
//   - TraceCtx FN. A host may reserve 64 bits of the FN-locations region and
//     tag them with the F_trace extension key (core.KeyTraceCtx). The
//     operand is an explicit trace ID every element reads back out. The FN
//     is host-tagged and passive, so routers skip it per Algorithm 1 and
//     hosts without a module ignore it — carrying it never breaks anything.
//   - Packet fingerprint. For unmodified wire formats the trace ID is a
//     stable hash of the packet's first CaptureBytes with the mutable
//     hop-limit byte masked out. Identical retransmissions and fault-
//     injected duplicates share a fingerprint by construction (the Collector
//     splits them into journey instances); protocols that mutate operands
//     hop by hop (OPT's PVF) defeat fingerprinting and need the TraceCtx FN.
//
// Span timestamps come from one injected clock (the netsim virtual clock in
// simulations, core.Now in live processes) so a journey never mixes time
// bases; router CPU time is metered separately on core.Now.
package journey

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"time"

	"dip/internal/core"
	"dip/internal/trace"
	"dip/internal/tunnel"
)

// TraceID identifies all spans of one packet's life. Zero is reserved for
// "unknown" (spans carrying it attach by content name or are discarded).
type TraceID uint64

// CaptureBytes is the packet prefix a fingerprint covers — the prefix a
// trace record captures, so a router span's fingerprint is taken from its
// record (RouterSpans) and is reproducible offline from /trace.
const CaptureBytes = trace.CaptureBytes

// hopLimitByte is the offset of the mutable hop-limit field in the basic
// header (masked out of fingerprints: every hop decrements it).
const hopLimitByte = 3

// Fingerprint hashes the packet's first CaptureBytes (FNV-1a 64) with the
// hop-limit byte zeroed, yielding a trace ID that is stable across hops for
// any packet whose FN operands are not rewritten in flight. Never zero.
func Fingerprint(pkt []byte) TraceID {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	n := len(pkt)
	if n > CaptureBytes {
		n = CaptureBytes
	}
	for i := 0; i < n; i++ {
		b := pkt[i]
		if i == hopLimitByte {
			b = 0
		}
		h ^= uint64(b)
		h *= prime64
	}
	if h == 0 {
		h = 1
	}
	return TraceID(h)
}

// TraceOf extracts the trace ID from raw bytes — an explicit TraceCtx FN
// operand when the packet carries one, else the fingerprint — for a DIP
// packet directly, a DIP-in-IPv4 tunnel packet by its inner payload (so
// carrier-link spans join the inner packet's journey), and 0 for anything
// else (probe control traffic, foreign packets) — callers skip zero-trace
// spans.
func TraceOf(pkt []byte) TraceID {
	v, err := core.ParseView(pkt)
	if err != nil {
		inner, derr := tunnel.Decap(pkt)
		if derr != nil {
			return 0
		}
		if v, err = core.ParseView(inner); err != nil {
			return 0
		}
	}
	if id, ok := traceCtx(v); ok {
		return id
	}
	return Fingerprint(v.Packet())
}

// traceCtx scans the FN list for a host-tagged F_trace FN with a 64-bit
// byte-aligned operand and reads the explicit trace ID out of it.
func traceCtx(v core.View) (TraceID, bool) {
	for i := 0; i < v.FNNum(); i++ {
		fn := v.FN(i)
		if fn.Key == core.KeyTraceCtx && fn.Host && fn.Len == 64 && fn.Loc%8 == 0 {
			locs := v.Locations()
			off := int(fn.Loc) / 8
			if off+8 <= len(locs) {
				id := TraceID(binary.BigEndian.Uint64(locs[off:]))
				if id != 0 {
					return id, true
				}
			}
		}
	}
	return 0, false
}

// WithTraceCtx appends a TraceCtx FN carrying id to a header under
// construction, reserving eight fresh bytes at the end of the FN-locations
// region. The header must not have been serialized yet. Returns h.
func WithTraceCtx(h *core.Header, id TraceID) *core.Header {
	loc := uint16(len(h.Locations) * 8)
	h.FNs = append(h.FNs, core.HostFN(loc, 64, core.KeyTraceCtx))
	var operand [8]byte
	binary.BigEndian.PutUint64(operand[:], uint64(id))
	h.Locations = append(h.Locations, operand[:]...)
	return h
}

// ProtoOf classifies a packet's protocol family by its leading FN — the
// per-protocol axis of the latency decomposition histograms.
func ProtoOf(v core.View) string {
	if v.FNNum() == 0 {
		return "empty"
	}
	switch v.FN(0).Key {
	case core.KeyMatch32:
		return "ip32"
	case core.KeyMatch128:
		return "ip128"
	case core.KeyFIB:
		return "ndn-interest"
	case core.KeyPIT:
		return "ndn-data"
	case core.KeyParm, core.KeyMAC, core.KeyMark, core.KeyVer:
		return "opt"
	case core.KeyDAG:
		return "xia"
	}
	return "other"
}

// nameOfView extracts the 32-bit content name of an NDN-style packet (the
// operand of its F_FIB or F_PIT FN), for linking interest and data journeys
// of one fetch. ok=false for non-NDN packets.
func nameOfView(v core.View) (uint32, bool) {
	for i := 0; i < v.FNNum(); i++ {
		fn := v.FN(i)
		if (fn.Key == core.KeyFIB || fn.Key == core.KeyPIT) && fn.Len == 32 && fn.Loc%8 == 0 {
			locs := v.Locations()
			off := int(fn.Loc) / 8
			if off+4 <= len(locs) {
				return binary.BigEndian.Uint32(locs[off:]), true
			}
		}
	}
	return 0, false
}

// MaxSteps bounds the per-FN step detail retained in a router span: the
// steps of the trace record it is built from.
const MaxSteps = trace.MaxSteps

// Step is one executed FN inside a router span.
type Step = core.Step

// SpanKind says which element type emitted a span.
type SpanKind uint8

// Span kinds, one per traversed element type.
const (
	// SpanRouter brackets one router's ingress→verdict (Algorithm 1).
	SpanRouter SpanKind = iota
	// SpanLink is one link transit: queueing + serialization + propagation.
	SpanLink
	// SpanTunnelEncap marks a packet entering the UDP/legacy overlay.
	SpanTunnelEncap
	// SpanTunnelDecap marks a packet leaving the overlay into a router.
	SpanTunnelDecap
	// SpanHostSend is a host's first transmission of a packet.
	SpanHostSend
	// SpanHostRetx is a fetcher retransmission (opens a new journey instance).
	SpanHostRetx
	// SpanHostRecv is a packet arriving at a host (terminal).
	SpanHostRecv
	// SpanHostSatisfy is a fetcher completing a name with data (terminal).
	SpanHostSatisfy
	// SpanHostDeadLetter is a fetcher abandoning a name (terminal, by name).
	SpanHostDeadLetter
	// SpanHostCwndCut is a fetcher's congestion controller cutting its
	// window after a timeout (a congestion event, filed by name).
	SpanHostCwndCut
	// SpanCSCold is a content-store cold-tier read: the time an interest
	// spent parked while the arena slot was fetched and re-injected.
	SpanCSCold
	numSpanKinds
)

var spanKindNames = [numSpanKinds]string{
	"router", "link", "encap", "decap",
	"send", "retx", "recv", "satisfy", "dead-letter", "cwnd-cut",
	"cs-cold",
}

// String names the span kind.
func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) {
		return spanKindNames[k]
	}
	return "span(?)"
}

func spanKindOf(s string) (SpanKind, bool) {
	for i, n := range spanKindNames {
		if n == s {
			return SpanKind(i), true
		}
	}
	return 0, false
}

// Span is one element's observation of one packet. Start and End are
// nanoseconds on the journey clock (virtual time in simulations); CPUNs is
// wall-clock engine time, metered separately so virtual-time spans still
// expose real compute cost.
type Span struct {
	Trace TraceID
	Kind  SpanKind
	// Node labels the emitting element ("R1", "C->R1", "R2~tun").
	Node       string
	Start, End int64
	// QueueNs and WireNs decompose a link span's duration (End-Start =
	// QueueNs + WireNs): time waiting behind earlier packets vs
	// serialization + propagation (+ impairment-injected delay).
	QueueNs, WireNs int64
	// CPUNs is a router span's wall-clock Algorithm 1 bracket.
	CPUNs int64
	// Verdict and Reason are a router span's outcome.
	Verdict core.Verdict
	Reason  core.DropReason
	// Dropped marks the span where the packet died; Cause names the fault
	// for non-router drops ("loss", "down", "tail-drop", "link-down").
	Dropped bool
	Cause   string
	// Name is the 32-bit NDN content name when the packet carries one.
	Name uint32
	// HasName distinguishes name 0 from "no name".
	HasName bool
	// Proto is the packet's protocol family (ProtoOf).
	Proto string
	// Steps[:NSteps] is a router span's per-FN detail.
	Steps  [MaxSteps]Step
	NSteps uint8
	// Seq is the collector's arrival sequence, assigned by Add — the
	// tie-breaker that keeps same-timestamp spans in arrival order.
	Seq uint64
}

// Duration is the span's extent on the journey clock.
func (s *Span) Duration() int64 { return s.End - s.Start }

// Terminal reports whether this span ends a journey: the packet died here,
// was consumed by the element (deliver/absorb), or reached a host.
func (s *Span) Terminal() bool {
	if s.Dropped {
		return true
	}
	switch s.Kind {
	case SpanRouter:
		return s.Verdict == core.VerdictDeliver || s.Verdict == core.VerdictAbsorb
	case SpanHostRecv, SpanHostSatisfy, SpanHostDeadLetter:
		return true
	}
	return false
}

// String renders the span as one '#'-prefixed metadata line, the exchange
// format between a live process's /journeys endpoint and a remote
// Collector (ParseSpan inverts it) — the same pattern /trace uses.
func (s Span) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# span trace=%016x kind=%s node=%s start=%d end=%d",
		uint64(s.Trace), s.Kind, s.Node, s.Start, s.End)
	if s.QueueNs != 0 || s.WireNs != 0 {
		fmt.Fprintf(&b, " queue=%d wire=%d", s.QueueNs, s.WireNs)
	}
	if s.CPUNs != 0 {
		fmt.Fprintf(&b, " cpu=%d", s.CPUNs)
	}
	if s.Kind == SpanRouter {
		fmt.Fprintf(&b, " verdict=%s reason=%s", s.Verdict, s.Reason)
	}
	if s.Dropped {
		b.WriteString(" dropped=1")
	}
	if s.Cause != "" {
		fmt.Fprintf(&b, " cause=%s", s.Cause)
	}
	if s.HasName {
		fmt.Fprintf(&b, " name=%08x", s.Name)
	}
	if s.Proto != "" {
		fmt.Fprintf(&b, " proto=%s", s.Proto)
	}
	if s.NSteps > 0 {
		b.WriteString(" steps=")
		for i := uint8(0); i < s.NSteps; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%s:%s", s.Steps[i].Key, time.Duration(s.Steps[i].Ns))
		}
	}
	b.WriteByte('\n')
	return b.String()
}

// ParseSpan inverts Span.String. Unknown fields are ignored so the format
// can grow; per-FN steps are not round-tripped (keys are rendered by name).
func ParseSpan(line string) (Span, error) {
	rest, ok := strings.CutPrefix(strings.TrimSpace(line), "# span ")
	if !ok {
		return Span{}, fmt.Errorf("journey: not a span line")
	}
	var s Span
	for _, tok := range strings.Fields(rest) {
		k, v, found := strings.Cut(tok, "=")
		if !found {
			continue
		}
		switch k {
		case "trace":
			id, err := strconv.ParseUint(v, 16, 64)
			if err != nil {
				return Span{}, fmt.Errorf("journey: trace: %v", err)
			}
			s.Trace = TraceID(id)
		case "kind":
			kind, ok := spanKindOf(v)
			if !ok {
				return Span{}, fmt.Errorf("journey: unknown span kind %q", v)
			}
			s.Kind = kind
		case "node":
			s.Node = v
		case "start":
			s.Start, _ = strconv.ParseInt(v, 10, 64)
		case "end":
			s.End, _ = strconv.ParseInt(v, 10, 64)
		case "queue":
			s.QueueNs, _ = strconv.ParseInt(v, 10, 64)
		case "wire":
			s.WireNs, _ = strconv.ParseInt(v, 10, 64)
		case "cpu":
			s.CPUNs, _ = strconv.ParseInt(v, 10, 64)
		case "verdict":
			for vd := core.VerdictContinue; vd <= core.VerdictDrop; vd++ {
				if vd.String() == v {
					s.Verdict = vd
				}
			}
		case "reason":
			for r := 0; r < core.NumDropReasons; r++ {
				if core.DropReason(r).String() == v {
					s.Reason = core.DropReason(r)
				}
			}
		case "dropped":
			s.Dropped = v == "1"
		case "cause":
			s.Cause = v
		case "name":
			n, err := strconv.ParseUint(v, 16, 32)
			if err == nil {
				s.Name, s.HasName = uint32(n), true
			}
		case "proto":
			s.Proto = v
		}
	}
	return s, nil
}

// SpanSink receives spans as elements emit them. Collector (in-process
// stitching) and Emitter (ring for /journeys export) both implement it.
type SpanSink interface {
	AddSpan(Span)
}
