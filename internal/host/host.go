// Package host implements the DIP host stack: constructing packets from
// protocol profiles, negotiating OPT sessions, executing host-tagged FNs
// (F_ver) on received packets, and reacting to FN-unsupported notifications
// from heterogeneous domains (§2.3–2.4).
package host

import (
	"fmt"
	"sync"

	"dip/internal/core"
	"dip/internal/ops"
	"dip/internal/opt"
	"dip/internal/profiles"
)

// SessionMap is a thread-safe ops.SessionStore hosts keep their negotiated
// OPT sessions in.
type SessionMap struct {
	mu sync.RWMutex
	m  map[[16]byte]*opt.Session
}

// NewSessionMap returns an empty store.
func NewSessionMap() *SessionMap {
	return &SessionMap{m: make(map[[16]byte]*opt.Session)}
}

// Add records a negotiated session.
func (s *SessionMap) Add(sess *opt.Session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[sess.ID] = sess
}

// LookupSession implements ops.SessionStore.
func (s *SessionMap) LookupSession(id []byte) (*opt.Session, bool) {
	var k [16]byte
	copy(k[:], id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	sess, ok := s.m[k]
	return sess, ok
}

// RxKind classifies what a host received.
type RxKind uint8

// Receive outcomes.
const (
	// RxDelivered: the packet passed all host operations; Payload is valid.
	RxDelivered RxKind = iota
	// RxRejected: a host operation dropped the packet (verification failed).
	RxRejected
	// RxFNUnsupported: a router on the path reported it cannot run Key.
	RxFNUnsupported
	// RxMalformed: the packet failed to parse.
	RxMalformed
)

// String names the outcome.
func (k RxKind) String() string {
	switch k {
	case RxDelivered:
		return "delivered"
	case RxRejected:
		return "rejected"
	case RxFNUnsupported:
		return "fn-unsupported"
	case RxMalformed:
		return "malformed"
	}
	return "rx(?)"
}

// Rx is the outcome of Stack.HandlePacket.
type Rx struct {
	Kind    RxKind
	Payload []byte          // valid for RxDelivered
	Reason  core.DropReason // valid for RxRejected
	Key     core.Key        // valid for RxFNUnsupported
	View    core.View       // valid except for RxMalformed
}

// Stack is a DIP host: it runs host-tagged FNs over received packets.
type Stack struct {
	Sessions *SessionMap
	engine   *core.Engine
}

// NewStack builds a host stack with a fresh session store.
func NewStack() *Stack {
	s := &Stack{Sessions: NewSessionMap()}
	reg := ops.NewHostRegistry(ops.Config{Sessions: s.Sessions})
	s.engine = core.NewHostEngine(reg, core.Limits{})
	return s
}

// SetRecorder installs rec as the host engine's telemetry sink (per-op
// latency and drop accounting for the host-tagged FNs). A sampling trace
// recorder works here exactly as on a router.
func (s *Stack) SetRecorder(rec core.Recorder) { s.engine.SetRecorder(rec) }

// HandlePacket processes one received packet through the host side of
// Algorithm 1 (only host-tagged FNs execute).
func (s *Stack) HandlePacket(pkt []byte) Rx {
	ctx := ctxPool.Get().(*core.ExecContext)
	defer releaseCtx(ctx)
	if ctx.Load(pkt, 0) != nil {
		return Rx{Kind: RxMalformed}
	}
	v := ctx.View
	if key, ok := profiles.ParseFNUnsupported(v); ok {
		return Rx{Kind: RxFNUnsupported, Key: key, View: v}
	}
	s.engine.Process(ctx)
	if ctx.Verdict == core.VerdictDrop {
		return Rx{Kind: RxRejected, Reason: ctx.Reason, View: v}
	}
	return Rx{Kind: RxDelivered, Payload: v.Payload(), View: v}
}

// ctxPool recycles execution contexts: they carry the engine's observation
// record, too large to allocate per packet, and their packet ordinal, which
// a sampling recorder's 1-in-N decision counts on. Every packet the host
// side receives is parsed into one of them with Load.
var ctxPool = sync.Pool{New: func() any { return new(core.ExecContext) }}

func releaseCtx(ctx *core.ExecContext) {
	ctx.View = core.View{} // drop the packet buffer reference
	ctxPool.Put(ctx)
}

// BuildPacket serializes a profile header plus payload into a wire packet.
func BuildPacket(h *core.Header, payload []byte) ([]byte, error) {
	buf, err := h.AppendTo(make([]byte, 0, h.WireSize()+len(payload)))
	if err != nil {
		return nil, fmt.Errorf("host: %w", err)
	}
	return append(buf, payload...), nil
}
