package journey

import (
	"io"
	"sync"
)

// DefaultEmitRing is the Emitter's span capacity when given n < 1.
const DefaultEmitRing = 4096

// Emitter is the live-deployment half of journey collection: it implements
// SpanSink by buffering spans in a bounded ring that Dump renders as
// '# span' text lines — the /journeys endpoint's body, which dipdump
// renders line by line (ParseSpan inverts the format). Nothing stitches
// spans from several live processes; stitching is the in-process
// Collector's, as in the simulations.
type Emitter struct {
	mu      sync.Mutex
	ring    []Span
	next    int
	added   uint64
	dropped uint64
}

// NewEmitter builds an emitter retaining the newest size spans.
func NewEmitter(size int) *Emitter {
	if size < 1 {
		size = DefaultEmitRing
	}
	return &Emitter{ring: make([]Span, 0, size)}
}

// AddSpan implements SpanSink.
func (e *Emitter) AddSpan(sp Span) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.added++
	sp.Seq = e.added
	if len(e.ring) < cap(e.ring) {
		e.ring = append(e.ring, sp)
		return
	}
	e.ring[e.next] = sp
	e.next = (e.next + 1) % cap(e.ring)
	e.dropped++
}

// Added returns how many spans the emitter has seen; Dropped how many were
// lost to ring wrap (spans a reader of /journeys will never see).
func (e *Emitter) Added() uint64   { e.mu.Lock(); defer e.mu.Unlock(); return e.added }
func (e *Emitter) Dropped() uint64 { e.mu.Lock(); defer e.mu.Unlock(); return e.dropped }

// Snapshot copies out the buffered spans, oldest first.
func (e *Emitter) Snapshot() []Span {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Span, 0, len(e.ring))
	if len(e.ring) == cap(e.ring) {
		out = append(out, e.ring[e.next:]...)
		out = append(out, e.ring[:e.next]...)
	} else {
		out = append(out, e.ring...)
	}
	return out
}

// Dump writes the buffered spans to w, one '# span' line each.
func (e *Emitter) Dump(w io.Writer) error {
	for _, sp := range e.Snapshot() {
		if _, err := io.WriteString(w, sp.String()); err != nil {
			return err
		}
	}
	return nil
}
