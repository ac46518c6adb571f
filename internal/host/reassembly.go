package host

// Reassembly is the in-order segment buffer behind SegFetcher: segments
// arrive in any order (the pipeline reorders freely, impaired links
// duplicate), and the object's bytes are the segments concatenated in
// segment order. First write wins — a duplicate or conflicting late copy
// never changes already-accepted bytes — and out-of-range segment indices
// are ignored rather than trusted. Payloads are copied in, so callers may
// reuse their receive buffers.
type Reassembly struct {
	segs  [][]byte
	have  []bool
	got   int
	bytes int
}

// NewReassembly returns a buffer for an object of total segments
// (total ≤ 0 is treated as one segment).
func NewReassembly(total int) *Reassembly {
	if total <= 0 {
		total = 1
	}
	return &Reassembly{segs: make([][]byte, total), have: make([]bool, total)}
}

// Add accepts segment seg's payload (copied), reporting whether it was
// stored: false for out-of-range indices and duplicates. An empty payload
// is a valid zero-length segment.
func (r *Reassembly) Add(seg int, payload []byte) bool {
	if seg < 0 || seg >= len(r.segs) || r.have[seg] {
		return false
	}
	r.segs[seg] = append([]byte(nil), payload...)
	r.have[seg] = true
	r.got++
	r.bytes += len(payload)
	return true
}

// Complete reports whether every segment has been accepted.
func (r *Reassembly) Complete() bool { return r.got == len(r.segs) }

// Bytes returns the object payload — all segments concatenated in segment
// order — or nil while any segment is missing.
func (r *Reassembly) Bytes() []byte {
	if !r.Complete() {
		return nil
	}
	out := make([]byte, 0, r.bytes)
	for _, s := range r.segs {
		out = append(out, s...)
	}
	return out
}
