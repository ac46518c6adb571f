package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// mean returns the arithmetic mean of xs, or 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// cv is the coefficient of variation (sample standard deviation ÷ mean).
func cv(xs []float64) float64 {
	m := mean(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	ss := 0.0
	for _, x := range xs {
		ss += (x - m) * (x - m)
	}
	return math.Sqrt(ss/float64(len(xs)-1)) / m
}

// samples is a fixed-capacity latency log in nanoseconds. It is allocated
// and touched before timing starts so the timed loops never allocate and
// the pages are already resident.
type samples struct {
	ns []uint32
}

func newSamples(capacity int) *samples {
	s := &samples{ns: make([]uint32, capacity)}
	for i := range s.ns {
		s.ns[i] = 1 // touch every page
	}
	s.ns = s.ns[:0]
	return s
}

// add records one sample; samples beyond the capacity are dropped (the
// capacity is sized for the whole phase at its nominal rate plus slack).
func (s *samples) add(ns int64) {
	if len(s.ns) == cap(s.ns) {
		return
	}
	if ns < 0 {
		ns = 0
	}
	if ns > math.MaxUint32 {
		ns = math.MaxUint32
	}
	s.ns = append(s.ns, uint32(ns))
}

func (s *samples) reset() { s.ns = s.ns[:0] }

// quantilesUs returns the requested quantiles, in µs, of the samples logged
// between positions from and to. It sorts that stretch of the log in place,
// so stretches must be evaluated before the whole.
func (s *samples) quantilesUs(from, to int, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	part := s.ns[from:to]
	if len(part) == 0 {
		return out
	}
	sort.Slice(part, func(i, j int) bool { return part[i] < part[j] })
	for i, q := range qs {
		// Interpolate between neighbours so the result keeps sub-sample
		// resolution instead of snapping to one clock reading.
		pos := q * float64(len(part)-1)
		lo := int(pos)
		hi := min(lo+1, len(part)-1)
		frac := pos - float64(lo)
		out[i] = (float64(part[lo])*(1-frac) + float64(part[hi])*frac) / 1e3
	}
	return out
}

// all is quantilesUs over the whole log.
func (s *samples) all(qs ...float64) []float64 { return s.quantilesUs(0, len(s.ns), qs...) }
