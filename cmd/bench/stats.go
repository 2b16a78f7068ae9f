package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie above a tail
// percentile before it is reported: a p90 resting on three slow
// samples is noise, not a measurement.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of xs and whether
// it may be reported. The median and lower percentiles are reported for
// any non-empty sample; a tail percentile (p > 50) is refused unless at
// least minBeyond samples rank above it.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = min(max(rank, 1), n)
	if p > 50 && n-rank < minBeyond {
		return s[rank-1], false
	}
	return s[rank-1], true
}

// median is the nearest-rank 50th percentile (NaN for no samples).
func median(xs []float64) float64 {
	v, ok := percentile(xs, 50)
	if !ok {
		return math.NaN()
	}
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
