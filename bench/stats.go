package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 <= p <= 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; an empty
// slice yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// segmentStat summarises one timing metric over a run's segments: the
// median segment is the reported value, the quartiles are printed beside
// it so a reader can see how steady the run was.
type segmentStat struct {
	q1, med, q3 float64
	n           int
}

func summarize(xs []float64) segmentStat {
	return segmentStat{
		q1:  percentile(xs, 0.25),
		med: percentile(xs, 0.5),
		q3:  percentile(xs, 0.75),
		n:   len(xs),
	}
}

// spread is (max-min)/median, the run-to-run figure -repeat compares to a
// metric's bound. A zero median yields 0 when every value is zero and
// +Inf otherwise.
func spread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	m := median(xs)
	if m == 0 {
		if hi == lo {
			return 0
		}
		return math.Inf(1)
	}
	return (hi - lo) / math.Abs(m)
}
