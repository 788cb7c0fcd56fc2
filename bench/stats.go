package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 to 100) of xs, interpolating
// linearly between the two closest ranks. It sorts xs in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	r := p / 100 * float64(len(xs)-1)
	lo, hi := int(math.Floor(r)), int(math.Ceil(r))
	return xs[lo] + (xs[hi]-xs[lo])*(r-float64(lo))
}

// quartiles returns the first quartile, the median and the third
// quartile of xs exactly as Python's statistics.quantiles(xs, n=4)
// computes them (its default "exclusive" method), so the spreads printed
// by -repeat match an external check of the same values. It sorts xs in
// place.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	sort.Float64s(xs)
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		q[i-1] = (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// mean returns the arithmetic mean of xs, 0 for none.
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

// ratio returns a/b, or 0 when b is 0, so no metric is ever NaN or
// infinite (encoding/json refuses both).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
