package main

import (
	"math"
	"sort"
)

// median returns the middle of vs (mean of the two middle values for an
// even count); NaN for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(vs, n=4) does (exclusive method), so the spread
// this program prints is the spread the acceptance check computes. With
// fewer than two values both are the single value.
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return vs[0], vs[0]
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// iqrFrac is the distance between the quartiles as a share of the
// median: the run-to-run spread every bound is judged against.
func iqrFrac(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	q1, q3 := quartiles(vs)
	m := median(vs)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// highPercentile returns the highest percentile that still has at least
// ten samples beyond it, and its value; ok is false when the sample is
// too small (fewer than twenty) to support one above the median.
func highPercentile(vs []float64) (pct, value float64, ok bool) {
	n := len(vs)
	if n < 20 {
		return 0, 0, false
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	idx := n - 11 // ten samples lie strictly beyond s[idx]
	return 100 * float64(idx+1) / float64(n), s[idx], true
}
