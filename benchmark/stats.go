package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 < q <= 1) of xs by nearest rank:
// the smallest sample with at least q of the samples at or below it. It
// sorts xs in place. An empty sample reads 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(xs) {
		rank = len(xs) - 1
	}
	return xs[rank]
}

// median is the middle sample (mean of the two middle ones for an even
// count), as Python's statistics.median gives it. It sorts xs in place.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), the
// rule the benchmark driver uses for run-to-run spread. It needs at
// least two samples and sorts xs in place.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	m := len(xs)
	if m < 2 {
		if m == 1 {
			return xs[0], xs[0], xs[0]
		}
		return 0, 0, 0
	}
	sort.Float64s(xs)
	cut := func(i int) float64 {
		const n = 4
		j := i * (m + 1) / n
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*n
		return (xs[j-1]*float64(n-delta) + xs[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median — the
// driver's run-to-run noise figure. A zero median reads 0.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	med := median(xs)
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b with 0/0 = 0, for shares whose denominator can be empty
// on workloads the metric does not apply to.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
