package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank percentile of an ascending slice: the
// smallest sample with at least p percent of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median averages the two middle samples of an even count, like
// statistics.median, which is what the driver applies across runs.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tailLadder lists the percentiles a tail may be reported at, each with the
// share of the samples that lies beyond it.
var tailLadder = []struct{ p, beyond float64 }{
	{99.99, 1e-4}, {99.9, 1e-3}, {99, 0.01}, {95, 0.05}, {90, 0.1}, {75, 0.25}, {50, 0.5},
}

// tailPercentile picks the highest percentile that still has at least ten
// samples beyond it; a tail named from fewer samples is one outlier's value.
func tailPercentile(n int) float64 {
	for _, t := range tailLadder {
		if float64(n)*t.beyond >= 10-1e-9 {
			return t.p
		}
	}
	return 50
}

// quartileSpread is (Q3-Q1)/median with the exclusive-method quartiles of
// Python's statistics.quantiles(values, n=4): the steadiness figure the
// driver computes over ten runs.
func quartileSpread(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / median(s)
}

// trimmedMean is the mean of the middle 90% of xs, 0 for none.
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	s = s[len(s)/20 : len(s)-len(s)/20]
	return sum(s) / float64(len(s))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
