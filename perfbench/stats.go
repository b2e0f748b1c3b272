package main

import (
	"math"
	"sort"
)

// tailMinBeyond is how many samples must lie above a reported tail
// percentile: a percentile read from fewer is one or two outliers, not a
// tail.
const tailMinBeyond = 10

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (the mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile, capped at p99, that has at least
// tailMinBeyond samples above it, together with that percentile (0–100).
// The sample at 1-based rank r has n-r samples beyond it, so the rank is
// min(ceil(0.99·n), n-tailMinBeyond). With too few samples for any rank it
// falls back to the median and reports percentile 50.
func tail(xs []float64) (value, percentile float64) {
	n := len(xs)
	r := int(math.Ceil(0.99 * float64(n)))
	if r > n-tailMinBeyond {
		r = n - tailMinBeyond
	}
	if r < (n+1)/2 || r < 1 {
		return median(xs), 50
	}
	s := sortedCopy(xs)
	return s[r-1], 100 * float64(r) / float64(n)
}

// geomean returns the geometric mean of positive samples; 0 for none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// sum adds the samples.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
