package main

import (
	"math"
	"slices"
)

// percentile returns the p-th percentile of xs by the nearest-rank rule:
// the smallest sample with at least p% of the samples at or below it, i.e.
// sorted[ceil(p/100·n)-1]. It never interpolates, so a reported p90 is a
// latency some request actually had. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[nearestRank(len(s), p)-1]
}

// nearestRank is the 1-based rank percentile picks from n sorted samples.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return min(max(r, 1), n)
}

// samplesBeyond is how many of n samples lie above the p-th percentile's
// rank. The benchmark reports a percentile only when this is at least
// minTail, so a tail figure never rests on a handful of requests.
func samplesBeyond(n int, p float64) int { return n - nearestRank(n, p) }

// minTail is the number of samples a reported percentile must have beyond it.
const minTail = 10

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so the steadiness report matches the acceptance arithmetic.
// It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	m := n + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}
