package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middle values for an
// even count), 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// usablePercentile lowers the wanted percentile p until at least minBeyond of
// the n samples lie beyond it, never below the median: the highest percentile
// the sample supports.
func usablePercentile(n int, p float64) float64 {
	if n <= 0 {
		return 0.5
	}
	if top := float64(n-minBeyond) / float64(n); p > top {
		p = top
	}
	return math.Max(p, 0.5)
}

// percentile returns the nearest-rank percentile of an ascending slice at p
// lowered by usablePercentile, and the p it used.
func percentile(asc []float64, p float64) (value, used float64) {
	if len(asc) == 0 {
		return 0, 0.5
	}
	used = usablePercentile(len(asc), p)
	i := int(math.Ceil(used*float64(len(asc)))) - 1
	if i < 0 {
		i = 0
	}
	return asc[i], used
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), so the spreads
// printed here are the ones the acceptance check computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the inter-quartile distance of xs as a share of their median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// pairedRatio is the median over i of num[i]/den[i]: each pair was measured
// back to back, so drift that moves both cancels.
func pairedRatio(num, den []float64) float64 {
	n := len(num)
	if len(den) < n {
		n = len(den)
	}
	r := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if den[i] != 0 {
			r = append(r, num[i]/den[i])
		}
	}
	return median(r)
}

// orderBalanced reduces per-round values whose rounds alternate between two
// block orders: the median of each order's rounds, averaged.
func orderBalanced(perRound []float64) float64 {
	var byOrder [2][]float64
	for i, v := range perRound {
		byOrder[i%2] = append(byOrder[i%2], v)
	}
	if len(byOrder[1]) == 0 {
		return median(byOrder[0])
	}
	return (median(byOrder[0]) + median(byOrder[1])) / 2
}

// ft2First reports whether the protected block runs first in a round. The
// order alternates so that neither mode always inherits the other's caches
// or a just-collected heap.
func ft2First(round int) bool { return round%2 == 1 }

// steady is the value a repeated timing settles at when nothing interferes:
// the lower quartile of xs. Interference on a shared machine only ever adds
// time, in bursts, so the fast quarter of the samples repeats from run to run
// where the median and the mean follow the bursts.
func steady(xs []float64) float64 {
	q1, _ := quartiles(xs)
	return q1
}
