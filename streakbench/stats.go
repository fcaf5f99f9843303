package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs: the
// smallest sample such that at least p·n samples are at or below it, i.e.
// sorted[ceil(p·n)-1]. It is the benchmark's only rank formula; every
// percentile it prints goes through here and is printed with its n.
// xs is not modified. An empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The epsilon keeps exact products such as 0.75·40 = 30 from rounding
	// up to the next rank through floating-point error.
	rank := int(math.Ceil(p*float64(len(s)) - 1e-9))
	rank = min(max(rank, 1), len(s))
	return s[rank-1]
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// beyond counts the samples strictly above the nearest-rank p-quantile's
// rank: the tail a percentile rests on.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	rank := min(max(int(math.Ceil(p*float64(n)-1e-9)), 1), n)
	return n - rank
}
