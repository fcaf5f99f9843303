package obs

import "math"

// NearestRank returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending slice: the element of 1-based rank ceil(p·n), clamped to
// [1, n]. It is the one percentile definition every latency summary uses;
// the zero value is returned for an empty slice.
func NearestRank[T any](sorted []T, p float64) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	// The epsilon keeps exact products such as 0.9·10 = 9 from rounding up
	// to the next rank through floating-point error.
	rank := int(math.Ceil(p*float64(len(sorted)) - 1e-9))
	return sorted[min(max(rank, 1), len(sorted))-1]
}
