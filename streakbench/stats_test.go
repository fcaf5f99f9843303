package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the function must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
		tail int
	}{
		{n: 10, p: 0.99, want: 10, tail: 0},  // ceil(9.9) = rank 10
		{n: 40, p: 0.75, want: 30, tail: 10}, // ceil(30) = rank 30, not 31
		{n: 40, p: 0.5, want: 20, tail: 20},
		{n: 1, p: 0.5, want: 1, tail: 0},
	}
	for _, c := range cases {
		xs := seq(c.n)
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(n=%d, p=%v) = %v, want %v", c.n, c.p, got, c.want)
		}
		if got := beyond(c.n, c.p); got != c.tail {
			t.Errorf("beyond(n=%d, p=%v) = %d, want %d", c.n, c.p, got, c.tail)
		}
		if xs[0] != float64(c.n) {
			t.Errorf("percentile sorted its input in place")
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
}
