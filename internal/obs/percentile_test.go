package obs

import "testing"

// TestNearestRank pins the ceil(p·n) rank on small and exact-product
// inputs, including the n=5 p25 case that round-half-up ranks get wrong.
func TestNearestRank(t *testing.T) {
	five := []int{10, 20, 30, 40, 50}
	hundred := make([]int, 100)
	for i := range hundred {
		hundred[i] = i + 1
	}
	cases := []struct {
		xs   []int
		p    float64
		want int
	}{
		{five, 0.25, 20},
		{five, 0.5, 30},
		{five, 0.9, 50},
		{five, 0.99, 50},
		{five, 1, 50},
		{five, 0.01, 10},
		{hundred, 0.5, 50},
		{hundred, 0.9, 90},
		{hundred, 0.99, 99},
		{hundred[:10], 0.9, 9},
		{hundred[:40], 0.75, 30},
		{[]int{7}, 0.5, 7},
		{nil, 0.5, 0},
	}
	for _, c := range cases {
		if got := NearestRank(c.xs, c.p); got != c.want {
			t.Errorf("NearestRank(n=%d, p=%v) = %d, want %d", len(c.xs), c.p, got, c.want)
		}
	}
}
