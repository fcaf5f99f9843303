package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestPathLengthBounds: on a random spanning tree, the path length between
// two pins is at least their Manhattan distance and at most the total
// wirelength, and Distances agrees with the PathLength reference.
func TestPathLengthBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr, pts := randomSpanTree(r, 2+r.Intn(6))
		a, b := pts[0], pts[len(pts)-1]
		d := tr.Distances(a, []Point{b})[0]
		if d != tr.PathLength(a, b) || d < 0 {
			return false // pins always on their own spanning tree
		}
		return d >= Dist(a, b) && d <= tr.WireLength()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestPathLengthSymmetric: path length is direction-independent, and
// Distances agrees with the PathLength reference both ways.
func TestPathLengthSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr, pts := randomSpanTree(r, 2+r.Intn(6))
		a, b := pts[r.Intn(len(pts))], pts[r.Intn(len(pts))]
		ab, ba := tr.Distances(a, []Point{b})[0], tr.Distances(b, []Point{a})[0]
		return ab == ba && ab == tr.PathLength(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestCanonPreservesCoverage: every point covered by the original segments
// is covered by the canonical form and vice versa (sampled).
func TestCanonPreservesCoverage(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr, _ := randomSpanTree(r, 2+r.Intn(6))
		c := tr.Canon()
		for trial := 0; trial < 20; trial++ {
			p := Pt(r.Intn(22)-1, r.Intn(22)-1)
			if tr.OnTree(p) != c.OnTree(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestBendsNonNegativeAndStable: bends are non-negative and invariant
// under segment order shuffling.
func TestBendsNonNegativeAndStable(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr, _ := randomSpanTree(r, 2+r.Intn(6))
		b1 := tr.Bends()
		if b1 < 0 {
			return false
		}
		shuffled := Tree{Segs: append([]Seg(nil), tr.Segs...)}
		r.Shuffle(len(shuffled.Segs), func(i, j int) {
			shuffled.Segs[i], shuffled.Segs[j] = shuffled.Segs[j], shuffled.Segs[i]
		})
		return shuffled.Bends() == b1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
