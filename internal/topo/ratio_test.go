package topo

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/signal"
)

// refRatio is the direct, map-based statement of Eq. 2 that ShapeRatio
// restates on precomputed shapes: features and RC sets are rebuilt from the
// trees on every call. It is the oracle the shape split is checked against.
func refRatio(t1 geom.Tree, bit1 *signal.Bit, t2 geom.Tree, bit2 *signal.Bit) float64 {
	rc1 := RCs(t1, bit1.PinLocs())
	rc2 := RCs(t2, bit2.PinLocs())
	if len(rc1) == 0 || len(rc2) == 0 {
		if len(rc1) == 0 && len(rc2) == 0 {
			return 1
		}
		return 0
	}
	f1, f2 := refFeatures(rc1, bit1), refFeatures(rc2, bit2)
	matched := max(refMatched(rc1, f1, rc2, f2), refMatched(rc2, f2, rc1, f1))
	minRC := min(len(rc1), len(rc2))
	return float64(min(matched, minRC)) / float64(minRC)
}

type refFeature struct {
	p  geom.Point
	sv signal.SV
}

func refFeatures(rcs []geom.Seg, bit *signal.Bit) []refFeature {
	w := signal.DriverWeightFor(bit)
	pinIdx := map[geom.Point]int{}
	for i, p := range bit.Pins {
		if _, seen := pinIdx[p.Loc]; !seen {
			pinIdx[p.Loc] = i
		}
	}
	seen := map[geom.Point]bool{}
	var out []refFeature
	add := func(p geom.Point) {
		if seen[p] {
			return
		}
		seen[p] = true
		var sv signal.SV
		if i, isPin := pinIdx[p]; isPin {
			sv = bit.WeightedPinSV(i, w)
		} else {
			sv = signal.WeightedPointSV(p, bit, w)
		}
		out = append(out, refFeature{p, sv})
	}
	for _, s := range rcs {
		add(s.A)
		add(s.B)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].p.Less(out[j].p) })
	return out
}

func refMatched(rc1 []geom.Seg, f1 []refFeature, rc2 []geom.Seg, f2 []refFeature) int {
	mapped := map[geom.Point]geom.Point{}
	for _, f := range f1 {
		best := 0
		bestD := f.sv.L1(f2[0].sv)
		for i := 1; i < len(f2); i++ {
			if d := f.sv.L1(f2[i].sv); d < bestD {
				best, bestD = i, d
			}
		}
		mapped[f.p] = f2[best].p
	}
	rcSet := map[[2]geom.Point]bool{}
	for _, s := range rc2 {
		n := s.Norm()
		rcSet[[2]geom.Point{n.A, n.B}] = true
	}
	count := 0
	for _, s := range rc1 {
		a, b := mapped[s.A], mapped[s.B]
		if a == b {
			continue
		}
		if b.Less(a) {
			a, b = b, a
		}
		if rcSet[[2]geom.Point{a, b}] {
			count++
		}
	}
	return count
}

// randomRatioInput returns a random bit (2-6 pins, possibly coincident,
// random driver) and a random rectilinear tree over its pins: every pin
// joins a random earlier tree point by an L in either orientation, and
// some trees carry a dangling stub, so features include pins, corners,
// junctions and stub ends.
func randomRatioInput(r *rand.Rand) (geom.Tree, signal.Bit) {
	n := 2 + r.Intn(5)
	b := signal.Bit{Driver: r.Intn(n)}
	for i := 0; i < n; i++ {
		b.Pins = append(b.Pins, signal.Pin{Loc: geom.Pt(r.Intn(10), r.Intn(10))})
	}
	locs := b.PinLocs()
	var tr geom.Tree
	pts := []geom.Point{locs[0]}
	join := func(p geom.Point) {
		q := pts[r.Intn(len(pts))]
		if r.Intn(2) == 0 {
			tr.Append(geom.LShape(q, p)...)
			pts = append(pts, geom.Pt(p.X, q.Y))
		} else {
			tr.Append(geom.LShape(p, q)...)
			pts = append(pts, geom.Pt(q.X, p.Y))
		}
		pts = append(pts, p)
	}
	for _, p := range locs[1:] {
		join(p)
	}
	if r.Intn(3) == 0 {
		join(geom.Pt(r.Intn(10), r.Intn(10)))
	}
	return tr, b
}

// TestShapeRatioMatchesReference pins the shape split bit for bit: on
// random trees Ratio, ShapeRatio over shapes shared across many partners,
// and the map-based reference agree exactly, in both argument orders.
func TestShapeRatioMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	const n = 60
	trees := make([]geom.Tree, n)
	bits := make([]signal.Bit, n)
	shapes := make([]*Shape, n)
	for i := range trees {
		trees[i], bits[i] = randomRatioInput(r)
		shapes[i] = NewShape(trees[i], &bits[i])
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := refRatio(trees[i], &bits[i], trees[j], &bits[j])
			got := Ratio(trees[i], &bits[i], trees[j], &bits[j])
			shared := ShapeRatio(shapes[i], shapes[j])
			rev := ShapeRatio(shapes[j], shapes[i])
			for _, v := range []float64{got, shared, rev} {
				if math.Float64bits(v) != math.Float64bits(want) {
					t.Fatalf("pair (%d,%d): Ratio %v, shared %v, reversed %v; reference %v",
						i, j, got, shared, rev, want)
				}
			}
		}
	}
}

// TestRatioTableMatchesRatio pins the shape-per-backbone RatioTable against
// per-cell Ratio calls, including nil backbones.
func TestRatioTableMatchesRatio(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	t1, bit1 := randomRatioInput(r)
	_, bit2 := randomRatioInput(r)
	var b1, b2 []*geom.Tree
	for i := 0; i < 4; i++ {
		a, _ := randomRatioInput(r)
		b1 = append(b1, &a)
		c, _ := randomRatioInput(r)
		b2 = append(b2, &c)
	}
	b1 = append(b1, nil, &t1)
	b2 = append(b2, nil)
	tab := RatioTable(b1, &bit1, b2, &bit2)
	for i, x := range b1 {
		for j, y := range b2 {
			got := tab[i*len(b2)+j]
			if x == nil || y == nil {
				if !math.IsNaN(got) {
					t.Errorf("[%d,%d] = %v, want NaN for a nil backbone", i, j, got)
				}
				continue
			}
			if want := Ratio(*x, &bit1, *y, &bit2); got != want {
				t.Errorf("[%d,%d] = %v, want %v", i, j, got, want)
			}
		}
	}
}
