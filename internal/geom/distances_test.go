package geom

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// PathLength below is the map-based Dijkstra that Tree.Distances replaced,
// kept verbatim as the differential reference: Distances(from, to)[i] must
// equal PathLength(from, to[i]) for every i, -1 and 0 cases included.

// PathLength returns the length of the unique path between two points on
// the tree, or -1 when either point is off-tree or the tree is disconnected
// between them. Used for source-to-sink distance accounting.
func (t Tree) PathLength(from, to Point) int {
	if from == to {
		if t.OnTree(from) || len(t.Segs) == 0 {
			return 0
		}
		return -1
	}
	if !t.OnTree(from) || !t.OnTree(to) {
		return -1
	}
	// Split segments at from/to by adding zero-extent markers is not enough;
	// instead cut the canonical segs that contain the endpoints.
	c := t.Canon()
	var segs []Seg
	for _, s := range c.Segs {
		pts := []int{}
		horiz := s.Horizontal()
		coord := func(p Point) int {
			if horiz {
				return p.X
			}
			return p.Y
		}
		n := s.Norm()
		for _, p := range []Point{from, to} {
			if s.Contains(p) && p != n.A && p != n.B {
				pts = append(pts, coord(p))
			}
		}
		if len(pts) == 0 {
			segs = append(segs, n)
			continue
		}
		pts = append(pts, coord(n.A), coord(n.B))
		sort.Ints(pts)
		for i := 0; i+1 < len(pts); i++ {
			if pts[i] == pts[i+1] {
				continue
			}
			if horiz {
				segs = append(segs, Seg{A: Point{pts[i], n.A.Y}, B: Point{pts[i+1], n.A.Y}})
			} else {
				segs = append(segs, Seg{A: Point{n.A.X, pts[i]}, B: Point{n.A.X, pts[i+1]}})
			}
		}
	}
	adj := make(map[Point][]Point)
	for _, s := range segs {
		adj[s.A] = append(adj[s.A], s.B)
		adj[s.B] = append(adj[s.B], s.A)
	}
	// Dijkstra with linear extraction — segment graphs are tiny, and the
	// shortest path is well-defined even when overlapping segments form
	// cycles (a proper tree has a unique path, which is then also the
	// shortest).
	dist := map[Point]int{from: 0}
	done := map[Point]bool{}
	for {
		cur, curD := Point{}, -1
		for p, d := range dist {
			if !done[p] && (curD == -1 || d < curD) {
				cur, curD = p, d
			}
		}
		if curD == -1 {
			return -1
		}
		if cur == to {
			return curD
		}
		done[cur] = true
		for _, q := range adj[cur] {
			nd := curD + Dist(cur, q)
			if old, ok := dist[q]; !ok || nd < old {
				dist[q] = nd
			}
		}
	}
}

// checkDistances compares Distances(from, to) with PathLength element by
// element.
func checkDistances(t *testing.T, tr Tree, from Point, to []Point) {
	t.Helper()
	got := tr.Distances(from, to)
	if len(got) != len(to) {
		t.Fatalf("Distances returned %d values for %d points", len(got), len(to))
	}
	for i, p := range to {
		if want := tr.PathLength(from, p); got[i] != want {
			t.Fatalf("tree %v: Distances(%v)[%d] to %v = %d, PathLength = %d", tr.Segs, from, i, p, got[i], want)
		}
	}
}

// distanceQueries returns query points for segs: every endpoint
// (zero-length segments included), a random point inside each segment, and
// a few random points that are mostly off the tree, with repeats.
func distanceQueries(rng *rand.Rand, segs []Seg) []Point {
	var pts []Point
	for _, s := range segs {
		pts = append(pts, s.A, s.B)
		n := s.Norm()
		if l := n.Len(); l > 0 {
			k := rng.Intn(l + 1)
			if n.Horizontal() {
				pts = append(pts, Pt(n.A.X+k, n.A.Y))
			} else {
				pts = append(pts, Pt(n.A.X, n.A.Y+k))
			}
		}
	}
	for i := 0; i < 3; i++ {
		pts = append(pts, Pt(rng.Intn(25)-12, rng.Intn(25)-12))
	}
	if len(pts) > 0 {
		pts = append(pts, pts[rng.Intn(len(pts))])
	}
	return pts
}

// cycleSegs adds loops to segs: a rectangle sharing a corner with an
// existing segment, a duplicate of a segment shifted along itself
// (collinear overlap), and a zero-length segment at some endpoint.
func cycleSegs(rng *rand.Rand, segs []Seg) []Seg {
	if len(segs) == 0 {
		return segs
	}
	base := segs[rng.Intn(len(segs))].Norm()
	p := base.A
	w, h := 1+rng.Intn(5), 1+rng.Intn(5)
	if rng.Intn(2) == 0 {
		w = -w
	}
	segs = append(segs,
		S(p, Pt(p.X+w, p.Y)), S(Pt(p.X+w, p.Y), Pt(p.X+w, p.Y+h)),
		S(Pt(p.X+w, p.Y+h), Pt(p.X, p.Y+h)), S(Pt(p.X, p.Y+h), p))
	o := segs[rng.Intn(len(segs))].Norm()
	if o.Horizontal() {
		segs = append(segs, Seg{A: Pt(o.A.X+1, o.A.Y), B: Pt(o.B.X+2, o.B.Y)})
	} else {
		segs = append(segs, Seg{A: Pt(o.A.X, o.A.Y+1), B: Pt(o.B.X, o.B.Y+2)})
	}
	z := segs[rng.Intn(len(segs))].B
	return append(segs, Seg{A: z, B: z})
}

// TestDistancesMatchPathLength pins Distances against the reference on
// random spanning trees, segment soups (overlaps, duplicates, zero-length
// segments, crossings), T-touching stubs and rectangle cycles.
func TestDistancesMatchPathLength(t *testing.T) {
	trials := 20000
	if testing.Short() {
		trials = 3000
	}
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < trials; trial++ {
		var segs []Seg
		switch trial % 4 {
		case 0:
			tr, _ := randomSpanTree(rng, 2+rng.Intn(8))
			segs = tr.Segs
		case 1:
			segs = randSegs(rng, 1+rng.Intn(10))
		case 2:
			segs = touchySegs(rng, 1+rng.Intn(10))
		default:
			tr, _ := randomSpanTree(rng, 2+rng.Intn(6))
			segs = cycleSegs(rng, tr.Segs)
		}
		tr := Tree{Segs: segs}
		q := distanceQueries(rng, segs)
		from := Pt(rng.Intn(25)-12, rng.Intn(25)-12)
		if len(q) > 0 && rng.Intn(5) != 0 {
			from = q[rng.Intn(len(q))]
		}
		checkDistances(t, tr, from, q)
	}
}

// TestDistancesEdgeCases pins the -1 and 0 cases one by one.
func TestDistancesEdgeCases(t *testing.T) {
	rect := Tree{Segs: []Seg{
		S(Pt(0, 0), Pt(3, 0)), S(Pt(3, 0), Pt(3, 3)),
		S(Pt(3, 3), Pt(0, 3)), S(Pt(0, 3), Pt(0, 0)),
	}}
	zeroOnly := Tree{Segs: []Seg{{A: Pt(2, 2), B: Pt(2, 2)}}}
	zeroTail := Tree{Segs: []Seg{S(Pt(0, 0), Pt(4, 0)), {A: Pt(6, 6), B: Pt(6, 6)}}}
	overlap := Tree{Segs: []Seg{S(Pt(0, 0), Pt(5, 0)), S(Pt(2, 0), Pt(8, 0)), S(Pt(8, 0), Pt(2, 0))}}
	tee := Tree{Segs: []Seg{S(Pt(0, 0), Pt(6, 0)), S(Pt(3, 0), Pt(3, 4))}}
	cases := []struct {
		name string
		tr   Tree
		from Point
		to   []Point
		want []int
	}{
		{"empty tree", Tree{}, Pt(1, 1), []Point{Pt(1, 1), Pt(2, 1)}, []int{0, -1}},
		{"empty query", tee, Pt(0, 0), nil, []int{}},
		{"zero-length only", zeroOnly, Pt(2, 2), []Point{Pt(2, 2), Pt(3, 2)}, []int{0, -1}},
		{"zero-length only, from off it", zeroOnly, Pt(1, 1), []Point{Pt(1, 1), Pt(2, 2)}, []int{-1, -1}},
		{"on tree only through zero-length", zeroTail, Pt(0, 0), []Point{Pt(6, 6), Pt(4, 0)}, []int{-1, 4}},
		{"from only through zero-length", zeroTail, Pt(6, 6), []Point{Pt(6, 6), Pt(0, 0)}, []int{0, -1}},
		{"from off tree", tee, Pt(9, 9), []Point{Pt(9, 9), Pt(0, 0)}, []int{-1, -1}},
		{"to off tree", tee, Pt(0, 0), []Point{Pt(1, 1), Pt(6, 0)}, []int{-1, 6}},
		{"interior from and to", tee, Pt(1, 0), []Point{Pt(3, 2), Pt(5, 0), Pt(1, 0)}, []int{4, 4, 0}},
		{"rectangle cycle", rect, Pt(1, 0), []Point{Pt(0, 2), Pt(3, 2), Pt(2, 3), Pt(1, 0)}, []int{3, 4, 6, 0}},
		{"collinear overlap", overlap, Pt(8, 0), []Point{Pt(0, 0), Pt(4, 0), Pt(8, 0)}, []int{8, 4, 0}},
		{"duplicate queries", tee, Pt(3, 4), []Point{Pt(0, 0), Pt(0, 0), Pt(3, 0)}, []int{7, 7, 4}},
	}
	for _, c := range cases {
		got := c.tr.Distances(c.from, c.to)
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: Distances = %v, want %v", c.name, got, c.want)
		}
		checkDistances(t, c.tr, c.from, c.to)
	}
}

// TestDistancesWideCoordinates runs the reference comparison on
// coordinates beyond the arena's packed range (the wide Canon fallback).
func TestDistancesWideCoordinates(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	off := Pt(1<<32, -(1 << 33))
	for trial := 0; trial < 300; trial++ {
		segs := touchySegs(rng, 1+rng.Intn(8))
		for i := range segs {
			segs[i] = segs[i].Translate(off)
		}
		q := distanceQueries(rng, segs)
		checkDistances(t, Tree{Segs: segs}, q[rng.Intn(len(q))], q)
	}
}

// TestDistancesArenaSteadyState pins that a held arena's distance kernel
// allocates nothing once its scratch has grown.
func TestDistancesArenaSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tr, _ := randomSpanTree(rng, 8)
	segs := cycleSegs(rng, tr.Segs)
	q := distanceQueries(rng, segs)
	out := make([]int, len(q))
	var a Arena
	a.distances(out, segs, q[0], q)
	if allocs := testing.AllocsPerRun(50, func() { a.distances(out, segs, q[0], q) }); allocs != 0 {
		t.Errorf("steady-state distance kernel allocates %.1f times per call, want 0", allocs)
	}
}

// FuzzDistances decodes a segment set from the input (4 bytes a segment:
// x, y, signed length, direction), queries every endpoint and interior
// point plus one off-grid point, and requires Distances to equal the
// PathLength reference element by element.
func FuzzDistances(f *testing.F) {
	seg := func(x, y, d int, vertical bool) []byte {
		dir := byte(0)
		if vertical {
			dir = 1
		}
		return []byte{byte(x + 2), byte(y + 2), byte(d + 4), dir}
	}
	cat := func(parts ...[]byte) []byte { return slices.Concat(parts...) }
	f.Add([]byte{}, uint8(0))
	f.Add(seg(3, 3, 0, false), uint8(0))                                                                   // zero-length only
	f.Add(cat(seg(0, 0, 4, false), seg(6, 6, 0, true)), uint8(1))                                          // zero-length tail
	f.Add(cat(seg(0, 0, 4, false), seg(2, 0, 4, false), seg(6, 0, -3, false)), uint8(2))                   // overlaps
	f.Add(cat(seg(0, 0, 4, false), seg(2, 0, 3, true)), uint8(5))                                          // T-touch
	f.Add(cat(seg(0, 0, 3, false), seg(3, 0, 3, true), seg(0, 3, 3, false), seg(0, 0, 3, true)), uint8(3)) // rectangle
	f.Add(cat(seg(0, 0, 3, false), seg(5, 0, 3, false)), uint8(0))                                         // disconnected
	f.Fuzz(func(t *testing.T, data []byte, pick uint8) {
		var segs []Seg
		for i := 0; i+3 < len(data) && len(segs) < 24; i += 4 {
			x, y, d := int(data[i]%16)-2, int(data[i+1]%16)-2, int(data[i+2]%9)-4
			if data[i+3]&1 == 0 {
				segs = append(segs, Seg{A: Pt(x, y), B: Pt(x+d, y)})
			} else {
				segs = append(segs, Seg{A: Pt(x, y), B: Pt(x, y+d)})
			}
		}
		q := []Point{Pt(-7, 20)}
		for _, s := range segs {
			n := s.Norm()
			q = append(q, s.A, s.B, Pt((n.A.X+n.B.X)/2, (n.A.Y+n.B.Y)/2))
		}
		checkDistances(t, Tree{Segs: segs}, q[int(pick)%len(q)], q)
	})
}
