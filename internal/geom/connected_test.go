package geom

import (
	"math/rand"
	"sort"
	"testing"
)

// refConnected is the map-DFS Tree.Connected that the run union-find
// kernel replaced, kept verbatim as the differential reference: pins on the
// tree, then a walk over the canonical segment graph. It panics on trees
// whose canonical form is empty; callers skip those.
func refConnected(t Tree, pins []Point) bool {
	if len(t.Segs) == 0 {
		for _, p := range pins[1:] {
			if p != pins[0] {
				return false
			}
		}
		return true
	}
	for _, p := range pins {
		if !t.OnTree(p) {
			return false
		}
	}
	nodes, adj := refAdjacency(t)
	seen := map[Point]bool{nodes[0]: true}
	stack := []Point{nodes[0]}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, q := range adj[p] {
			if !seen[q] {
				seen[q] = true
				stack = append(stack, q)
			}
		}
	}
	return len(seen) == len(nodes)
}

func refAdjacency(t Tree) ([]Point, map[Point][]Point) {
	adj := make(map[Point][]Point)
	for _, s := range refCanon(t.Segs) {
		adj[s.A] = append(adj[s.A], s.B)
		adj[s.B] = append(adj[s.B], s.A)
	}
	nodes := make([]Point, 0, len(adj))
	for p := range adj {
		nodes = append(nodes, p)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Less(nodes[j]) })
	return nodes, adj
}

// refComponents counts the components of the canonical segment graph by
// repeated DFS.
func refComponents(segs []Seg) int {
	nodes, adj := refAdjacency(Tree{Segs: segs})
	seen := map[Point]bool{}
	comps := 0
	for _, n := range nodes {
		if seen[n] {
			continue
		}
		comps++
		seen[n] = true
		stack := []Point{n}
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, q := range adj[p] {
				if !seen[q] {
					seen[q] = true
					stack = append(stack, q)
				}
			}
		}
	}
	return comps
}

// touchySegs draws a segment soup rich in the contacts the union-find must
// get right: random runs (crossings, collinear overlaps, zero-length
// segments) plus segments that start on an earlier segment (T-touches) or
// stop one cell short of it (near misses).
func touchySegs(rng *rand.Rand, n int) []Seg {
	segs := randSegs(rng, 1+rng.Intn(n))
	for len(segs) < n {
		base := segs[rng.Intn(len(segs))].Norm()
		// A point on base, then a perpendicular stub from it.
		p := base.A
		if l := base.Len(); l > 0 {
			k := rng.Intn(l + 1)
			if base.Horizontal() {
				p.X += k
			} else {
				p.Y += k
			}
		}
		d := rng.Intn(9) - 4
		gap := 0
		if rng.Intn(4) == 0 {
			gap = 1 // near miss
		}
		if base.Horizontal() {
			segs = append(segs, S(Pt(p.X, p.Y+gap), Pt(p.X, p.Y+gap+d)))
		} else {
			segs = append(segs, S(Pt(p.X+gap, p.Y), Pt(p.X+gap+d, p.Y)))
		}
	}
	return segs
}

func TestComponentsMatchMapDFS(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := GetArena()
	defer PutArena(a)
	wide := []Point{{0, 0}, {1 << 32, 0}, {0, -(1 << 40)}, {4_000_000_000, 4_000_000_000}}
	var seen [3]int // trials whose reference count is 0, 1, and 2 or more
	for trial := 0; trial < 4000; trial++ {
		segs := touchySegs(rng, 1+rng.Intn(12))
		off := wide[0]
		if trial%8 == 7 {
			off = wide[1+rng.Intn(len(wide)-1)]
		}
		for i := range segs {
			segs[i].A, segs[i].B = segs[i].A.Add(off), segs[i].B.Add(off)
		}
		want := refComponents(segs)
		seen[min(want, 2)]++
		if got := a.Components(segs); got != want {
			t.Fatalf("trial %d: Components=%d want %d (segs %v)", trial, got, want, segs)
		}
		if want == 0 {
			continue // the reference Connected panics on an empty canonical form
		}
		tr := Tree{Segs: segs}
		// Pins: segment endpoints and interior points, sometimes one off
		// the tree.
		var pins []Point
		for k := rng.Intn(4); k >= 0; k-- {
			s := segs[rng.Intn(len(segs))].Norm()
			p := s.A
			if l := s.Len(); l > 0 {
				if s.Horizontal() {
					p.X += rng.Intn(l + 1)
				} else {
					p.Y += rng.Intn(l + 1)
				}
			}
			if rng.Intn(10) == 0 {
				p.X++
			}
			pins = append(pins, p)
		}
		if got, want := tr.Connected(pins), refConnected(tr, pins); got != want {
			t.Fatalf("trial %d: Connected=%v want %v (segs %v pins %v)", trial, got, want, segs, pins)
		}
	}
	t.Logf("trials by component count (0, 1, 2+): %v", seen)
	for k, n := range seen {
		if n < 20 {
			t.Errorf("only %d trials with %d components (2 means 2 or more); the generator lost coverage", n, k)
		}
	}
}

func TestConnectedDegenerateTrees(t *testing.T) {
	zero := S(Pt(3, 3), Pt(3, 3))
	for _, tc := range []struct {
		name string
		tree Tree
		pins []Point
		want bool
	}{
		{"empty tree, no pins", Tree{}, nil, true},
		{"empty tree, one pin", Tree{}, []Point{Pt(1, 1)}, true},
		{"empty tree, coincident pins", Tree{}, []Point{Pt(1, 1), Pt(1, 1)}, true},
		{"empty tree, distinct pins", Tree{}, []Point{Pt(1, 1), Pt(2, 1)}, false},
		{"zero-length only, no pins", Tree{Segs: []Seg{zero}}, nil, true},
		{"zero-length only, pin on it", Tree{Segs: []Seg{zero, zero}}, []Point{Pt(3, 3), Pt(3, 3)}, true},
		{"zero-length only, pin off it", Tree{Segs: []Seg{zero}}, []Point{Pt(4, 3)}, false},
		{"zero-length only, distinct pins", Tree{Segs: []Seg{zero, S(Pt(5, 5), Pt(5, 5))}}, []Point{Pt(3, 3), Pt(5, 5)}, false},
		{"T-touch", NewTree(S(Pt(0, 0), Pt(6, 0)), S(Pt(3, 0), Pt(3, 4))), []Point{Pt(0, 0), Pt(3, 4)}, true},
		{"T near miss", NewTree(S(Pt(0, 0), Pt(6, 0)), S(Pt(3, 1), Pt(3, 4))), nil, false},
		{"collinear end to end", NewTree(S(Pt(0, 0), Pt(3, 0)), S(Pt(3, 0), Pt(7, 0))), []Point{Pt(0, 0), Pt(7, 0)}, true},
		{"collinear gap", NewTree(S(Pt(0, 0), Pt(3, 0)), S(Pt(4, 0), Pt(7, 0))), nil, false},
		{"parallel neighbours", NewTree(S(Pt(0, 0), Pt(3, 0)), S(Pt(0, 1), Pt(3, 1))), nil, false},
		{"corner touch", NewTree(S(Pt(0, 0), Pt(3, 0)), S(Pt(3, 0), Pt(3, 5))), nil, true},
		{"wide span", NewTree(S(Pt(0, 0), Pt(4_000_000_000, 0)), S(Pt(7, 0), Pt(7, 9))), []Point{Pt(7, 9), Pt(4_000_000_000, 0)}, true},
		{"wide disjoint", NewTree(S(Pt(0, 0), Pt(4_000_000_000, 0)), S(Pt(7, 1), Pt(7, 9))), nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.tree.Connected(tc.pins); got != tc.want {
				t.Errorf("Connected = %v, want %v", got, tc.want)
			}
		})
	}
}
