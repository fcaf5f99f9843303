package geom

import (
	"sort"
	"strings"
)

// Tree is a rectilinear routing tree: a set of axis-aligned segments (RCs).
// Trees are value types; Canon returns a canonical form with merged
// collinear runs and splits at every junction.
type Tree struct {
	Segs []Seg
}

// NewTree builds a tree from the given segments, dropping zero-length ones.
func NewTree(segs ...Seg) Tree {
	t := Tree{Segs: make([]Seg, 0, len(segs))}
	for _, s := range segs {
		if s.Len() > 0 {
			t.Segs = append(t.Segs, s.Norm())
		}
	}
	return t
}

// Append adds segments to the tree, dropping zero-length ones.
func (t *Tree) Append(segs ...Seg) {
	for _, s := range segs {
		if s.Len() > 0 {
			t.Segs = append(t.Segs, s.Norm())
		}
	}
}

// Translate returns the tree shifted by d.
func (t Tree) Translate(d Point) Tree {
	out := Tree{Segs: make([]Seg, len(t.Segs))}
	for i, s := range t.Segs {
		out.Segs[i] = s.Translate(d)
	}
	return out
}

// WireLength returns the total length of the union of the tree's segments.
// Overlapping collinear segments are counted once.
func (t Tree) WireLength() int {
	a := GetArena()
	total := a.WireLength(t.Segs)
	PutArena(a)
	return total
}

// String renders the tree's canonical segments, sorted, for debugging.
func (t Tree) String() string {
	c := t.Canon()
	parts := make([]string, len(c.Segs))
	for i, s := range c.Segs {
		parts[i] = s.String()
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, " ") + "}"
}

// Canon returns the canonical form of the tree: collinear overlaps merged,
// then every run split at each endpoint or crossing that touches it. In the
// canonical form two segments share at most a single endpoint. The segments
// come back in canonical order: horizontal runs first, then by fixed
// coordinate ascending, cuts ascending.
func (t Tree) Canon() Tree {
	a := GetArena()
	cs := a.Canon(t.Segs)
	out := Tree{}
	if len(cs) > 0 {
		out.Segs = make([]Seg, len(cs))
		copy(out.Segs, cs)
	}
	PutArena(a)
	return out
}

// Nodes returns the distinct endpoints of the canonical tree, sorted.
func (t Tree) Nodes() []Point {
	c := t.Canon()
	set := make(map[Point]bool)
	for _, s := range c.Segs {
		set[s.A] = true
		set[s.B] = true
	}
	out := make([]Point, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Bends returns the number of bending points: canonical nodes of degree 2
// whose incident segments are perpendicular.
func (t Tree) Bends() int {
	a := GetArena()
	bends := a.Bends(t.Segs)
	PutArena(a)
	return bends
}

// BendPoints returns the canonical nodes of degree >= 2 that have both a
// horizontal and a vertical incident segment — the paper's "bending points"
// (corners and T/X junctions), used for SV-based topology matching.
func (t Tree) BendPoints() []Point {
	c := t.Canon()
	type inc struct{ h, v int }
	m := make(map[Point]*inc)
	touch := func(p Point, horizontal bool) {
		e := m[p]
		if e == nil {
			e = &inc{}
			m[p] = e
		}
		if horizontal {
			e.h++
		} else {
			e.v++
		}
	}
	for _, s := range c.Segs {
		touch(s.A, s.Horizontal())
		touch(s.B, s.Horizontal())
	}
	var out []Point
	for p, e := range m {
		if e.h > 0 && e.v > 0 {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// OnTree reports whether p lies on any segment of the tree.
func (t Tree) OnTree(p Point) bool {
	for _, s := range t.Segs {
		if s.Contains(p) {
			return true
		}
	}
	return false
}

// Connected reports whether the tree is a single connected component that
// touches every one of the given pins. Zero-length segments are ignored, as
// in Canon; a tree with no positive-length segment is connected iff all
// pins coincide (and, when it has segments, lie on one of them).
func (t Tree) Connected(pins []Point) bool {
	if len(t.Segs) > 0 {
		for _, p := range pins {
			if !t.OnTree(p) {
				return false
			}
		}
	}
	a := GetArena()
	comps := a.Components(t.Segs)
	PutArena(a)
	if comps == 0 {
		for _, p := range pins {
			if p != pins[0] {
				return false
			}
		}
		return true
	}
	return comps == 1
}

// IsTree reports whether the canonical segment graph is connected and
// acyclic (|E| == |V| - 1).
func (t Tree) IsTree() bool {
	if !t.Connected(nil) {
		return false
	}
	return len(t.Canon().Segs) == max(len(t.Nodes())-1, 0)
}

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
