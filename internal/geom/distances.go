package geom

import (
	"cmp"
	"slices"
)

// Distances returns the path length along the tree from `from` to every
// point of `to`, in order. Element i is
//   - 0 when to[i] == from and from lies on a segment of the tree (a
//     zero-length one included) or the tree has no segments;
//   - otherwise the shortest path length between the two points through the
//     canonical segment graph, or -1 when either point is off that graph
//     (points covered only by zero-length segments are off it) or the two
//     are disconnected.
//
// Overlapping segments can close cycles, so the answer is a shortest path,
// not a tree walk; on a proper tree it is the unique path. One
// single-source walk from `from` answers every query: the canonical
// segments are split at `from` and at each query point inside a segment,
// which leaves the graph metric unchanged. Scratch comes from a pooled
// Arena, so a steady-state call allocates only its result. Used for
// source-to-sink distance accounting.
func (t Tree) Distances(from Point, to []Point) []int {
	out := make([]int, len(to))
	pending := false
	for i, p := range to {
		out[i] = -1
		if p != from {
			pending = true
		} else if len(t.Segs) == 0 || t.OnTree(from) {
			out[i] = 0
		}
	}
	if pending {
		a := GetArena()
		a.distances(out, t.Segs, from, to)
		PutArena(a)
	}
	return out
}

// distItem is a shortest-path heap entry: a tentative distance to node v.
type distItem struct {
	d int
	v int32
}

// distances fills out[i] for every to[i] != from with its graph distance
// from `from`, leaving -1 where there is none. The graph is the canonical
// form of segs split at the query points, indexed by slice: nodes sorted
// and deduplicated, adjacency in compressed rows.
func (a *Arena) distances(out []int, segs []Seg, from Point, to []Point) {
	split := a.dsegs[:0]
	for _, s := range a.Canon(segs) {
		horiz := s.Horizontal()
		cuts := a.dcuts[:0]
		if c, ok := interiorCut(s, horiz, from); ok {
			cuts = append(cuts, c)
		}
		for _, p := range to {
			if c, ok := interiorCut(s, horiz, p); ok {
				cuts = append(cuts, c)
			}
		}
		if len(cuts) == 0 {
			split = append(split, s)
			continue
		}
		if horiz {
			cuts = append(cuts, s.A.X, s.B.X)
		} else {
			cuts = append(cuts, s.A.Y, s.B.Y)
		}
		slices.Sort(cuts)
		a.dcuts = cuts
		for i := 0; i+1 < len(cuts); i++ {
			if cuts[i] == cuts[i+1] {
				continue
			}
			if horiz {
				split = append(split, Seg{A: Point{cuts[i], s.A.Y}, B: Point{cuts[i+1], s.A.Y}})
			} else {
				split = append(split, Seg{A: Point{s.A.X, cuts[i]}, B: Point{s.A.X, cuts[i+1]}})
			}
		}
	}
	a.dsegs = split

	nodes := a.dnodes[:0]
	for _, s := range split {
		nodes = append(nodes, s.A, s.B)
	}
	slices.SortFunc(nodes, comparePoints)
	nodes = slices.Compact(nodes)
	a.dnodes = nodes
	src, ok := slices.BinarySearchFunc(nodes, from, comparePoints)
	if !ok {
		return
	}

	// Compressed adjacency: count degrees into start, turn them into
	// cumulative ends, then fill each row backwards so start[i] ends up at
	// row i's first entry and start[i+1] at its end.
	n := len(nodes)
	start := slices.Grow(a.dstart[:0], n+1)[:n+1]
	clear(start)
	ends := a.dends[:0]
	for _, s := range split {
		i, _ := slices.BinarySearchFunc(nodes, s.A, comparePoints)
		j, _ := slices.BinarySearchFunc(nodes, s.B, comparePoints)
		ends = append(ends, int32(i), int32(j))
		start[i]++
		start[j]++
	}
	for i := 1; i <= n; i++ {
		start[i] += start[i-1]
	}
	adj := slices.Grow(a.dadj[:0], len(ends))[:len(ends)]
	for e := 0; e < len(ends); e += 2 {
		i, j := ends[e], ends[e+1]
		start[i]--
		adj[start[i]] = j
		start[j]--
		adj[start[j]] = i
	}
	a.dstart, a.dends, a.dadj = start, ends, adj

	// Dijkstra from src over a binary heap with lazy deletion.
	dist := slices.Grow(a.ddist[:0], n)[:n]
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	heap := append(a.dheap[:0], distItem{0, int32(src)})
	for len(heap) > 0 {
		var cur distItem
		cur, heap = heapPop(heap)
		if cur.d != dist[cur.v] {
			continue
		}
		for _, q := range adj[start[cur.v]:start[cur.v+1]] {
			nd := cur.d + Dist(nodes[cur.v], nodes[q])
			if dist[q] == -1 || nd < dist[q] {
				dist[q] = nd
				heap = heapPush(heap, distItem{nd, q})
			}
		}
	}
	a.ddist, a.dheap = dist, heap

	for i, p := range to {
		if p == from {
			continue
		}
		if k, ok := slices.BinarySearchFunc(nodes, p, comparePoints); ok {
			out[i] = dist[k]
		}
	}
}

// interiorCut returns p's coordinate along the normalized positive-length
// segment s when p lies strictly inside it.
func interiorCut(s Seg, horiz bool, p Point) (int, bool) {
	if horiz {
		return p.X, p.Y == s.A.Y && p.X > s.A.X && p.X < s.B.X
	}
	return p.Y, p.X == s.A.X && p.Y > s.A.Y && p.Y < s.B.Y
}

// comparePoints orders points as Point.Less does: X, then Y.
func comparePoints(p, q Point) int {
	if c := cmp.Compare(p.X, q.X); c != 0 {
		return c
	}
	return cmp.Compare(p.Y, q.Y)
}

func heapPush(h []distItem, it distItem) []distItem {
	h = append(h, it)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].d <= h[i].d {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func heapPop(h []distItem) (distItem, []distItem) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		l, m := 2*i+1, i
		if l < len(h) && h[l].d < h[m].d {
			m = l
		}
		if r := l + 1; r < len(h) && h[r].d < h[m].d {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top, h
}
