// Package steiner builds rectilinear Steiner trees for signal-bit pin sets.
// It implements a Prim-based rectilinear MST, the iterated 1-Steiner
// heuristic of Kahng and Robins ([16] in the paper; one Hanan point is
// inserted per round, not the batched BI1S variant) extended with a
// bend cost as §III-B1 requires — backbone topologies affect every bit in a
// routing object, so fewer bends matter as much as wirelength — and an
// enumerator that returns a diverse set of candidate backbones.
package steiner

import (
	"sort"

	"repro/internal/geom"
)

// Options tunes tree construction.
type Options struct {
	// BendWeight is the cost in G-cell units charged per bending point when
	// comparing topologies. Zero optimizes wirelength only.
	BendWeight int
	// MaxSteiner bounds how many Steiner points the iterated heuristic may
	// insert. Zero means no bound.
	MaxSteiner int
}

// Cost returns the option-weighted cost of a tree: wirelength plus
// BendWeight per bend.
func (o Options) Cost(t geom.Tree) int {
	return t.WireLength() + o.BendWeight*t.Bends()
}

// MST returns a rectilinear spanning tree of the pins built by Prim's
// algorithm on Manhattan distances, with each tree edge realized as an
// L-shape chosen to minimize the option cost against the partial tree.
func MST(pins []geom.Point, opt Options) geom.Tree {
	pins = geom.DedupPoints(pins)
	if len(pins) <= 1 {
		return geom.Tree{}
	}
	inTree := make([]bool, len(pins))
	dist := make([]int, len(pins))
	from := make([]int, len(pins))
	for i := range dist {
		dist[i] = geom.Dist(pins[0], pins[i])
		from[i] = 0
	}
	inTree[0] = true
	var t geom.Tree
	for added := 1; added < len(pins); added++ {
		best := -1
		for i := range pins {
			if !inTree[i] && (best == -1 || dist[i] < dist[best]) {
				best = i
			}
		}
		inTree[best] = true
		t = attachL(t, pins[from[best]], pins[best], opt)
		for i := range pins {
			if d := geom.Dist(pins[best], pins[i]); !inTree[i] && d < dist[i] {
				dist[i] = d
				from[i] = best
			}
		}
	}
	return t
}

// attachL connects b to the tree at a using whichever L-shape corner yields
// the lower option cost for the union. The corners are compared through
// exact local cost deltas rather than by materializing and re-costing two
// full tree copies per attachment, which made MST construction quadratic
// in segment count.
func attachL(t geom.Tree, a, b geom.Point, opt Options) geom.Tree {
	if a.X == b.X || a.Y == b.Y {
		t.Append(geom.S(a, b))
		return t
	}
	c1 := geom.Pt(b.X, a.Y)
	c2 := geom.Pt(a.X, b.Y)
	if attachDelta(t, a, c1, b, opt) <= attachDelta(t, a, c2, b, opt) {
		t.Append(geom.S(a, c1), geom.S(c1, b))
	} else {
		t.Append(geom.S(a, c2), geom.S(c2, b))
	}
	return t
}

// attachDelta returns the exact option-cost increase of adding the L-path
// a -> c -> b to the tree. Wirelength coverage and bend status can only
// change on points of the new path, and every canonical segment incident
// to such a point shares a point with the path, so evaluating the cost on
// that local neighborhood before and after the insertion yields the same
// delta as re-costing the whole tree.
func attachDelta(t geom.Tree, a, c, b geom.Point, opt Options) int {
	s1, s2 := geom.S(a, c), geom.S(c, b)
	var local geom.Tree
	for _, s := range t.Segs {
		if s.Touches(s1) || s.Touches(s2) {
			local.Append(s)
		}
	}
	before := opt.Cost(local)
	local.Append(s1, s2)
	return opt.Cost(local) - before
}

// Iterated1Steiner implements the iterated 1-Steiner heuristic: repeatedly
// evaluate every promising Hanan candidate as an extra terminal, keep the
// one with the largest cost gain, and stop when no candidate improves the
// tree. Terminal sets stay small for signal bits (Np_max <= 14 in the
// paper's benchmarks), so the O(rounds * candidates * MST) cost is fine.
func Iterated1Steiner(pins []geom.Point, opt Options) geom.Tree {
	pins = geom.DedupPoints(pins)
	if len(pins) <= 2 {
		return MST(pins, opt)
	}
	terms := append([]geom.Point{}, pins...)
	best := MST(terms, opt)
	bestCost := opt.Cost(best)
	inserted := 0
	for {
		if opt.MaxSteiner > 0 && inserted >= opt.MaxSteiner {
			return best
		}
		cands := geom.HananCandidates(terms)
		var bestCand geom.Point
		var bestTree geom.Tree
		improved := false
		for _, c := range cands {
			t := MST(append(append([]geom.Point{}, terms...), c), opt)
			t = pruneDangling(t, pins)
			if cost := opt.Cost(t); cost < bestCost {
				bestCost = cost
				bestCand = c
				bestTree = t
				improved = true
			}
		}
		if !improved {
			return best
		}
		terms = append(terms, bestCand)
		best = bestTree
		inserted++
	}
}

// pruneDangling removes canonical leaf segments whose free endpoint is not a
// pin, repeating until fixpoint. Inserted Steiner candidates that end up as
// leaves contribute nothing and must not count as wirelength.
func pruneDangling(t geom.Tree, pins []geom.Point) geom.Tree {
	pinSet := make(map[geom.Point]bool, len(pins))
	for _, p := range pins {
		pinSet[p] = true
	}
	segs := splitAtPoints(t.Canon().Segs, pins)
	for {
		deg := make(map[geom.Point]int)
		for _, s := range segs {
			deg[s.A]++
			deg[s.B]++
		}
		keep := segs[:0:0]
		removed := false
		for _, s := range segs {
			if (deg[s.A] == 1 && !pinSet[s.A]) || (deg[s.B] == 1 && !pinSet[s.B]) {
				removed = true
				continue
			}
			keep = append(keep, s)
		}
		segs = keep
		if !removed {
			break
		}
	}
	return geom.Tree{Segs: segs}
}

// splitAtPoints cuts every segment at each of the given points lying in its
// interior, so those points become graph nodes (and can anchor pruning).
func splitAtPoints(segs []geom.Seg, pts []geom.Point) []geom.Seg {
	var out []geom.Seg
	for _, s := range segs {
		n := s.Norm()
		cuts := []geom.Point{n.A, n.B}
		for _, p := range pts {
			if n.Contains(p) && p != n.A && p != n.B {
				cuts = append(cuts, p)
			}
		}
		sort.Slice(cuts, func(i, j int) bool { return cuts[i].Less(cuts[j]) })
		for i := 0; i+1 < len(cuts); i++ {
			if cuts[i] != cuts[i+1] {
				out = append(out, geom.Seg{A: cuts[i], B: cuts[i+1]})
			}
		}
	}
	return out
}

// Length returns the wirelength of the iterated-1-Steiner tree over the
// pins — the RSMT estimate the paper uses to account for unrouted groups.
func Length(pins []geom.Point) int {
	return Iterated1Steiner(pins, Options{}).WireLength()
}

// Backbones returns up to k distinct backbone topologies for the pin set,
// ordered by increasing option cost, the best (iterated-1-Steiner) tree
// first. Diversity comes from the paper's priority queue of promising
// bending points: each additional topology commits to at least one
// different Hanan point or L-orientation. All returned trees connect every
// pin.
func Backbones(pins []geom.Point, k int, opt Options) []geom.Tree {
	pins = geom.DedupPoints(pins)
	if len(pins) <= 1 || k <= 0 {
		return nil
	}
	seen := make(map[string]bool)
	var out []geom.Tree
	add := func(t geom.Tree) {
		if len(out) >= k+8 { // gather a few extra, sort+trim at the end
			return
		}
		if !t.Connected(pins) {
			return
		}
		key := t.String()
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, t)
	}

	add(Iterated1Steiner(pins, opt))
	// Orientation variants of the plain MST: flipping the bend-weight
	// changes which L corners attachL picks.
	add(MST(pins, opt))
	add(MST(pins, Options{BendWeight: opt.BendWeight + 4}))
	add(reverseMST(pins, opt))

	// Promising Hanan points in priority order: smaller resulting cost
	// first. Each forced point yields a topology committed to that bending
	// point (§III-B1: every candidate tree adopts at least one different
	// bending point).
	type cand struct {
		p    geom.Point
		cost int
	}
	var cands []cand
	for _, c := range geom.HananCandidates(pins) {
		t := pruneDangling(MST(append(append([]geom.Point{}, pins...), c), opt), pins)
		cands = append(cands, cand{c, opt.Cost(t)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].cost != cands[j].cost {
			return cands[i].cost < cands[j].cost
		}
		return cands[i].p.Less(cands[j].p)
	})
	for _, c := range cands {
		if len(out) >= k+8 {
			break
		}
		t := pruneDangling(MST(append(append([]geom.Point{}, pins...), c.p), opt), pins)
		add(t)
	}

	sort.SliceStable(out, func(i, j int) bool { return opt.Cost(out[i]) < opt.Cost(out[j]) })
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// reverseMST builds the MST visiting pins in reverse order, which tends to
// pick the opposite L corners and yields a distinct topology.
func reverseMST(pins []geom.Point, opt Options) geom.Tree {
	rev := make([]geom.Point, len(pins))
	for i, p := range pins {
		rev[len(pins)-1-i] = p
	}
	// Flip corner preference by swapping X/Y roles: mirror, solve, mirror back.
	mir := make([]geom.Point, len(rev))
	for i, p := range rev {
		mir[i] = geom.Pt(p.Y, p.X)
	}
	t := MST(mir, opt)
	var back geom.Tree
	for _, s := range t.Segs {
		back.Append(geom.S(geom.Pt(s.A.Y, s.A.X), geom.Pt(s.B.Y, s.B.X)))
	}
	return back
}
