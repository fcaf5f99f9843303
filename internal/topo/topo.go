// Package topo implements Streak's synergistic topology generation
// (§III-B): backbone construction per routing object, equivalent topology
// generation for every member bit via similarity-vector pin mapping
// (Algorithm 1), regularity-ratio evaluation between object topologies
// (Eq. 2), and expansion of 2-D topologies into 3-D layer-assigned
// candidates.
package topo

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/ident"
	"repro/internal/signal"
	"repro/internal/steiner"
)

// Options tunes topology generation.
type Options struct {
	// NumBackbones is how many distinct backbone topologies to generate
	// per object. Default 4.
	NumBackbones int
	// BendWeight is the per-bend cost during backbone construction.
	// Default 2.
	BendWeight int
	// ViaWeight is the per-via-level cost used in candidate costs.
	// Default 2.
	ViaWeight int
	// MaxLayerPairs bounds how many (H layer, V layer) combinations are
	// expanded per 2-D topology. Default 4.
	MaxLayerPairs int
}

// withDefaults fills zero fields with default values.
func (o Options) withDefaults() Options {
	if o.NumBackbones == 0 {
		o.NumBackbones = 4
	}
	if o.BendWeight == 0 {
		o.BendWeight = 2
	}
	if o.ViaWeight == 0 {
		o.ViaWeight = 2
	}
	if o.MaxLayerPairs == 0 {
		o.MaxLayerPairs = 6
	}
	return o
}

// Backbones generates backbone topologies for the object from its
// representative bit (§III-B1).
func Backbones(g *signal.Group, obj *ident.Object, opt Options) []geom.Tree {
	opt = opt.withDefaults()
	rep := obj.RepBit(g)
	return steiner.Backbones(rep.PinLocs(), opt.NumBackbones,
		steiner.Options{BendWeight: opt.BendWeight})
}

// Equivalent maps a backbone topology of the representative bit onto
// another member bit (Algorithm 1). Pins map through pinMap; bending points
// inherit their X from the mapped pin sharing their backbone X and their Y
// from the mapped pin sharing their backbone Y (Hanan alignment, Fig. 6).
// ok is false when the mapped tree fails to connect the bit's pins — the
// caller should then fall back to a fresh per-bit topology.
func Equivalent(backbone geom.Tree, rep, bit *signal.Bit, pinMap []int) (t geom.Tree, ok bool) {
	// LUT from each distinct backbone pin coordinate to the mapped bit
	// coordinate (lines 1-2 of Algorithm 1: in our grid the LUT can key on
	// coordinates directly because backbone nodes lie on the Hanan grid of
	// the representative pins).
	mapX := make(map[int]int)
	mapY := make(map[int]int)
	pinAt := make(map[geom.Point]int) // rep pin location -> rep pin index
	for i, p := range rep.Pins {
		if _, seen := mapX[p.Loc.X]; !seen {
			mapX[p.Loc.X] = bit.Pins[pinMap[i]].Loc.X
		}
		if _, seen := mapY[p.Loc.Y]; !seen {
			mapY[p.Loc.Y] = bit.Pins[pinMap[i]].Loc.Y
		}
		if _, seen := pinAt[p.Loc]; !seen {
			pinAt[p.Loc] = i
		}
	}
	mapPt := func(p geom.Point) (geom.Point, bool) {
		if i, isPin := pinAt[p]; isPin {
			return bit.Pins[pinMap[i]].Loc, true
		}
		x, okx := mapX[p.X]
		y, oky := mapY[p.Y]
		if !okx || !oky {
			return geom.Point{}, false
		}
		return geom.Pt(x, y), true
	}
	var out geom.Tree
	for _, s := range backbone.Canon().Segs {
		a, oka := mapPt(s.A)
		b, okb := mapPt(s.B)
		if !oka || !okb {
			return geom.Tree{}, false
		}
		if a.X != b.X && a.Y != b.Y {
			return geom.Tree{}, false // mapping broke axis alignment
		}
		if a != b {
			out.Append(geom.S(a, b))
		}
	}
	if !out.Connected(bit.PinLocs()) {
		return geom.Tree{}, false
	}
	return out, true
}

// ObjectTopology is one 2-D routing solution for an object: the backbone
// plus an equivalent (or fallback) topology per member bit.
type ObjectTopology struct {
	// Backbone is the representative topology.
	Backbone geom.Tree
	// BitTrees holds one topology per member of the object, in BitIdx
	// order.
	BitTrees []geom.Tree
	// Equivalent is false for bits where Algorithm 1 failed and a fresh
	// per-bit Steiner tree was used instead.
	Equivalent []bool
}

// WireLength returns the total wirelength over all member bits.
func (ot *ObjectTopology) WireLength() int {
	wl := 0
	for _, t := range ot.BitTrees {
		wl += t.WireLength()
	}
	return wl
}

// ObjectTopologies builds the 2-D candidate topologies for an object: one
// ObjectTopology per backbone, with equivalent topologies generated for
// every member bit, plus shifted "detour" variants of the best backbone
// (the wire-synthesis escape valve: a U-jog of the main trunk lets the
// solver trade a little wirelength for capacity, which is where Streak's
// WL overhead versus manual designs comes from in Table I).
func ObjectTopologies(g *signal.Group, obj *ident.Object, opt Options) []ObjectTopology {
	opt = opt.withDefaults()
	rep := obj.RepBit(g)
	var out []ObjectTopology
	for _, bb := range Backbones(g, obj, opt) {
		ot := ObjectTopology{Backbone: bb}
		for k, bi := range obj.BitIdx {
			bit := &g.Bits[bi]
			t, ok := Equivalent(bb, rep, bit, obj.PinMap[k])
			if !ok {
				t = steiner.Iterated1Steiner(bit.PinLocs(), steiner.Options{BendWeight: opt.BendWeight})
			}
			ot.BitTrees = append(ot.BitTrees, t)
			ot.Equivalent = append(ot.Equivalent, ok)
		}
		out = append(out, ot)
	}
	if len(out) > 0 {
		var pinSets [][]geom.Point
		for _, bi := range obj.BitIdx {
			pinSets = append(pinSets, g.Bits[bi].PinLocs())
		}
		for _, d := range []int{1, -1, 2, -2} {
			if sv, ok := shiftTopology(out[0], rep.PinLocs(), pinSets, d); ok {
				out = append(out, sv)
			}
		}
	}
	return out
}

// shiftTopology U-shifts the longest trunk segment of every bit tree (and
// the backbone) perpendicular by d G-cells, preserving connectivity: the
// segment a-b becomes a -> a+d -> b+d -> b. All bits shift identically so
// the object's regularity is preserved. Returns ok=false when any tree has
// no segment to shift.
func shiftTopology(ot ObjectTopology, repPins []geom.Point, pinSets [][]geom.Point, d int) (ObjectTopology, bool) {
	out := ObjectTopology{Equivalent: append([]bool(nil), ot.Equivalent...)}
	var ok bool
	if out.Backbone, ok = shiftTree(ot.Backbone, repPins, d); !ok {
		return ObjectTopology{}, false
	}
	for k, t := range ot.BitTrees {
		st, ok := shiftTree(t, pinSets[k], d)
		if !ok {
			return ObjectTopology{}, false
		}
		out.BitTrees = append(out.BitTrees, st)
	}
	return out, true
}

// shiftTree U-shifts the longest canonical segment of the tree. Segments
// are first split at pin locations so no pin can sit in the interior of
// the moved run — otherwise the shift would disconnect it.
func shiftTree(t geom.Tree, pins []geom.Point, d int) (geom.Tree, bool) {
	segs := splitSegsAt(t.Canon().Segs, pins)
	best := -1
	for i, s := range segs {
		if best == -1 || s.Len() > segs[best].Len() {
			best = i
		}
	}
	if best == -1 || segs[best].Len() < 2 {
		return geom.Tree{}, false
	}
	s := segs[best].Norm()
	var off geom.Point
	if s.Horizontal() {
		off = geom.Pt(0, d)
	} else {
		off = geom.Pt(d, 0)
	}
	a, b := s.A.Add(off), s.B.Add(off)
	var out geom.Tree
	for i, seg := range segs {
		if i != best {
			out.Append(seg)
		}
	}
	out.Append(geom.S(s.A, a), geom.S(a, b), geom.S(b, s.B))
	if !out.Connected(pins) {
		return geom.Tree{}, false
	}
	return out, true
}

// splitSegsAt cuts segments at any of the given points lying in their
// interiors.
func splitSegsAt(segs []geom.Seg, pts []geom.Point) []geom.Seg {
	var out []geom.Seg
	var cuts []geom.Point
	for _, s := range segs {
		n := s.Norm()
		cuts = append(cuts[:0], n.A, n.B)
		for _, p := range pts {
			if n.Contains(p) && p != n.A && p != n.B {
				cuts = append(cuts, p)
			}
		}
		// Equal cuts are equal points, so the sort's tie order cannot show.
		slices.SortFunc(cuts, func(p, q geom.Point) int {
			return cmp.Or(cmp.Compare(p.X, q.X), cmp.Compare(p.Y, q.Y))
		})
		for i := 0; i+1 < len(cuts); i++ {
			if cuts[i] != cuts[i+1] {
				out = append(out, geom.Seg{A: cuts[i], B: cuts[i+1]})
			}
		}
	}
	return out
}

// Candidate is a 3-D routing candidate for an object: a 2-D object
// topology with its horizontal trunks assigned to one H layer and vertical
// trunks to one V layer (§III-B2 keeps each direction on a single
// unidirectional layer for regularity).
type Candidate struct {
	// Topo is the underlying 2-D solution.
	Topo ObjectTopology
	// TopoIdx identifies the underlying 2-D topology within the object's
	// topology list, letting callers cache per-2-D-pair computations
	// across layer variants.
	TopoIdx int
	// HLayer and VLayer are the assigned layer indices.
	HLayer, VLayer int
	// WL is the total wirelength over member bits (G-cell units).
	WL int
	// Vias is the estimated via count: per bit, each bending point needs a
	// stack spanning |HLayer - VLayer| levels.
	Vias int
	// Cost is WL + ViaWeight * Vias, the c(i,j) of formulation (3).
	Cost int
	// Edges lists every 3-D edge the candidate occupies with its track
	// need — the u_el(i,j) of constraint (3c) — sorted by (Layer, Idx).
	// All edges of HLayer and VLayer form two contiguous runs.
	Edges []EdgeUse
	// Masks is the word-level occupancy view of Edges: per (layer, 64-edge
	// word) the bits of the occupied edge indices. A candidate fits a usage
	// state only if every mask ANDs to zero against the state's blocked
	// bitset (necessary, and also sufficient for edges needing one track).
	Masks []WordMask
	// Heavy lists the edges of Edges needing two or more tracks (several
	// member bits sharing an edge); these keep a scalar availability check
	// on top of the mask test. Nil for most candidates.
	Heavy []EdgeUse
}

// EdgeUse is one 3-D edge requirement of a candidate.
type EdgeUse struct {
	// Layer is the metal layer index.
	Layer int32
	// Idx is the dense edge index on the layer.
	Idx int32
	// N is the number of tracks the candidate needs on the edge.
	N int32
}

// WordMask is one 64-edge-wide slice of a candidate's occupancy: Bits has
// bit (idx & 63) set for every occupied edge idx with idx >> 6 == Word on
// the layer.
type WordMask struct {
	Layer int32
	Word  int32
	Bits  uint64
}

// EdgeKey identifies a 3-D grid edge.
type EdgeKey struct {
	// Layer is the metal layer index.
	Layer int
	// Idx is the dense edge index on that layer.
	Idx int
}

// Expand3D turns 2-D object topologies into at most maxN 3-D candidates on
// the grid, enumerating (H layer, V layer) pairs in increasing via-distance
// order. Candidates whose segments leave the grid are dropped. Results are
// sorted by Cost; expanded is the number of candidates priced before the
// diversity trim (see trimDiverse) cut them to maxN.
//
// A candidate's cost needs only its topology's wirelength and bend count
// and its layer distance, so every (topology, layer pair) is priced and
// trimmed before any is assembled: the 2-D edge footprint of each topology
// is computed once (into pooled scratch, via the geom arena kernels), and
// only the survivors of the trim materialize their Edges, Masks and Heavy
// lists from it — flat run copies with the layer filled in.
func Expand3D(gr *grid.Grid, topos []ObjectTopology, opt Options, maxN int) (cands []Candidate, expanded int) {
	opt = opt.withDefaults()
	pairs := layerPairs(gr, opt.MaxLayerPairs)
	sc := expandPool.Get().(*expandScratch)
	sc.fps, sc.uses, sc.masks, sc.priced = sc.fps[:0], sc.uses[:0], sc.masks[:0], sc.priced[:0]
	ar := geom.GetArena()
	for ti := range topos {
		if !sc.precompute2D(gr, &topos[ti], ar) {
			continue
		}
		fp := &sc.fps[len(sc.fps)-1]
		for _, pr := range pairs {
			layerDist := iabs(pr[0] - pr[1])
			if layerDist == 0 {
				layerDist = 1
			}
			vias := fp.bends * layerDist
			sc.priced = append(sc.priced, pricedCand{
				fp: int32(len(sc.fps) - 1), topo: int32(ti),
				hl: int32(pr[0]), vl: int32(pr[1]),
				vias: vias, cost: fp.wl + opt.ViaWeight*vias,
			})
		}
	}
	geom.PutArena(ar)
	expanded = len(sc.priced)
	keep := sc.trimDiverse(maxN, len(topos))
	if len(keep) > 0 {
		cands = make([]Candidate, len(keep))
		for k, pc := range keep {
			cands[k] = sc.assemble(topos, pc)
		}
	}
	expandPool.Put(sc)
	return cands, expanded
}

// pricedCand is a candidate before assembly: its topology, layer pair and
// cost, plus the index of its topology's footprint in the scratch.
type pricedCand struct {
	fp, topo   int32
	hl, vl     int32
	rr         int32 // round-robin rank, set by trimDiverse
	vias, cost int
}

// footprint is the layer-independent part of one topology's candidates:
// wirelength, bend count, and the offsets of its per-direction edge runs
// (sorted by 2-D index, Layer left 0) and word masks in the scratch.
type footprint struct {
	wl, bends      int
	hEdges, vEdges [2]int32 // [lo, hi) into expandScratch.uses
	hMasks, vMasks [2]int32 // [lo, hi) into expandScratch.masks
	heavy          int
}

// expandScratch is the reusable state behind Expand3D: dense per-direction
// 2-D edge counters (zeroed as each topology's footprint is read out), the
// footprints of the topologies under expansion and their priced
// candidates.
type expandScratch struct {
	hCount, vCount []int32
	// hRuns holds a topology's horizontal segments as packed
	// start<<32 | end edge-index ranges; vTouched its distinct vertical
	// edges.
	hRuns    []uint64
	vTouched []int32
	fps      []footprint
	uses     []EdgeUse
	masks    []WordMask
	priced   []pricedCand
	kept     []pricedCand
	topoTab  []int32
}

var expandPool = sync.Pool{New: func() any { return new(expandScratch) }}

// precompute2D appends the footprint of ot to sc.fps: per-direction sorted
// edge runs (2-D dense indices — identical on every layer of the
// direction) with their word masks, total wirelength and bend count. It
// reports false, leaving the scratch clean, when any segment leaves the
// grid — which disqualifies the topology for every layer pair.
//
// A horizontal segment covers consecutive edge indices, so the horizontal
// edges come out in order by walking the segments sorted by first index,
// each edge read once and zeroed; only the vertical edges (stride W) are
// sorted one by one.
func (sc *expandScratch) precompute2D(gr *grid.Grid, ot *ObjectTopology, ar *geom.Arena) bool {
	hEdges, vEdges := (gr.W-1)*gr.H, gr.W*(gr.H-1)
	if len(sc.hCount) < hEdges {
		sc.hCount = make([]int32, hEdges)
	}
	if len(sc.vCount) < vEdges {
		sc.vCount = make([]int32, vEdges)
	}
	sc.hRuns, sc.vTouched = sc.hRuns[:0], sc.vTouched[:0]
	var fp footprint
	ok := true
	for _, t := range ot.BitTrees {
		if !ok {
			break
		}
		for _, s := range ar.Canon(t.Segs) {
			// Canonical segments are normalized and non-degenerate, so
			// direction alone picks the dense 2-D index space (EdgeIndex is
			// the same formula on every layer of a direction).
			if s.Horizontal() {
				if s.A.X < 0 || s.B.X > gr.W-1 || s.A.Y < 0 || s.A.Y > gr.H-1 {
					ok = false
					break
				}
				lo, hi := s.A.Y*(gr.W-1)+s.A.X, s.A.Y*(gr.W-1)+s.B.X
				for idx := lo; idx < hi; idx++ {
					sc.hCount[idx]++
				}
				sc.hRuns = append(sc.hRuns, uint64(lo)<<32|uint64(hi))
			} else {
				if s.A.Y < 0 || s.B.Y > gr.H-1 || s.A.X < 0 || s.A.X > gr.W-1 {
					ok = false
					break
				}
				for y := s.A.Y; y < s.B.Y; y++ {
					idx := int32(y*gr.W + s.A.X)
					if sc.vCount[idx] == 0 {
						sc.vTouched = append(sc.vTouched, idx)
					}
					sc.vCount[idx]++
				}
			}
			fp.wl += s.Len()
		}
		fp.bends += ar.Bends(t.Segs)
	}
	if !ok {
		for _, r := range sc.hRuns {
			clear(sc.hCount[r>>32 : uint32(r)])
		}
		for _, idx := range sc.vTouched {
			sc.vCount[idx] = 0
		}
		return false
	}
	slices.Sort(sc.hRuns)
	fp.hEdges[0], fp.hMasks[0] = int32(len(sc.uses)), int32(len(sc.masks))
	for _, r := range sc.hRuns {
		for idx := int32(r >> 32); idx < int32(uint32(r)); idx++ {
			if n := sc.hCount[idx]; n > 0 { // zero: read out by an earlier run
				sc.hCount[idx] = 0
				sc.appendUse(idx, n, fp.hMasks[0], &fp.heavy)
			}
		}
	}
	fp.hEdges[1], fp.hMasks[1] = int32(len(sc.uses)), int32(len(sc.masks))
	slices.Sort(sc.vTouched)
	fp.vEdges[0], fp.vMasks[0] = fp.hEdges[1], fp.hMasks[1]
	for _, idx := range sc.vTouched {
		n := sc.vCount[idx]
		sc.vCount[idx] = 0
		sc.appendUse(idx, n, fp.vMasks[0], &fp.heavy)
	}
	fp.vEdges[1], fp.vMasks[1] = int32(len(sc.uses)), int32(len(sc.masks))
	sc.fps = append(sc.fps, fp)
	return true
}

// appendUse appends the use of edge idx (n tracks) to sc.uses and sets its
// bit in the word masks, sc.masks[maskLo:] being the current direction's;
// an edge needing two or more tracks also counts toward *heavy. Edges must
// arrive in increasing index order.
func (sc *expandScratch) appendUse(idx, n, maskLo int32, heavy *int) {
	sc.uses = append(sc.uses, EdgeUse{Idx: idx, N: n})
	if n >= 2 {
		*heavy++
	}
	w := idx >> 6
	if m := len(sc.masks); m > int(maskLo) && sc.masks[m-1].Word == w {
		sc.masks[m-1].Bits |= 1 << (idx & 63)
	} else {
		sc.masks = append(sc.masks, WordMask{Word: w, Bits: 1 << (idx & 63)})
	}
}

// trimDiverse sorts the priced candidates by cost (stable, so ties keep
// enumeration order) and caps them at maxN while keeping topology
// diversity: candidates are taken round-robin across 2-D topologies in
// cost order, so a cheap topology's layer variants cannot crowd out the
// detour topologies the solver needs under congestion. The kept candidates
// come back re-sorted by cost (stable). numTopos bounds the topology
// indices.
func (sc *expandScratch) trimDiverse(maxN, numTopos int) []pricedCand {
	byCost := func(a, b pricedCand) int { return cmp.Compare(a.cost, b.cost) }
	slices.SortStableFunc(sc.priced, byCost)
	if len(sc.priced) <= maxN {
		return sc.priced
	}
	// Round r takes the r-th cheapest candidate of every topology, the
	// topologies ordered by their cheapest candidate: key each candidate by
	// (r, its topology's position) and keep the maxN smallest keys in key
	// order.
	tab := slices.Grow(sc.topoTab[:0], 2*numTopos)[:2*numTopos]
	clear(tab)
	seen, pos := tab[:numTopos], tab[numTopos:]
	next := int32(0)
	for i := range sc.priced {
		pc := &sc.priced[i]
		if seen[pc.topo] == 0 {
			pos[pc.topo] = next
			next++
		}
		pc.rr = seen[pc.topo]*int32(numTopos) + pos[pc.topo]
		seen[pc.topo]++
	}
	sc.topoTab = tab
	out := append(sc.kept[:0], sc.priced...)
	sc.kept = out
	slices.SortFunc(out, func(a, b pricedCand) int { return cmp.Compare(a.rr, b.rr) })
	out = out[:max(maxN, 0)]
	slices.SortStableFunc(out, byCost)
	return out
}

// assemble materializes a priced candidate from its topology's footprint
// onto its layer pair: Edges sorted by (Layer, Idx), word masks, heavy list.
func (sc *expandScratch) assemble(topos []ObjectTopology, pc pricedCand) Candidate {
	fp := &sc.fps[pc.fp]
	c := Candidate{
		Topo:    topos[pc.topo],
		TopoIdx: int(pc.topo),
		HLayer:  int(pc.hl),
		VLayer:  int(pc.vl),
		WL:      fp.wl,
		Vias:    pc.vias,
		Cost:    pc.cost,
	}
	// Both runs of a layer pair sit on different layers, so Edges is the
	// lower layer's run then the higher one's, and no word mask spans them.
	type run struct {
		layer        int32
		edges, masks [2]int32
	}
	first, second := run{pc.hl, fp.hEdges, fp.hMasks}, run{pc.vl, fp.vEdges, fp.vMasks}
	if pc.vl < pc.hl {
		first, second = second, first
	}
	c.Edges = make([]EdgeUse, 0, (first.edges[1]-first.edges[0])+(second.edges[1]-second.edges[0]))
	c.Masks = make([]WordMask, 0, (first.masks[1]-first.masks[0])+(second.masks[1]-second.masks[0]))
	for _, r := range [2]run{first, second} {
		for _, e := range sc.uses[r.edges[0]:r.edges[1]] {
			c.Edges = append(c.Edges, EdgeUse{Layer: r.layer, Idx: e.Idx, N: e.N})
		}
		for _, m := range sc.masks[r.masks[0]:r.masks[1]] {
			c.Masks = append(c.Masks, WordMask{Layer: r.layer, Word: m.Word, Bits: m.Bits})
		}
	}
	if fp.heavy > 0 {
		c.Heavy = make([]EdgeUse, 0, fp.heavy)
		for _, e := range c.Edges {
			if e.N >= 2 {
				c.Heavy = append(c.Heavy, e)
			}
		}
	}
	return c
}

// layerPairs lists (hLayer, vLayer) combinations sorted by layer distance
// (preferring neighboring layers to save vias, §III-B2), capped at maxPairs.
func layerPairs(gr *grid.Grid, maxPairs int) [][2]int {
	var pairs [][2]int
	for _, h := range gr.HLayers() {
		for _, v := range gr.VLayers() {
			pairs = append(pairs, [2]int{h, v})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		di := iabs(pairs[i][0] - pairs[i][1])
		dj := iabs(pairs[j][0] - pairs[j][1])
		if di != dj {
			return di < dj
		}
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	if len(pairs) > maxPairs {
		pairs = pairs[:maxPairs]
	}
	return pairs
}

func iabs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
