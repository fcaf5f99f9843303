package topo

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/grid"
	"repro/internal/ident"
)

// refExpand3D is the expansion Expand3D replaced, kept as the differential
// reference: every (topology, layer pair) candidate fully assembled from a
// map-based footprint of the canonical bit trees, then sorted by cost
// (stable), with no cap.
func refExpand3D(gr *grid.Grid, topos []ObjectTopology, opt Options) []Candidate {
	opt = opt.withDefaults()
	pairs := layerPairs(gr, opt.MaxLayerPairs)
	var out []Candidate
	for ti := range topos {
		ot := &topos[ti]
		wl, bends, fits := 0, 0, true
		for _, t := range ot.BitTrees {
			for _, s := range t.Canon().Segs {
				fits = fits && gr.InBounds(s.A.X, s.A.Y) && gr.InBounds(s.B.X, s.B.Y)
				wl += s.Len()
			}
			bends += t.Bends()
		}
		if !fits {
			continue
		}
		// The map is counted once, on the first pair; every other pair
		// moves its edges to that pair's layers and re-sorts them.
		need := refNeeds(gr, ot, pairs[0][0], pairs[0][1])
		for _, pr := range pairs {
			ld := max(iabs(pr[0]-pr[1]), 1)
			c := Candidate{Topo: *ot, TopoIdx: ti, HLayer: pr[0], VLayer: pr[1], WL: wl, Vias: bends * ld}
			c.Cost = c.WL + opt.ViaWeight*c.Vias
			c.Edges = make([]EdgeUse, 0, len(need))
			for _, e := range need {
				if int(e.Layer) == pairs[0][0] {
					e.Layer = int32(pr[0])
				} else {
					e.Layer = int32(pr[1])
				}
				c.Edges = append(c.Edges, e)
			}
			sortEdges(c.Edges)
			c.Masks, c.Heavy = wordMerge(c.Edges)
			out = append(out, c)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cost < out[j].Cost })
	return out
}

// refNeeds counts the track needs of a topology's canonical bit trees on
// layer pair (hl, vl) in a map and returns them sorted by (Layer, Idx).
func refNeeds(gr *grid.Grid, ot *ObjectTopology, hl, vl int) []EdgeUse {
	need := make(map[EdgeKey]int32)
	for _, t := range ot.BitTrees {
		for _, s := range t.Canon().Segs {
			l := vl
			if s.Horizontal() {
				l = hl
			}
			gr.SegEdges(l, s, func(idx int) { need[EdgeKey{l, idx}]++ })
		}
	}
	edges := make([]EdgeUse, 0, len(need))
	for k, n := range need {
		edges = append(edges, EdgeUse{Layer: int32(k.Layer), Idx: int32(k.Idx), N: n})
	}
	sortEdges(edges)
	return edges
}

func sortEdges(edges []EdgeUse) {
	slices.SortFunc(edges, func(a, b EdgeUse) int {
		return cmp.Or(cmp.Compare(a.Layer, b.Layer), cmp.Compare(a.Idx, b.Idx))
	})
}

// wordMerge returns the word masks of edges sorted by (Layer, Idx), never
// nil, and the edges needing two or more tracks, nil when none — the
// shapes Expand3D's candidates carry.
func wordMerge(edges []EdgeUse) (masks []WordMask, heavy []EdgeUse) {
	masks = []WordMask{}
	for _, e := range edges {
		w := e.Idx >> 6
		if n := len(masks); n > 0 && masks[n-1].Layer == e.Layer && masks[n-1].Word == w {
			masks[n-1].Bits |= 1 << (e.Idx & 63)
		} else {
			masks = append(masks, WordMask{Layer: e.Layer, Word: w, Bits: 1 << (e.Idx & 63)})
		}
		if e.N >= 2 {
			heavy = append(heavy, e)
		}
	}
	return masks, heavy
}

// refTrimDiverse is the map-based diversity trim that lived in the route
// package before the trim moved into Expand3D, kept verbatim.
func refTrimDiverse(cands []Candidate, maxN int) []Candidate {
	if len(cands) <= maxN {
		return cands
	}
	byTopo := make(map[int][]Candidate)
	var order []int
	for _, c := range cands { // already cost-sorted
		if _, seen := byTopo[c.TopoIdx]; !seen {
			order = append(order, c.TopoIdx)
		}
		byTopo[c.TopoIdx] = append(byTopo[c.TopoIdx], c)
	}
	out := make([]Candidate, 0, maxN)
	for round := 0; len(out) < maxN; round++ {
		added := false
		for _, ti := range order {
			if round < len(byTopo[ti]) && len(out) < maxN {
				out = append(out, byTopo[ti][round])
				added = true
			}
		}
		if !added {
			break
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cost < out[j].Cost })
	return out
}

// candsEqual is reflect.DeepEqual for candidate lists, spelled out per
// field because reflection over every edge dominates the sweep under the
// race detector. Slices must match in nil-ness as well as in contents.
func candsEqual(a, b []Candidate) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.TopoIdx != y.TopoIdx || x.HLayer != y.HLayer || x.VLayer != y.VLayer ||
			x.WL != y.WL || x.Vias != y.Vias || x.Cost != y.Cost ||
			!sliceEqual(x.Edges, y.Edges) || !sliceEqual(x.Masks, y.Masks) || !sliceEqual(x.Heavy, y.Heavy) ||
			!reflect.DeepEqual(x.Topo, y.Topo) {
			return false
		}
	}
	return true
}

func sliceEqual[E comparable](a, b []E) bool {
	return (a == nil) == (b == nil) && slices.Equal(a, b)
}

// checkCandidate verifies the layout invariants the solvers rely on: Edges
// strictly increasing in (Layer, Idx) on the candidate's two layers, Masks
// exactly the word-merge of Edges, and Heavy exactly the edges with N >= 2.
// (That Edges equals the map-based footprint of the canonical bit trees
// follows from the deep equality with refExpand3D.)
func checkCandidate(t *testing.T, c *Candidate, where string) {
	t.Helper()
	for k, e := range c.Edges {
		if int(e.Layer) != c.HLayer && int(e.Layer) != c.VLayer {
			t.Fatalf("%s: edge %d on layer %d, candidate layers %d/%d", where, k, e.Layer, c.HLayer, c.VLayer)
		}
		if k > 0 {
			p := c.Edges[k-1]
			if p.Layer > e.Layer || p.Layer == e.Layer && p.Idx >= e.Idx {
				t.Fatalf("%s: Edges not strictly increasing at %d: %v then %v", where, k, p, e)
			}
		}
	}
	masks, heavy := wordMerge(c.Edges)
	if !reflect.DeepEqual(masks, c.Masks) {
		t.Fatalf("%s: Masks %v, want the word-merge of Edges %v", where, c.Masks, masks)
	}
	if !reflect.DeepEqual(heavy, c.Heavy) {
		t.Fatalf("%s: Heavy %v, want %v", where, c.Heavy, heavy)
	}
}

// TestExpand3DMatchesReference runs Expand3D on every object of the
// Industry presets at two scales and requires, for several caps, that it
// deep-equals the reference trim of the reference full expansion, that it
// reports the full expansion's size as priced, and that every candidate
// keeps the layout invariants.
func TestExpand3DMatchesReference(t *testing.T) {
	if n := reflect.TypeOf(Candidate{}).NumField(); n != 10 {
		t.Fatalf("Candidate has %d fields; candsEqual compares 10", n)
	}
	scales := []float64{0.1, 0.2}
	if testing.Short() {
		scales = scales[:1]
	}
	objects, trimmed := 0, 0
	for _, scale := range scales {
		for n := 1; n <= 7; n++ {
			d := benchgen.Scale(benchgen.Industry(n), scale).Generate()
			gr := grid.New(d.Grid.W, d.Grid.H, grid.DefaultLayers(d.Grid.NumLayers, d.Grid.EdgeCap))
			for gi := range d.Groups {
				g := &d.Groups[gi]
				for _, obj := range ident.Partition(gi, g) {
					ots := ObjectTopologies(g, &obj, Options{})
					full := refExpand3D(gr, ots, Options{})
					objects++
					for _, maxN := range []int{12, 3, math.MaxInt} {
						got, expanded := Expand3D(gr, ots, Options{}, maxN)
						where := func() string { return fmt.Sprintf("Industry%d@%g group %d", n, scale, gi) }
						if expanded != len(full) {
							t.Fatalf("%s: expanded %d, reference priced %d", where(), expanded, len(full))
						}
						want := refTrimDiverse(full, maxN)
						if len(want) < len(full) {
							trimmed++
						}
						if !candsEqual(got, want) {
							t.Fatalf("%s cap %d: Expand3D differs from the reference trim of the full expansion", where(), maxN)
						}
						if maxN == math.MaxInt { // every other cap keeps a subset
							for k := range got {
								checkCandidate(t, &got[k], where())
							}
						}
					}
				}
			}
		}
	}
	if objects == 0 || trimmed == 0 {
		t.Fatalf("checked %d objects, %d trimmed expansions: the sweep lost coverage", objects, trimmed)
	}
}
