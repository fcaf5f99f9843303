package topo

import (
	"math"
	"slices"
	"sort"

	"repro/internal/geom"
	"repro/internal/signal"
)

// RCs returns the rectilinear connections of the topology: canonical
// segments additionally split at the bit's pin locations, so every RC runs
// between two features (pins, corners, or junctions).
func RCs(t geom.Tree, pins []geom.Point) []geom.Seg {
	var out []geom.Seg
	for _, s := range t.Canon().Segs {
		n := s.Norm()
		cuts := []geom.Point{n.A, n.B}
		for _, p := range pins {
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

// Shape is one side of the regularity ratio (Eq. 2), precomputed for a
// (topology, bit) pair: its RCs, its features (pins and bending points,
// i.e. the distinct RC endpoints) sorted by location with their
// driver-weighted similarity vectors (§III-B3), and the RC set as a
// feature adjacency matrix. A shape depends on nothing but the tree and
// the bit, so callers that score one topology against many build it once.
type Shape struct {
	// rcs holds each RC as the indices of its two endpoint features.
	rcs [][2]int32
	// svs is the weighted SV of each feature, in location order.
	svs []signal.SV
	// adj[i*len(svs)+j] is set when features i and j bound an RC.
	adj []bool
}

// NewShape precomputes the shape of topology t routed for bit.
func NewShape(t geom.Tree, bit *signal.Bit) *Shape {
	rcs := RCs(t, bit.PinLocs())
	if len(rcs) == 0 {
		return &Shape{}
	}
	pts := make([]geom.Point, 0, 2*len(rcs))
	for _, s := range rcs {
		pts = append(pts, s.A, s.B)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Less(pts[j]) })
	pts = slices.Compact(pts)
	idx := func(p geom.Point) int32 {
		return int32(sort.Search(len(pts), func(i int) bool { return !pts[i].Less(p) }))
	}

	w := signal.DriverWeightFor(bit)
	pinIdx := make(map[geom.Point]int, len(bit.Pins))
	for i, p := range bit.Pins {
		if _, seen := pinIdx[p.Loc]; !seen {
			pinIdx[p.Loc] = i
		}
	}
	sh := &Shape{
		rcs: make([][2]int32, len(rcs)),
		svs: make([]signal.SV, len(pts)),
		adj: make([]bool, len(pts)*len(pts)),
	}
	for i, p := range pts {
		if pi, isPin := pinIdx[p]; isPin {
			sh.svs[i] = bit.WeightedPinSV(pi, w)
		} else {
			sh.svs[i] = signal.WeightedPointSV(p, bit, w)
		}
	}
	for k, s := range rcs {
		a, b := idx(s.A), idx(s.B)
		sh.rcs[k] = [2]int32{a, b}
		sh.adj[int(a)*len(pts)+int(b)] = true
		sh.adj[int(b)*len(pts)+int(a)] = true
	}
	return sh
}

// Ratio computes the regularity ratio of two topologies (Eq. 2): pins and
// bending points are matched across the topologies by closest weighted SV;
// the ratio is the number of RCs whose two endpoints map onto an RC of the
// other topology, divided by the smaller RC count. The result is symmetric
// and lies in [0, 1]; 1 means the topologies share one structure.
func Ratio(t1 geom.Tree, bit1 *signal.Bit, t2 geom.Tree, bit2 *signal.Bit) float64 {
	return ShapeRatio(NewShape(t1, bit1), NewShape(t2, bit2))
}

// ShapeRatio is Ratio on precomputed shapes.
func ShapeRatio(s1, s2 *Shape) float64 {
	if len(s1.rcs) == 0 || len(s2.rcs) == 0 {
		if len(s1.rcs) == 0 && len(s2.rcs) == 0 {
			return 1
		}
		return 0
	}
	matched := max(matchedRCs(s1, s2), matchedRCs(s2, s1))
	minRC := min(len(s1.rcs), len(s2.rcs))
	matched = min(matched, minRC)
	return float64(matched) / float64(minRC)
}

// matchedRCs maps every feature of s1 to its closest-SV feature of s2
// (the first in location order on ties) and counts the RCs of s1 whose
// mapped endpoints form an RC of s2.
func matchedRCs(s1, s2 *Shape) int {
	var buf [64]int32
	mapped := buf[:0]
	for _, sv := range s1.svs {
		best := 0
		bestD := sv.L1(s2.svs[0])
		for i := 1; i < len(s2.svs); i++ {
			if d := sv.L1(s2.svs[i]); d < bestD {
				best, bestD = i, d
			}
		}
		mapped = append(mapped, int32(best))
	}
	n2 := len(s2.svs)
	count := 0
	for _, rc := range s1.rcs {
		a, b := mapped[rc[0]], mapped[rc[1]]
		if a != b && s2.adj[int(a)*n2+int(b)] {
			count++
		}
	}
	return count
}

// RatioTable computes the dense table of regularity ratios between every
// backbone pair of two objects: entry [i*len(b2)+j] is Ratio(b1[i], bit1,
// b2[j], bit2). Nil backbones (2-D topologies that produced no surviving
// candidate) yield NaN entries, which callers must never index — the
// corresponding topology pair cannot be selected.
func RatioTable(b1 []*geom.Tree, bit1 *signal.Bit, b2 []*geom.Tree, bit2 *signal.Bit) []float64 {
	s2 := make([]*Shape, len(b2))
	for j, t2 := range b2 {
		if t2 != nil {
			s2[j] = NewShape(*t2, bit2)
		}
	}
	tab := make([]float64, len(b1)*len(b2))
	for i, t1 := range b1 {
		row := tab[i*len(b2) : (i+1)*len(b2)]
		if t1 == nil {
			for j := range row {
				row[j] = math.NaN()
			}
			continue
		}
		s1 := NewShape(*t1, bit1)
		for j := range row {
			if s2[j] == nil {
				row[j] = math.NaN()
				continue
			}
			row[j] = ShapeRatio(s1, s2[j])
		}
	}
	return tab
}

// PairIrregularity converts a regularity ratio into the cost contribution
// c(i,j,p,q) of formulation (3a): the reciprocal of the ratio, scaled by
// weight, with noShare charged when the topologies share no RCs at all
// (a large penalty that must stay below the non-routing penalty M), plus a
// layer-difference penalty when the shared trunks land on non-adjacent
// layers.
func PairIrregularity(ratio float64, weight float64, noShare float64, layerDist int, layerPenalty float64) float64 {
	if ratio <= 0 {
		return noShare + layerPenalty*float64(layerDist)
	}
	cost := weight * (1/ratio - 1)
	if layerDist > 1 {
		cost += layerPenalty * float64(layerDist-1)
	}
	return cost
}
