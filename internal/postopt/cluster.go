package postopt

import (
	"context"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/signal"
	"repro/internal/steiner"
	"repro/internal/topo"
)

// Options tunes the post-optimization stage.
type Options struct {
	// RegWeight scales the regularity term of the cluster pair cost.
	// Default 20.
	RegWeight float64
	// NoShare is the pair cost when topologies share no RC. Default 2000.
	NoShare float64
	// BendWeight is used for fallback per-bit Steiner trees. Default 2.
	BendWeight int
	// DistFrac is the source-to-sink deviation threshold as a fraction of
	// the group's maximum initial distance (the paper uses 50 %).
	// Default 0.5.
	DistFrac float64
}

func (o Options) withDefaults() Options {
	if o.RegWeight == 0 {
		o.RegWeight = 20
	}
	if o.NoShare == 0 {
		o.NoShare = 2000
	}
	if o.BendWeight == 0 {
		o.BendWeight = 2
	}
	if o.DistFrac == 0 {
		o.DistFrac = 0.5
	}
	return o
}

// ClusterStats summarizes one clustering pass.
type ClusterStats struct {
	// BitsRouted counts bits the pass managed to route.
	BitsRouted int
	// BitsLeft counts bits that stayed unrouted.
	BitsLeft int
	// Clusters counts the solution clusters created.
	Clusters int
}

// bitRef addresses one unrouted bit within a group: the owning object
// (problem-wide index), member position, and group-relative bit index.
type bitRef struct {
	obj, member, bit int
}

// cluster is Algorithm 3's working unit. Its id is the index of its first
// bit among the group's unrouted bits; merges append the partner's bits, so
// bits[0] — the representative — keeps that index. Only routed clusters
// merge, so an unrouted cluster is always a single bit.
type cluster struct {
	id     int
	bits   []bitRef
	routed bool
	cand   int // the representative's candidate (groupCands index) when routed
}

// clusterWork counts the work of a clustering pass (the
// postopt.cluster.* work counters).
type clusterWork struct {
	iterations, pairEvals, ratioEvals, treeFits int64
}

// ClusterAndRoute runs layer prediction plus bottom-up clustering
// (Algorithm 3) for every group that still has unrouted bits, treating
// each bit as an individual routing object for flexibility (Fig. 7). It
// mutates the routing and usage in place and returns statistics.
func ClusterAndRoute(p *route.Problem, r *route.Routing, u *grid.Usage, opt Options) ClusterStats {
	stats, _ := ClusterAndRouteCtx(context.Background(), p, r, u, opt)
	return stats
}

// ClusterAndRouteCtx is ClusterAndRoute honoring the context: cancellation
// is checked between groups, so the call returns promptly with ctx's error
// and the statistics of the groups already processed. The routing and usage
// stay consistent — a group is either fully clustered or untouched.
func ClusterAndRouteCtx(ctx context.Context, p *route.Problem, r *route.Routing, u *grid.Usage, opt Options) (ClusterStats, error) {
	opt = opt.withDefaults()
	var stats ClusterStats
	var work clusterWork
	err := obs.Do(ctx, obs.StageCluster, 0, func(ctx context.Context) error {
		for gi := range p.Design.Groups {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("postopt: cluster: %w", err)
			}
			if r.GroupRouted(gi) {
				continue
			}
			stats = addStats(stats, clusterGroup(p, r, u, gi, opt, &work))
		}
		return nil
	})
	if rec := obs.FromContext(ctx); rec != nil {
		rec.Add(obs.CounterClusterBitsRouted, int64(stats.BitsRouted))
		rec.Add(obs.CounterClusterBitsLeft, int64(stats.BitsLeft))
		rec.Add(obs.CounterClusterClusters, int64(stats.Clusters))
		rec.Add(obs.CounterClusterIterations, work.iterations)
		rec.Add(obs.CounterClusterPairEvals, work.pairEvals)
		rec.Add(obs.CounterClusterRatioEvals, work.ratioEvals)
		rec.Add(obs.CounterClusterTreeFits, work.treeFits)
	}
	return stats, err
}

func addStats(a, b ClusterStats) ClusterStats {
	a.BitsRouted += b.BitsRouted
	a.BitsLeft += b.BitsLeft
	a.Clusters += b.Clusters
	return a
}

// bitCandidates returns the candidate trees of one bit: its equivalent
// topologies from the object's distinct 2-D candidates plus a fallback
// fresh Steiner tree (line 1 of Algorithm 3).
func bitCandidates(p *route.Problem, ref bitRef, opt Options) []geom.Tree {
	seenTopo := map[int]bool{}
	var out []geom.Tree
	for _, c := range p.Cands[ref.obj] {
		if seenTopo[c.TopoIdx] {
			continue
		}
		seenTopo[c.TopoIdx] = true
		out = append(out, c.Topo.BitTrees[ref.member])
	}
	g := p.Group(ref.obj)
	bit := &g.Bits[ref.bit]
	fb := steiner.Iterated1Steiner(bit.PinLocs(), steiner.Options{BendWeight: opt.BendWeight})
	key := fb.String()
	dup := false
	for _, t := range out {
		if t.String() == key {
			dup = true
			break
		}
	}
	if !dup {
		out = append(out, fb)
	}
	return out
}

// groupCands is one group's clustering cost cache. Every candidate tree of
// every unrouted bit gets a dense index (bit i owns first[i]..first[i+1]-1)
// under which it stores what the pair costs need: wirelength, regularity
// shape and a fit bit. The regularity ratio of a candidate pair is a pure
// function of the two trees and bits, so it is computed at most once per
// group, on first use. Fit bits track route.TreeFits under the layer
// prediction: usage only grows inside clusterGroup, so a bit can only turn
// false, and after every commit only the still-true bits of still-unrouted
// bits are re-checked.
type groupCands struct {
	u      *grid.Usage
	hl, vl int
	opt    Options
	work   *clusterWork

	first  []int
	trees  []geom.Tree
	wl     []int
	shapes []*topo.Shape
	fits   []bool
	routed []bool // per bit
	// ratio memoizes topo.ShapeRatio per unordered candidate pair, the
	// pair x > y at x*(x-1)/2 + y; NaN until computed.
	ratio []float64
}

func newGroupCands(g *signal.Group, refs []bitRef, cands [][]geom.Tree, u *grid.Usage, hl, vl int, opt Options, work *clusterWork) *groupCands {
	gc := &groupCands{u: u, hl: hl, vl: vl, opt: opt, work: work,
		first: make([]int, len(refs)+1), routed: make([]bool, len(refs))}
	for i, ts := range cands {
		bit := &g.Bits[refs[i].bit]
		for _, t := range ts {
			gc.trees = append(gc.trees, t)
			gc.wl = append(gc.wl, t.WireLength())
			gc.shapes = append(gc.shapes, topo.NewShape(t, bit))
			gc.fits = append(gc.fits, true)
		}
		gc.first[i+1] = len(gc.trees)
	}
	n := len(gc.trees)
	gc.ratio = make([]float64, n*(n-1)/2)
	for i := range gc.ratio {
		gc.ratio[i] = math.NaN()
	}
	gc.refreshFits()
	return gc
}

// refreshFits re-checks the still-true fit bits of every unrouted bit's
// candidates against the current usage.
func (gc *groupCands) refreshFits() {
	for i, done := range gc.routed {
		if done {
			continue
		}
		for k := gc.first[i]; k < gc.first[i+1]; k++ {
			if gc.fits[k] {
				gc.work.treeFits++
				gc.fits[k] = route.TreeFits(gc.u, gc.trees[k], gc.hl, gc.vl)
			}
		}
	}
}

// pairRatio returns the regularity ratio of candidates x != y.
func (gc *groupCands) pairRatio(x, y int) float64 {
	if x < y {
		x, y = y, x
	}
	m := &gc.ratio[x*(x-1)/2+y]
	if math.IsNaN(*m) {
		gc.work.ratioEvals++
		*m = topo.ShapeRatio(gc.shapes[x], gc.shapes[y])
	}
	return *m
}

// regCost is the regularity term of the cluster pair cost for candidates
// x and y.
func (gc *groupCands) regCost(x, y int) float64 {
	return topo.PairIrregularity(gc.pairRatio(x, y), gc.opt.RegWeight, gc.opt.NoShare, 1, 0)
}

// pairCost evaluates the minimum achievable weighted cost of routing the
// pair (wirelength + regularity), along with the best candidate for each
// unrouted side (-1 for a routed side). ok is false when no legal option
// exists. Candidates are tried in order and only a strictly lower cost
// replaces the incumbent, so ties go to the earliest combination.
func (gc *groupCands) pairCost(a, b *cluster) (cost float64, ca, cb int, ok bool) {
	switch {
	case a.routed && b.routed:
		return gc.regCost(a.cand, b.cand), -1, -1, true
	case a.routed:
		cost, cb := gc.openCost(a, b)
		return cost, -1, cb, cb >= 0
	case b.routed:
		cost, ca := gc.openCost(b, a)
		return cost, ca, -1, ca >= 0
	}
	best, ca, cb := math.Inf(1), -1, -1
	for x := gc.first[a.id]; x < gc.first[a.id+1]; x++ {
		if !gc.fits[x] {
			continue
		}
		for y := gc.first[b.id]; y < gc.first[b.id+1]; y++ {
			if !gc.fits[y] {
				continue
			}
			if c := float64(gc.wl[x]+gc.wl[y]) + gc.regCost(x, y); c < best {
				best, ca, cb = c, x, y
			}
		}
	}
	return best, ca, cb, ca >= 0
}

// openCost prices a routed cluster against an unrouted one: the cheapest
// fitting candidate of the open side, or -1 when none fits.
func (gc *groupCands) openCost(routed, open *cluster) (float64, int) {
	best, bestK := math.Inf(1), -1
	for k := gc.first[open.id]; k < gc.first[open.id+1]; k++ {
		if !gc.fits[k] {
			continue
		}
		if c := float64(gc.wl[k]) + gc.regCost(routed.cand, k); c < best {
			best, bestK = c, k
		}
	}
	return best, bestK
}

// clusterGroup runs Algorithm 3 on one group.
func clusterGroup(p *route.Problem, r *route.Routing, u *grid.Usage, gi int, opt Options, work *clusterWork) ClusterStats {
	g := &p.Design.Groups[gi]

	// Collect unrouted bits with their owning objects.
	var refs []bitRef
	for _, oi := range p.GroupObjs[gi] {
		for k, bi := range p.Objects[oi].BitIdx {
			if !r.Bits[gi][bi].Routed {
				refs = append(refs, bitRef{oi, k, bi})
			}
		}
	}
	if len(refs) == 0 {
		return ClusterStats{}
	}

	// Candidate trees per bit and layer prediction (lines 1-2).
	cands := make([][]geom.Tree, len(refs))
	for i, ref := range refs {
		cands[i] = bitCandidates(p, ref, opt)
	}
	hl, vl := PredictLayers(u, cands)
	if hl < 0 || vl < 0 {
		return ClusterStats{BitsLeft: len(refs)}
	}
	gc := newGroupCands(g, refs, cands, u, hl, vl, opt, work)

	// Line 4: one cluster per bit.
	n := len(refs)
	clusters := make([]*cluster, n)
	for i, ref := range refs {
		clusters[i] = &cluster{id: i, bits: []bitRef{ref}}
	}

	routeCluster := func(c *cluster, k int) {
		c.routed = true
		c.cand = k
		t := gc.trees[k]
		route.AddTreeUsage(u, t, hl, vl, 1)
		r.Bits[gi][c.bits[0].bit] = route.BitRoute{Routed: true, Tree: t, HLayer: hl, VLayer: vl}
		gc.routed[c.id] = true
		gc.refreshFits()
	}

	// Lines 5-15: visit cluster pairs in minimum-cost order.
	visited := make([]bool, n*n)
	for {
		work.iterations++
		type pick struct {
			ai, bi int
			cost   float64
			ca, cb int
			ok     bool
		}
		best := pick{cost: math.Inf(1)}
		found := false
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				if visited[clusters[i].id*n+clusters[j].id] {
					continue
				}
				found = true
				work.pairEvals++
				c, ca, cb, ok := gc.pairCost(clusters[i], clusters[j])
				if ok && c < best.cost {
					best = pick{i, j, c, ca, cb, ok}
				}
			}
		}
		if !found || !best.ok {
			// Done, or every unvisited pair is infeasible.
			break
		}
		a, b := clusters[best.ai], clusters[best.bi]
		if !a.routed && len(gc.trees[best.ca].Segs) > 0 {
			routeCluster(a, best.ca)
		}
		// Routing a may have consumed tracks b's tree needs (overlapping
		// shifted topologies); the refreshed fit bit re-verifies b before
		// it commits.
		if !b.routed && len(gc.trees[best.cb].Segs) > 0 && gc.fits[best.cb] {
			routeCluster(b, best.cb)
		}
		visited[a.id*n+b.id] = true
		// Lines 11-13: merge equal-topology clusters.
		if a.routed && b.routed && gc.pairRatio(a.cand, b.cand) == 1 {
			a.bits = append(a.bits, b.bits...)
			clusters = append(clusters[:best.bi], clusters[best.bi+1:]...)
		}
	}

	// Any cluster still unrouted (singleton group or all pairs infeasible):
	// try a direct cheapest-feasible route.
	for _, c := range clusters {
		if c.routed {
			continue
		}
		bestK, bestWL := -1, math.MaxInt
		for k := gc.first[c.id]; k < gc.first[c.id+1]; k++ {
			if gc.fits[k] && gc.wl[k] < bestWL {
				bestWL, bestK = gc.wl[k], k
			}
		}
		if bestK >= 0 {
			routeCluster(c, bestK)
		}
	}

	// Record solution objects for routed clusters and compute stats.
	var stats ClusterStats
	for _, c := range clusters {
		if !c.routed {
			stats.BitsLeft += len(c.bits)
			continue
		}
		stats.BitsRouted += len(c.bits)
		stats.Clusters++
		so := route.SolutionObject{
			RepTree: gc.trees[c.cand],
			RepBit:  c.bits[0].bit,
			HLayer:  hl,
			VLayer:  vl,
		}
		// BitIdx stays in cluster-member order: PinMap rows are built in
		// the same order and the two must correspond index-for-index.
		for _, ref := range c.bits {
			so.BitIdx = append(so.BitIdx, ref.bit)
		}
		so.PinMap = clusterPinMap(p, c)
		r.Objects[gi] = append(r.Objects[gi], so)
	}
	return stats
}

// clusterPinMap derives per-member pin maps for a cluster whose bits all
// come from one identification object; it returns nil otherwise (bits of
// different objects have no canonical pin correspondence).
func clusterPinMap(p *route.Problem, c *cluster) [][]int {
	obj := c.bits[0].obj
	for _, ref := range c.bits[1:] {
		if ref.obj != obj {
			return nil
		}
	}
	o := &p.Objects[obj]
	// Representative of the cluster is its first bit; express every
	// member's pins relative to it using the object-level maps.
	repMember := c.bits[0].member
	repMap := o.PinMap[repMember] // object-rep pin -> cluster-rep pin
	inv := make([]int, len(repMap))
	for objPin, clusterPin := range repMap {
		inv[clusterPin] = objPin
	}
	maps := make([][]int, len(c.bits))
	for k, ref := range c.bits {
		m := make([]int, len(repMap))
		for clusterPin := range m {
			m[clusterPin] = o.PinMap[ref.member][inv[clusterPin]]
		}
		maps[k] = m
	}
	return maps
}
