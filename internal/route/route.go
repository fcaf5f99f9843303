// Package route turns a design into Streak's candidate-selection problem
// (formulation (3) in the paper): it partitions groups into objects,
// generates 3-D candidates for every object, prices candidates (c(i,j))
// and pairwise irregularity (c(i,j,p,q)), and provides assignment legality
// and cost evaluation shared by the ILP and primal-dual solvers.
package route

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/ident"
	"repro/internal/obs"
	"repro/internal/signal"
	"repro/internal/topo"
)

// Options tunes problem construction.
type Options struct {
	// Topo tunes backbone and candidate generation.
	Topo topo.Options
	// M is the non-routing penalty of formulation (3a). Default 1e6.
	M float64
	// RegWeight scales the 1/ratio irregularity cost. Default 20.
	RegWeight float64
	// NoShare is the penalty for topology pairs sharing no RC; it must
	// stay below M so routability keeps first priority. Default 2000.
	NoShare float64
	// LayerPenalty is charged per layer of distance between the shared
	// trunks of two candidates. Default 4.
	LayerPenalty float64
	// MaxCandidates caps the 3-D candidates kept per object. Default 8.
	MaxCandidates int
	// PairNeighbors bounds, per object, how many same-group neighbor
	// objects contribute pair terms (objects are neighbored in index
	// order). Zero means all pairs. Large multipin groups otherwise
	// explode quadratically. Default 4.
	PairNeighbors int
	// Workers sizes the worker pool used for candidate generation and the
	// pair-cost kernel fill. Zero (or negative) means
	// runtime.GOMAXPROCS(0); 1 forces a sequential build. Results are
	// bit-identical for every worker count.
	Workers int
	// LazyKernelCells is the per-pair table size (in cells) above which
	// the pair-cost kernel defers the ratio computation to first use
	// instead of filling it at build time. Default 4096; set negative to
	// make every table lazy.
	LazyKernelCells int
}

func (o Options) withDefaults() Options {
	if o.M == 0 {
		o.M = 1e6
	}
	if o.RegWeight == 0 {
		o.RegWeight = 20
	}
	if o.NoShare == 0 {
		o.NoShare = 2000
	}
	if o.LayerPenalty == 0 {
		o.LayerPenalty = 4
	}
	if o.MaxCandidates == 0 {
		o.MaxCandidates = 12
	}
	if o.PairNeighbors == 0 {
		o.PairNeighbors = 4
	}
	if o.LazyKernelCells == 0 {
		o.LazyKernelCells = 4096
	}
	return o
}

// Problem is the built selection problem.
type Problem struct {
	// Design is the input design.
	Design *signal.Design
	// Grid is the routing grid with blockages applied.
	Grid *grid.Grid
	// Objects lists every routing object across all groups.
	Objects []ident.Object
	// Cands[i] are the 3-D candidates of object i, sorted by cost.
	Cands [][]topo.Candidate
	// GroupObjs[g] lists the object indices belonging to group g.
	GroupObjs [][]int
	// Opt holds the options the problem was built with.
	Opt Options

	// kern is the precomputed pair-cost kernel (see kernel.go).
	kern kernel
	// bitObj indexes (group index, bit index) to the owning object and the
	// bit's position within it, replacing the linear all-objects scan that
	// metrics and refinement performed per bit.
	bitObj map[[2]int]bitRef
	// partners[partnerOff[i]:partnerOff[i+1]] is Partners(i), computed once
	// per build so the solvers' hot loops read it without allocating.
	partners   []int
	partnerOff []int32

	// usagePool hands out pooled Usage trackers for Grid (see UsagePool).
	usagePool *grid.UsagePool
	poolOnce  sync.Once
}

// UsagePool returns the problem's shared pool of Usage trackers for Grid.
// Solvers draw per-solve scratch from it so steady-state serving (streakd
// answering request after request on one problem) reuses the per-layer edge
// arrays instead of reallocating them every solve. Safe for concurrent use.
func (p *Problem) UsagePool() *grid.UsagePool {
	p.poolOnce.Do(func() { p.usagePool = grid.NewUsagePool(p.Grid) })
	return p.usagePool
}

// bitRef locates one bit inside the object list: object index plus the
// bit's position in that object's BitIdx.
type bitRef struct{ obj, k int }

// NewGrid materializes the design's grid spec, applying blockages.
func NewGrid(d *signal.Design) *grid.Grid {
	g := grid.New(d.Grid.W, d.Grid.H, grid.DefaultLayers(d.Grid.NumLayers, d.Grid.EdgeCap))
	for _, b := range d.Grid.Blockages {
		g.SetRegionCap(b.Layer, b.Rect, b.Cap)
	}
	return g
}

// Build constructs the selection problem for a design.
func Build(d *signal.Design, opt Options) (*Problem, error) {
	return BuildCtx(context.Background(), d, opt)
}

// BuildCtx is Build honoring the context. Construction runs in three
// stages: a sequential identification pass, a parallel per-object
// candidate-generation fan-out (topology generation plus 3-D expansion,
// partitioned across Options.Workers goroutines and stitched back by
// object index, so the result is bit-identical to a sequential build), and
// a parallel pair-cost kernel fill. Cancellation stops the fan-out between
// objects and returns ctx's error.
func BuildCtx(ctx context.Context, d *signal.Design, opt Options) (*Problem, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if err := faultinject.Fire(ctx, faultinject.RouteBuild); err != nil {
		return nil, fmt.Errorf("route: %w", err)
	}
	opt = opt.withDefaults()
	p := &Problem{
		Design:    d,
		Grid:      NewGrid(d),
		Opt:       opt,
		GroupObjs: make([][]int, len(d.Groups)),
	}
	for gi := range d.Groups {
		for _, o := range ident.Partition(gi, &d.Groups[gi]) {
			idx := len(p.Objects)
			p.Objects = append(p.Objects, o)
			p.GroupObjs[gi] = append(p.GroupObjs[gi], idx)
		}
	}
	workers := opt.WorkerCount()
	p.Cands = make([][]topo.Candidate, len(p.Objects))
	rec := obs.FromContext(ctx)
	var arenaGets0, arenaFresh0 int64
	if rec != nil {
		arenaGets0, arenaFresh0 = geom.ArenaCounters()
	}
	err := obs.Do(ctx, obs.StageBuild, workers, func(ctx context.Context) error {
		return parallelFor(ctx, workers, len(p.Objects), func(i int) {
			obj := &p.Objects[i]
			g := &d.Groups[obj.GroupIdx]
			if rec == nil {
				ots := topo.ObjectTopologies(g, obj, opt.Topo)
				cands := topo.Expand3D(p.Grid, ots, opt.Topo)
				p.Cands[i] = trimDiverse(cands, opt.MaxCandidates)
				return
			}
			// Traced build: time the 2-D topology generation and the 3-D
			// expansion separately, one event pair per object.
			t0 := time.Now()
			ots := topo.ObjectTopologies(g, obj, opt.Topo)
			t1 := time.Now()
			rec.EmitAt("build.topo", "build", t0, t1.Sub(t0), obs.Args{
				"object": float64(i), "topologies": float64(len(ots)),
			})
			cands := topo.Expand3D(p.Grid, ots, opt.Topo)
			p.Cands[i] = trimDiverse(cands, opt.MaxCandidates)
			rec.EmitAt("build.expand", "build", t1, time.Since(t1), obs.Args{
				"object": float64(i), "candidates": float64(len(p.Cands[i])),
			})
		})
	})
	if err != nil {
		return nil, fmt.Errorf("route: %w", err)
	}
	if rec != nil {
		total := 0
		for i := range p.Cands {
			total += len(p.Cands[i])
		}
		rec.Add(obs.CounterBuildObjects, int64(len(p.Objects)))
		rec.Add(obs.CounterBuildCandidates, int64(total))
		// Pooled-vs-fresh geometry-arena split for this build. The global
		// counters are shared across concurrent builds, so the deltas are
		// attributions, not exact per-build counts; in the common one-build-
		// per-recorder case they are exact.
		gets1, fresh1 := geom.ArenaCounters()
		rec.Add(obs.CounterBuildArenaPoolGets, gets1-arenaGets0)
		rec.Add(obs.CounterBuildArenaPoolFresh, fresh1-arenaFresh0)
	}
	p.indexBits()
	p.indexPartners()
	if err := obs.Do(ctx, obs.StageKernel, workers, func(ctx context.Context) error {
		return p.buildKernel(ctx, workers)
	}); err != nil {
		return nil, fmt.Errorf("route: %w", err)
	}
	return p, nil
}

// indexBits builds the (group, bit) -> object lookup behind BitTree.
func (p *Problem) indexBits() {
	p.bitObj = make(map[[2]int]bitRef)
	for i := range p.Objects {
		obj := &p.Objects[i]
		for k, bi := range obj.BitIdx {
			key := [2]int{obj.GroupIdx, bi}
			if _, dup := p.bitObj[key]; !dup {
				p.bitObj[key] = bitRef{i, k}
			}
		}
	}
}

// trimDiverse caps the candidate list at maxN while keeping topology
// diversity: candidates are taken round-robin across 2-D topologies in
// cost order, so a cheap topology's layer variants cannot crowd out the
// detour topologies the solver needs under congestion.
func trimDiverse(cands []topo.Candidate, maxN int) []topo.Candidate {
	if len(cands) <= maxN {
		return cands
	}
	byTopo := make(map[int][]topo.Candidate)
	var order []int
	for _, c := range cands { // already cost-sorted
		if _, seen := byTopo[c.TopoIdx]; !seen {
			order = append(order, c.TopoIdx)
		}
		byTopo[c.TopoIdx] = append(byTopo[c.TopoIdx], c)
	}
	out := make([]topo.Candidate, 0, maxN)
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

// Group returns the signal group owning object i.
func (p *Problem) Group(i int) *signal.Group {
	return &p.Design.Groups[p.Objects[i].GroupIdx]
}

// RepBit returns the representative bit of object i.
func (p *Problem) RepBit(i int) *signal.Bit {
	return p.Objects[i].RepBit(p.Group(i))
}

// Cost returns c(i,j): the wirelength-plus-via cost of candidate j of
// object i.
func (p *Problem) Cost(i, j int) float64 {
	return float64(p.Cands[i][j].Cost)
}

// Partners returns the same-group objects that contribute pair terms with
// object i, respecting the PairNeighbors bound, in group order. The slice
// is shared problem state: callers must not modify it.
func (p *Problem) Partners(i int) []int {
	lo, hi := p.partnerOff[i], p.partnerOff[i+1]
	return p.partners[lo:hi:hi]
}

// indexPartners computes every object's partner list (see Partners) into
// one flat CSR slice: a counting pass, a prefix sum, a fill.
func (p *Problem) indexPartners() {
	each := func(fn func(i, q int)) {
		for _, objs := range p.GroupObjs {
			for pos, i := range objs {
				for k, q := range objs {
					if k != pos && (p.Opt.PairNeighbors <= 0 || iabs(k-pos) <= p.Opt.PairNeighbors) {
						fn(i, q)
					}
				}
			}
		}
	}
	off := make([]int32, len(p.Objects)+1)
	each(func(i, _ int) { off[i+1]++ })
	for i := range p.Objects {
		off[i+1] += off[i]
	}
	flat := make([]int, off[len(p.Objects)])
	fill := append([]int32(nil), off[:len(p.Objects)]...)
	each(func(i, q int) {
		flat[fill[i]] = q
		fill[i]++
	})
	p.partners, p.partnerOff = flat, off
}

// PairCost returns c(i,j,p,q) of formulation (3a): the irregularity cost of
// simultaneously selecting candidate j of object i and candidate r of
// object q. Objects in different groups never pay pair costs. The
// regularity ratio behind the cost comes from the precomputed pair-cost
// kernel (two array indexings per lookup; see kernel.go), so the method is
// safe to call from concurrent solver legs.
func (p *Problem) PairCost(i, j, q, r int) float64 {
	if p.Objects[i].GroupIdx != p.Objects[q].GroupIdx || i == q {
		return 0
	}
	ratio := p.pairRatio(i, p.Cands[i][j].TopoIdx, q, p.Cands[q][r].TopoIdx)
	ld := layerDist(&p.Cands[i][j], &p.Cands[q][r])
	return topo.PairIrregularity(ratio, p.Opt.RegWeight, p.Opt.NoShare, ld, p.Opt.LayerPenalty)
}

// layerDist measures how far apart the trunks of two candidates sit in the
// metal stack.
func layerDist(a, b *topo.Candidate) int {
	return iabs(a.HLayer-b.HLayer) + iabs(a.VLayer-b.VLayer)
}

// Assignment selects one candidate per object (or -1 for unrouted).
type Assignment struct {
	// Choice[i] is the selected candidate index of object i, or -1.
	Choice []int
}

// NewAssignment returns an all-unrouted assignment for the problem.
func (p *Problem) NewAssignment() Assignment {
	a := Assignment{Choice: make([]int, len(p.Objects))}
	for i := range a.Choice {
		a.Choice[i] = -1
	}
	return a
}

// RoutedObjects counts objects with a selected candidate.
func (a Assignment) RoutedObjects() int {
	n := 0
	for _, c := range a.Choice {
		if c >= 0 {
			n++
		}
	}
	return n
}

// Usage accumulates the track usage of the assignment on a fresh tracker.
func (p *Problem) Usage(a Assignment) *grid.Usage {
	u := grid.NewUsage(p.Grid)
	p.AddUsage(a, u, 1)
	return u
}

// AddUsage applies (delta=+1) or removes (delta=-1) the assignment's track
// usage on an existing tracker.
func (p *Problem) AddUsage(a Assignment, u *grid.Usage, delta int) {
	for i, c := range a.Choice {
		if c < 0 {
			continue
		}
		for _, e := range p.Cands[i][c].Edges {
			u.Add(int(e.Layer), int(e.Idx), int(e.N)*delta)
		}
	}
}

// Legal reports whether the assignment satisfies every edge capacity
// (constraint (3c)); the returned error pinpoints the first overflow.
func (p *Problem) Legal(a Assignment) error {
	if len(a.Choice) != len(p.Objects) {
		return fmt.Errorf("route: assignment covers %d of %d objects", len(a.Choice), len(p.Objects))
	}
	u := p.Usage(a)
	if u.Overflow() == 0 {
		return nil
	}
	for l := range p.Grid.Layers {
		for idx := 0; idx < p.Grid.EdgeCount(l); idx++ {
			if u.Avail(l, idx) < 0 {
				x, y := p.Grid.EdgeCell(l, idx)
				return fmt.Errorf("route: edge (%d,%d) layer %d overflows by %d", x, y, l, -u.Avail(l, idx))
			}
		}
	}
	return nil
}

// CandidateFits reports whether candidate j of object i fits the remaining
// capacity in u. The check intersects the candidate's word masks against
// the tracker's blocked-edge bitset — O(occupied edges / 64) word-ANDs —
// and falls back to a scalar availability check only for the (rare) edges
// needing two or more tracks.
func (p *Problem) CandidateFits(i, j int, u *grid.Usage) bool {
	c := &p.Cands[i][j]
	layer := int32(-1)
	var words []uint64
	for _, m := range c.Masks {
		if m.Layer != layer {
			layer = m.Layer
			words = u.BlockedWords(int(layer))
		}
		if words[m.Word]&m.Bits != 0 {
			return false
		}
	}
	for _, e := range c.Heavy {
		if u.Avail(int(e.Layer), int(e.Idx)) < int(e.N) {
			return false
		}
	}
	return true
}

// ObjectiveValue evaluates formulation (3a) for the assignment: candidate
// costs, M per unrouted object, and pair irregularity over same-group
// partner pairs (each unordered pair counted once).
func (p *Problem) ObjectiveValue(a Assignment) float64 {
	total := 0.0
	for i, c := range a.Choice {
		if c < 0 {
			total += p.Opt.M
			continue
		}
		total += p.Cost(i, c)
		for _, q := range p.Partners(i) {
			if q > i && a.Choice[q] >= 0 {
				total += p.PairCost(i, c, q, a.Choice[q])
			}
		}
	}
	return total
}

// BitTree returns the routed tree of a specific bit under the assignment,
// or nil when its object is unrouted or the bit is unknown. The bit is
// addressed by group and bit index and resolved through the prebuilt
// (group, bit) -> object index, so per-bit callers (metrics, refinement)
// no longer scan every object.
func (p *Problem) BitTree(a Assignment, groupIdx, bitIdx int) *geom.Tree {
	ref, ok := p.bitObj[[2]int{groupIdx, bitIdx}]
	if !ok || a.Choice[ref.obj] < 0 {
		return nil
	}
	t := p.Cands[ref.obj][a.Choice[ref.obj]].Topo.BitTrees[ref.k]
	return &t
}

func iabs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
