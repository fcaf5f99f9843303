// Pair-cost kernel: the regularity ratios entering c(i,j,p,q) depend only
// on the 2-D topology pair behind the two candidates, so they are stored
// as flattened, immutable per-pair tables instead of the per-lookup hashed
// map the solvers previously shared. Tables for normally-sized objects are
// filled once at build time (in parallel); oversized pairs keep a
// sync.Once-guarded lazy path so huge groups neither stall the build nor
// race when concurrent solver legs touch them first.
package route

import (
	"context"
	"sync"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/topo"
)

// pairKey identifies an unordered same-group object pair (lo < hi).
type pairKey struct{ lo, hi int }

// pairTab is the dense ratio table of one object pair: tab[ti*nTopo[hi]+tq]
// is the backbone regularity ratio between 2-D topology ti of object lo and
// 2-D topology tq of object hi.
type pairTab struct {
	once sync.Once
	tab  []float64
}

// kernel is the precomputed pair-cost state of a problem. After Build it is
// only ever read (or lazily filled behind each table's sync.Once), so the
// solvers may call PairCost from any number of goroutines.
type kernel struct {
	// nTopo[i] is 1 + the largest TopoIdx among object i's candidates
	// (0 when the object has none).
	nTopo []int
	// backbones[i][ti] points at the backbone tree of 2-D topology ti of
	// object i, nil when no surviving candidate references ti.
	backbones [][]*geom.Tree
	// pairs holds one table per partnered object pair.
	pairs map[pairKey]*pairTab
}

// buildKernel indexes every object's 2-D topologies and precomputes the
// ratio tables of all partnered pairs up to the lazy-threshold, fanning the
// table fills out across the build workers.
func (p *Problem) buildKernel(ctx context.Context, workers int) error {
	n := len(p.Objects)
	p.kern.nTopo = make([]int, n)
	p.kern.backbones = make([][]*geom.Tree, n)
	for i := range p.Cands {
		nt := 0
		for j := range p.Cands[i] {
			if ti := p.Cands[i][j].TopoIdx; ti+1 > nt {
				nt = ti + 1
			}
		}
		p.kern.nTopo[i] = nt
		bbs := make([]*geom.Tree, nt)
		for j := range p.Cands[i] {
			if ti := p.Cands[i][j].TopoIdx; bbs[ti] == nil {
				bbs[ti] = &p.Cands[i][j].Topo.Backbone
			}
		}
		p.kern.backbones[i] = bbs
	}

	p.kern.pairs = make(map[pairKey]*pairTab)
	var eager []pairKey
	for i := 0; i < n; i++ {
		for _, q := range p.Partners(i) {
			if q <= i {
				continue
			}
			k := pairKey{i, q}
			if _, seen := p.kern.pairs[k]; seen {
				continue
			}
			p.kern.pairs[k] = &pairTab{}
			if p.kern.nTopo[i]*p.kern.nTopo[q] <= p.Opt.LazyKernelCells {
				eager = append(eager, k)
			}
		}
	}
	if rec := obs.FromContext(ctx); rec != nil {
		rec.Add(obs.CounterKernelPairsEager, int64(len(eager)))
		rec.Add(obs.CounterKernelPairsLazy, int64(len(p.kern.pairs)-len(eager)))
	}
	return parallelFor(ctx, workers, len(eager), func(x int) {
		p.fillPair(eager[x], p.kern.pairs[eager[x]])
	})
}

// fillPair computes (at most once) and returns t, the ratio table of pair k.
func (p *Problem) fillPair(k pairKey, t *pairTab) *pairTab {
	t.once.Do(func() {
		t.tab = topo.RatioTable(
			p.kern.backbones[k.lo], p.RepBit(k.lo),
			p.kern.backbones[k.hi], p.RepBit(k.hi),
		)
	})
	return t
}

// pairRatio returns the regularity ratio between 2-D topology ti of object
// i and tq of object q (same group, i != q): one map lookup plus an array
// indexing for precomputed pairs, a one-time lazy fill for oversized ones,
// and a direct computation for pairs outside the Partners neighborhood
// (which the solvers never price, but direct callers may probe).
func (p *Problem) pairRatio(i, ti, q, tq int) float64 {
	if q < i {
		i, ti, q, tq = q, tq, i, ti
	}
	k := pairKey{i, q}
	t := p.kern.pairs[k]
	if t == nil {
		return topo.Ratio(
			*p.kern.backbones[i][ti], p.RepBit(i),
			*p.kern.backbones[q][tq], p.RepBit(q),
		)
	}
	return p.fillPair(k, t).tab[ti*p.kern.nTopo[q]+tq]
}
