// Package pd implements Streak's primal-dual selection algorithm
// (Algorithm 2, §III-D). Starting from the all-zero (primal infeasible,
// dual feasible) solution it repeatedly commits the cheapest remaining
// candidate — cost c(i,j) plus the linearized pair cost c'(i,j) of Eq. (4)
// — updates the residual edge capacities, prunes candidates the update made
// infeasible, and marks objects whose candidate set emptied as unrouted.
// Edge capacity constraints hold at every step by construction.
package pd

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/topo"
)

// Result carries the primal-dual outcome.
type Result struct {
	// Assignment is the selected candidate per object (-1 for unrouted).
	Assignment route.Assignment
	// Objective is the formulation (3a) value of the assignment.
	Objective float64
	// Runtime is the wall-clock solve time.
	Runtime time.Duration
	// Iterations counts committed objects (routed or abandoned).
	Iterations int
}

// Solve runs Algorithm 2 on the problem.
func Solve(p *route.Problem) Result {
	r, _ := SolveCtx(context.Background(), p) // background ctx never cancels
	return r
}

// SolveCtx is Solve honoring the context: cancellation (or an expired
// deadline) is checked before every commit iteration, so the call returns
// promptly with ctx's error and the partial assignment committed so far.
// Edge capacities hold at every step, so the partial result is legal:
// committed objects carry their candidate index, every uncommitted object
// stays at -1, and Result.Objective is formulation (3a) evaluated over
// exactly that partial assignment.
func SolveCtx(ctx context.Context, p *route.Problem) (Result, error) {
	var res Result
	err := obs.Do(ctx, obs.StagePD, p.Opt.WorkerCount(), func(ctx context.Context) error {
		var err error
		res, err = solveCtx(ctx, p)
		return err
	})
	return res, err
}

// solveCtx is the span-free body of SolveCtx (Algorithm 2).
//
// The loop is incremental but selects exactly what a full rescan would: the
// line-6 argmin reads per-object cached minima that are re-priced only when
// their inputs changed (see selector), and the line-9 prune re-checks only
// the candidates sharing a 64-edge word with an edge the commit left short
// of some candidate's track need (see wordIndex.shortUsers).
func solveCtx(ctx context.Context, p *route.Problem) (Result, error) {
	start := time.Now()
	if err := faultinject.Fire(ctx, faultinject.PDSolve); err != nil {
		return Result{}, fmt.Errorf("pd: %w", err)
	}
	pool := p.UsagePool()
	// Counter snapshot precedes the first Get so the solve's own
	// acquisitions are part of the reported delta.
	poolGets0, poolFresh0 := pool.Counters()
	u := pool.Get()
	defer pool.Put(u)

	s := newSelector(p, u)
	a := s.a
	idx := newWordIndex(p)
	workers := p.Opt.WorkerCount()
	var pruneRefs []candRef // reused across commits
	// mark dedups the recheck set per commit: mark[cand global id] == epoch
	// means the candidate is already queued this round.
	mark := make([]int32, len(idx.refs))
	epoch := int32(0)

	iterations := 0
	rec := obs.FromContext(ctx)
	var pruneChecked, pruneSurvivors int64
	defer func() {
		if rec == nil {
			return
		}
		rec.Add(obs.CounterPDIterations, int64(iterations))
		rec.Add(obs.CounterPDRouted, int64(a.RoutedObjects()))
		rec.Add(obs.CounterPDPruneChecked, pruneChecked)
		rec.Add(obs.CounterPDPruneSurvivors, pruneSurvivors)
		rec.Add(obs.CounterPDPriceEvals, s.priceEvals)
		gets, fresh := pool.Counters()
		rec.Add(obs.CounterPDUsagePoolGets, gets-poolGets0)
		rec.Add(obs.CounterPDUsagePoolFresh, fresh-poolFresh0)
	}()
	result := func() Result {
		return Result{
			Assignment: a,
			Objective:  p.ObjectiveValue(a),
			Runtime:    time.Since(start),
			Iterations: iterations,
		}
	}
	// Traced solves track the (3a) objective incrementally: it starts at n*M
	// (everything unrouted) and each commit replaces one M with the
	// candidate's cost plus its pair terms against already-committed
	// partners, so every pair is counted exactly once and each convergence
	// sample costs O(partners) instead of a full ObjectiveValue sweep.
	// Abandoning an object keeps its M, so no update is needed there.
	samp := rec.Sampler("pd")
	var obj float64
	var routed int
	var iterStart time.Time
	if rec != nil {
		obj = float64(len(p.Objects)) * p.Opt.M
		samp.Record(obj, 0, 0)
	}
	for {
		if rec != nil {
			iterStart = time.Now()
		}
		if err := ctx.Err(); err != nil {
			return result(), fmt.Errorf("pd: %w", err)
		}
		if err := faultinject.Fire(ctx, faultinject.PDCommit); err != nil {
			return result(), fmt.Errorf("pd: %w", err)
		}
		// Line 6: among infeasible (uncommitted) objects pick the candidate
		// minimizing c(i,j) + c'(i,j).
		bestI, bestCost := s.argmin()
		if bestI == -1 {
			// No live candidate anywhere: every remaining object is unrouted
			// (lines 10-12 applied collectively; their choices are already -1).
			iterations += s.remaining
			break
		}
		bestJ := s.bestJ[bestI]

		// Lines 7-8: commit and update residual capacities.
		s.commit(bestI, bestJ)
		iterations++
		if rec != nil {
			delta := p.Cost(bestI, bestJ) - p.Opt.M
			for _, q := range p.Partners(bestI) {
				if a.Choice[q] >= 0 {
					delta += p.PairCost(bestI, bestJ, q, a.Choice[q])
				}
			}
			obj += delta
			routed++
			samp.Record(obj, routed, 0)
			rec.EmitAt("pd.commit", "pd", iterStart, time.Since(iterStart), obs.Args{
				"object": float64(bestI), "cand": float64(bestJ), "cost": bestCost,
			})
		}
		// Fault seam: a corrupted commit skips the capacity bookkeeping, so
		// later commits can over-subscribe the edges this candidate uses —
		// the independent legality audit must catch the resulting overflow.
		committed := &p.Cands[bestI][bestJ]
		if !faultinject.Corrupt(ctx, faultinject.PDCapacity) {
			for _, e := range committed.Edges {
				u.Add(int(e.Layer), int(e.Idx), int(e.N))
			}
		}

		// Line 9: prune candidates the capacity update made infeasible. The
		// recheck set is every live candidate on an index word where the
		// update left an edge short (see wordIndex.shortUsers),
		// epoch-deduped (a candidate on several such words is checked once).
		epoch++
		pruneRefs = pruneRefs[:0]
		idx.shortUsers(u, committed, func(cid int32) {
			ref := idx.refs[cid]
			if s.done[ref.i] || !s.alive[ref.i][ref.j] || mark[cid] == epoch {
				return
			}
			mark[cid] = epoch
			pruneRefs = append(pruneRefs, ref)
		})
		pruneParallel(p, u, s.alive, pruneRefs, workers)
		pruneChecked += int64(len(pruneRefs))
		for _, ref := range pruneRefs {
			if s.alive[ref.i][ref.j] {
				pruneSurvivors++
			} else {
				s.kill(ref.i)
			}
		}
		// Lines 10-12: objects whose sets emptied become unrouted.
		iterations += s.abandonEmptied()
		if s.remaining == 0 {
			break
		}
	}
	return result(), nil
}

// selector is Algorithm 2's selection state with the line-6 minimum cached
// per object. best[i] depends only on object i's live set and on each
// partner's choice and live set (cPrime), so it is re-priced only when one
// of those changed: a commit dirties the committed object's partners, and a
// pruned candidate dirties its object and that object's partners. Pricing
// an object scans j ascending with strict <, and argmin scans objects
// ascending with strict <, so the pick is the (i, j) a full lexicographic
// rescan would make, with the same float bits.
type selector struct {
	p *route.Problem
	a route.Assignment
	// alive[i][j] reports whether candidate j of object i is still primal
	// feasible under the residual capacities (line 9 prunes these).
	alive [][]bool
	live  []int  // live[i] counts the true cells of alive[i]
	done  []bool // committed or abandoned
	// remaining counts objects that are not done.
	remaining int
	// best[i] is min over alive j of c(i,j) + c'(i,j), reached first at
	// bestJ[i] (-1 and +Inf when none); +Inf once object i is done.
	best  []float64
	bestJ []int
	// dirtyList holds the objects to re-price before the next argmin.
	dirty     []bool
	dirtyList []int
	// emptied holds the objects whose live set emptied since the last
	// abandonEmptied; it starts with the objects that had no fitting
	// candidate at all.
	emptied []int
	// priceEvals counts the (object, candidate) pricings computed.
	priceEvals int64
}

func newSelector(p *route.Problem, u *grid.Usage) *selector {
	n := len(p.Objects)
	s := &selector{
		p:         p,
		a:         p.NewAssignment(),
		alive:     make([][]bool, n),
		live:      make([]int, n),
		done:      make([]bool, n),
		remaining: n,
		best:      make([]float64, n),
		bestJ:     make([]int, n),
		dirty:     make([]bool, n),
		dirtyList: make([]int, n),
	}
	for i := range s.alive {
		s.alive[i] = make([]bool, len(p.Cands[i]))
		for j := range s.alive[i] {
			if p.CandidateFits(i, j, u) {
				s.alive[i][j] = true
				s.live[i]++
			}
		}
		if s.live[i] == 0 {
			s.emptied = append(s.emptied, i)
		}
		s.dirty[i] = true
		s.dirtyList[i] = i
	}
	return s
}

// argmin re-prices the dirty objects and returns the object holding the
// smallest cached minimum (first on ties), or -1 when no object has a live
// candidate.
func (s *selector) argmin() (int, float64) {
	for _, i := range s.dirtyList {
		s.dirty[i] = false
		if !s.done[i] {
			s.price(i)
		}
	}
	s.dirtyList = s.dirtyList[:0]
	bestI, bestCost := -1, math.Inf(1)
	for i, c := range s.best {
		if c < bestCost {
			bestI, bestCost = i, c
		}
	}
	return bestI, bestCost
}

// price recomputes best[i] and bestJ[i] from scratch.
func (s *selector) price(i int) {
	best, bestJ := math.Inf(1), -1
	for j, ok := range s.alive[i] {
		if !ok {
			continue
		}
		s.priceEvals++
		if c := s.p.Cost(i, j) + cPrime(s.p, s.a, s.alive, i, j); c < best {
			best, bestJ = c, j
		}
	}
	s.best[i], s.bestJ[i] = best, bestJ
}

// markDirty queues object i for re-pricing unless it is done.
func (s *selector) markDirty(i int) {
	if !s.dirty[i] && !s.done[i] {
		s.dirty[i] = true
		s.dirtyList = append(s.dirtyList, i)
	}
}

// finish takes object i out of the selection.
func (s *selector) finish(i int) {
	s.done[i] = true
	s.best[i] = math.Inf(1)
	s.remaining--
}

// commit selects candidate j for object i; its partners' c' change.
func (s *selector) commit(i, j int) {
	s.a.Choice[i] = j
	s.finish(i)
	for _, q := range s.p.Partners(i) {
		s.markDirty(q)
	}
}

// kill records that the prune cleared one alive cell of object i.
func (s *selector) kill(i int) {
	s.live[i]--
	if s.live[i] == 0 {
		s.emptied = append(s.emptied, i)
	}
	s.markDirty(i)
	for _, q := range s.p.Partners(i) {
		s.markDirty(q)
	}
}

// abandonEmptied marks every not-yet-done object of the emptied list
// unrouted (its choice stays -1, s_i = 1) and returns how many it marked.
func (s *selector) abandonEmptied() int {
	n := 0
	for _, i := range s.emptied {
		if !s.done[i] {
			s.finish(i)
			n++
		}
	}
	s.emptied = s.emptied[:0]
	return n
}

// candRef addresses candidate j of object i.
type candRef struct{ i, j int }

// wordIndex is the candidate-user index behind the prune step, in CSR form
// over (layer, 64-edge word) rows built from the candidates' Masks: row
// layerOff[l]+w lists, by global candidate id, every candidate occupying an
// edge in word w of layer l. One counting pass, one prefix sum, one fill.
type wordIndex struct {
	layerOff []int32   // layer l's words start at row layerOff[l]
	rowStart []int32   // CSR row boundaries, len = total rows + 1
	users    []int32   // concatenated rows of candidate global ids
	refs     []candRef // candidate global id -> (object, candidate)
	// heavy[row] has bit b set when some candidate needs two or more tracks
	// on edge b of the row's word. The largest such need is packed in maxN
	// by rank: maxN[heavyOff[row] + popcount of the row's lower heavy bits].
	heavy    []uint64
	heavyOff []int32
	maxN     []int32
}

func newWordIndex(p *route.Problem) *wordIndex {
	g := p.Grid
	layerOff := make([]int32, len(g.Layers)+1)
	for l := range g.Layers {
		layerOff[l+1] = layerOff[l] + int32((g.EdgeCount(l)+63)/64)
	}
	rows := int(layerOff[len(g.Layers)])
	numCands := 0
	for i := range p.Cands {
		numCands += len(p.Cands[i])
	}
	idx := &wordIndex{
		layerOff: layerOff,
		rowStart: make([]int32, rows+1),
		refs:     make([]candRef, 0, numCands),
		heavy:    make([]uint64, rows),
		heavyOff: make([]int32, rows+1),
	}
	for i := range p.Cands {
		for j := range p.Cands[i] {
			c := &p.Cands[i][j]
			idx.refs = append(idx.refs, candRef{i, j})
			for _, m := range c.Masks {
				idx.rowStart[layerOff[m.Layer]+m.Word+1]++
			}
			for _, e := range c.Heavy {
				idx.heavy[layerOff[e.Layer]+e.Idx>>6] |= 1 << (e.Idx & 63)
			}
		}
	}
	for row, h := range idx.heavy {
		idx.heavyOff[row+1] = idx.heavyOff[row] + int32(bits.OnesCount64(h))
	}
	idx.maxN = make([]int32, idx.heavyOff[rows])
	for _, ref := range idx.refs {
		for _, e := range p.Cands[ref.i][ref.j].Heavy {
			k := idx.maxNSlot(layerOff[e.Layer]+e.Idx>>6, int(e.Idx&63))
			if e.N > idx.maxN[k] {
				idx.maxN[k] = e.N
			}
		}
	}
	for k := 1; k <= rows; k++ {
		idx.rowStart[k] += idx.rowStart[k-1]
	}
	idx.users = make([]int32, idx.rowStart[rows])
	cursor := append([]int32(nil), idx.rowStart[:rows]...)
	for cid, ref := range idx.refs {
		for _, m := range p.Cands[ref.i][ref.j].Masks {
			row := layerOff[m.Layer] + m.Word
			idx.users[cursor[row]] = int32(cid)
			cursor[row]++
		}
	}
	return idx
}

// shortUsers calls visit with the global id of every candidate on an index
// row where c covers an edge that u now leaves short (see short), once per
// such row the candidate shares with c. Candidates it does not visit still
// fit under u if they fitted before c's edges were added.
func (x *wordIndex) shortUsers(u *grid.Usage, c *topo.Candidate, visit func(cid int32)) {
	for _, m := range c.Masks {
		row := x.layerOff[m.Layer] + m.Word
		if !x.short(u, m, row) {
			continue
		}
		for _, cid := range x.users[x.rowStart[row]:x.rowStart[row+1]] {
			visit(cid)
		}
	}
}

// short reports whether mask m (at index row row) covers an edge whose
// residual capacity is below some candidate's track need on it. A candidate
// fits edge e exactly when Avail(e) >= its need there (CandidateFits reads
// the blocked bit, Avail < 1, and the Heavy edges' Avail), so a commit can
// only make a candidate infeasible through one of the committed edges with
// Avail(e) < maxN(e), where maxN(e) is 1 unless some candidate uses e as a
// Heavy edge. Rows where short is false hold no candidate the commit made
// infeasible.
func (x *wordIndex) short(u *grid.Usage, m topo.WordMask, row int32) bool {
	if u.BlockedWords(int(m.Layer))[m.Word]&m.Bits != 0 {
		return true
	}
	for h := x.heavy[row] & m.Bits; h != 0; h &= h - 1 {
		b := bits.TrailingZeros64(h)
		if u.Avail(int(m.Layer), int(m.Word)*64+b) < int(x.maxN[x.maxNSlot(row, b)]) {
			return true
		}
	}
	return false
}

// maxNSlot locates the maxN entry of heavy edge b of row.
func (x *wordIndex) maxNSlot(row int32, b int) int32 {
	return x.heavyOff[row] + int32(bits.OnesCount64(x.heavy[row]&(1<<b-1)))
}

// pruneParallel re-checks the feasibility of the given candidates against
// the residual capacities and kills the ones that no longer fit,
// fanning the checks out across workers when the batch is worth it. Each
// ref owns its alive cell and the usage tracker is only read, so the
// outcome is independent of scheduling (line 9 of Algorithm 2 is a pure
// filter).
func pruneParallel(p *route.Problem, u *grid.Usage, alive [][]bool, refs []candRef, workers int) {
	// Below this batch size goroutine startup costs more than the checks.
	const minParallel = 64
	if workers <= 1 || len(refs) < minParallel {
		for _, ref := range refs {
			if !p.CandidateFits(ref.i, ref.j, u) {
				alive[ref.i][ref.j] = false
			}
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (len(refs) + workers - 1) / workers
	for lo := 0; lo < len(refs); lo += chunk {
		hi := lo + chunk
		if hi > len(refs) {
			hi = len(refs)
		}
		wg.Add(1)
		go func(part []candRef) {
			defer wg.Done()
			for _, ref := range part {
				if !p.CandidateFits(ref.i, ref.j, u) {
					alive[ref.i][ref.j] = false
				}
			}
		}(refs[lo:hi])
	}
	wg.Wait()
}

// cPrime evaluates Eq. (4)/(5): for each same-group partner of object i,
// add the pair cost against the partner's committed candidate, or the
// minimum pair cost over the partner's still-feasible candidates when the
// partner is undecided. Partners with no live candidates contribute
// nothing (they will be unrouted).
func cPrime(p *route.Problem, a route.Assignment, alive [][]bool, i, j int) float64 {
	total := 0.0
	for _, q := range p.Partners(i) {
		if a.Choice[q] >= 0 {
			total += p.PairCost(i, j, q, a.Choice[q])
			continue
		}
		best := math.Inf(1)
		for r := range p.Cands[q] {
			if !alive[q][r] {
				continue
			}
			if c := p.PairCost(i, j, q, r); c < best {
				best = c
			}
		}
		if !math.IsInf(best, 1) {
			total += best
		}
	}
	return total
}
