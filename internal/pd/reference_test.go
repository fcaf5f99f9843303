package pd

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/signal"
	"repro/internal/topo"
)

// referenceSolve is Algorithm 2 as a plain full rescan, the oracle for the
// incremental Solve: every commit re-prices every live candidate of every
// uncommitted object (line 6, lexicographic strict-< argmin), re-checks
// every live candidate against the residual capacities (line 9), and scans
// all objects for emptied sets (lines 10-12). It also returns the number of
// (object, candidate) pricings its line 6 computed.
func referenceSolve(p *route.Problem) (Result, int64) {
	n := len(p.Objects)
	a := p.NewAssignment()
	u := p.Usage(a)
	alive := make([][]bool, n)
	done := make([]bool, n)
	for i := range alive {
		alive[i] = make([]bool, len(p.Cands[i]))
		for j := range alive[i] {
			alive[i][j] = p.CandidateFits(i, j, u)
		}
	}
	iterations := 0
	var prices int64
	for {
		bestI, bestJ := -1, -1
		bestCost := math.Inf(1)
		for i := 0; i < n; i++ {
			if done[i] {
				continue
			}
			for j := range p.Cands[i] {
				if !alive[i][j] {
					continue
				}
				prices++
				if cost := p.Cost(i, j) + cPrime(p, a, alive, i, j); cost < bestCost {
					bestCost, bestI, bestJ = cost, i, j
				}
			}
		}
		if bestI == -1 {
			for i := 0; i < n; i++ {
				if !done[i] {
					done[i] = true
					iterations++
				}
			}
			break
		}
		a.Choice[bestI] = bestJ
		done[bestI] = true
		iterations++
		for _, e := range p.Cands[bestI][bestJ].Edges {
			u.Add(int(e.Layer), int(e.Idx), int(e.N))
		}
		remaining := 0
		for i := 0; i < n; i++ {
			if done[i] {
				continue
			}
			any := false
			for j := range alive[i] {
				if alive[i][j] && !p.CandidateFits(i, j, u) {
					alive[i][j] = false
				}
				any = any || alive[i][j]
			}
			if any {
				remaining++
			} else {
				done[i] = true
				iterations++
			}
		}
		if remaining == 0 {
			break
		}
	}
	return Result{Assignment: a, Objective: p.ObjectiveValue(a), Iterations: iterations}, prices
}

// sameResult reports how got differs from the reference, or "" when the
// assignment, the objective's float bits and the iteration count all match.
func sameResult(got, want Result) string {
	for i := range want.Assignment.Choice {
		if got.Assignment.Choice[i] != want.Assignment.Choice[i] {
			return fmt.Sprintf("object %d: choice %d, reference %d", i, got.Assignment.Choice[i], want.Assignment.Choice[i])
		}
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) {
		return fmt.Sprintf("objective %v, reference %v", got.Objective, want.Objective)
	}
	if got.Iterations != want.Iterations {
		return fmt.Sprintf("iterations %d, reference %d", got.Iterations, want.Iterations)
	}
	return ""
}

// TestSolveMatchesReference is the differential oracle of the incremental
// solver: over benchgen Industry1-7 at two scales and three preset seeds,
// with 1 and 4 workers, plus crowded capacity-1 buses (Heavy edges and
// prune kills), Solve must reproduce referenceSolve bit for bit. -short runs the
// smaller scale and the default seed only.
func TestSolveMatchesReference(t *testing.T) {
	scales := []float64{0.1, 0.2}
	seeds := []int64{0, 500, 900} // 0 keeps each preset's own seed
	if testing.Short() {
		scales, seeds = scales[:1], seeds[:1]
	}
	type design struct {
		name string
		p    *route.Problem
	}
	var designs []design
	for n := 1; n <= 7; n++ {
		for _, sc := range scales {
			for _, seed := range seeds {
				spec := benchgen.Scale(benchgen.Industry(n), sc)
				if seed != 0 {
					spec.Seed = seed + int64(n)
				}
				p, err := route.Build(spec.Generate(), route.Options{})
				if err != nil {
					t.Fatal(err)
				}
				designs = append(designs, design{fmt.Sprintf("Industry%d@%g/seed%d", n, sc, seed), p})
			}
		}
	}
	crowded, err := route.Build(crowdedBuses(8, 6, 1), route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	designs = append(designs, design{"crowded-buses", crowded})
	for _, d := range designs {
		want, _ := referenceSolve(d.p)
		if d.p == crowded && want.Iterations == want.Assignment.RoutedObjects() {
			t.Errorf("%s: reference abandoned no object; the case exercises no prune kill", d.name)
		}
		for _, workers := range []int{1, 4} {
			d.p.Opt.Workers = workers
			if diff := sameResult(Solve(d.p), want); diff != "" {
				t.Errorf("%s workers=%d: %s", d.name, workers, diff)
			}
		}
	}
}

// crowdedBuses is busDesign squeezed onto shared rows: nGroups buses of
// width bits each, group gi's pins shifted gi columns right and its sinks
// gi%3 rows down, on a 32x14 four-layer grid of the given edge capacity.
// With capacity 1 most groups cannot route; their candidates die in the
// prune as the first buses commit, and many candidates need two tracks on
// the edges where their bits' trunks share a row (Heavy edges).
func crowdedBuses(nGroups, bits, cap int) *signal.Design {
	d := &signal.Design{
		Name: "crowded",
		Grid: signal.GridSpec{W: 32, H: 14, NumLayers: 4, EdgeCap: cap},
	}
	for gi := 0; gi < nGroups; gi++ {
		var g signal.Group
		for b := 0; b < bits; b++ {
			g.Bits = append(g.Bits, signal.Bit{
				Driver: 0,
				Pins:   []signal.Pin{{Loc: geom.Pt(2+gi, 2+b)}, {Loc: geom.Pt(20+gi, 2+b+gi%3)}},
			})
		}
		d.Groups = append(d.Groups, g)
	}
	return d
}

// TestSolvePriceEvalsBounded pins the point of the cached line-6 minima: on
// a design with hundreds of objects the solver prices far fewer
// (object, candidate) pairs than the full rescan does, and the
// pd.price_evals counter reports exactly the pricings computed.
func TestSolvePriceEvalsBounded(t *testing.T) {
	p, err := route.Build(benchgen.Scale(benchgen.Industry(2), 0.1).Generate(), route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, full := referenceSolve(p)
	rec := obs.NewRecorder()
	if _, err := SolveCtx(obs.WithRecorder(context.Background(), rec), p); err != nil {
		t.Fatal(err)
	}
	got := rec.Counters()[obs.CounterPDPriceEvals]
	if got <= 0 || got*10 > full {
		t.Errorf("pd.price_evals = %d, want > 0 and at most a tenth of the full rescan's %d", got, full)
	}
}

// TestShortUsersCoverEveryKill checks the prune's exactness argument on its
// own, away from the solver's choices: commit random fitting candidates one
// by one, and after each commit every candidate that stopped fitting must be
// among the ones shortUsers visits. Capacities 2-4 on crowded buses make
// Heavy edges partly available (Avail >= 1 but below a candidate's need),
// the case the blocked bitset alone misses.
func TestShortUsersCoverEveryKill(t *testing.T) {
	var heavyKills int
	for _, cap := range []int{2, 3, 4} {
		p, err := route.Build(crowdedBuses(8, 6, cap), route.Options{})
		if err != nil {
			t.Fatal(err)
		}
		idx := newWordIndex(p)
		u := grid.NewUsage(p.Grid)
		alive := make([]bool, len(idx.refs))
		for cid, ref := range idx.refs {
			alive[cid] = p.CandidateFits(ref.i, ref.j, u)
		}
		rng := rand.New(rand.NewSource(int64(cap)))
		for step := 0; ; step++ {
			var fits []int
			for cid, ok := range alive {
				if ok {
					fits = append(fits, cid)
				}
			}
			if len(fits) == 0 {
				break
			}
			ref := idx.refs[fits[rng.Intn(len(fits))]]
			c := &p.Cands[ref.i][ref.j]
			for _, e := range c.Edges {
				u.Add(int(e.Layer), int(e.Idx), int(e.N))
			}
			visited := make(map[int32]bool)
			idx.shortUsers(u, c, func(cid int32) { visited[cid] = true })
			for cid, r := range idx.refs {
				if !alive[cid] || p.CandidateFits(r.i, r.j, u) {
					continue
				}
				alive[cid] = false
				if !visited[int32(cid)] {
					t.Fatalf("cap %d step %d: candidate (%d,%d) stopped fitting but was not visited", cap, step, r.i, r.j)
				}
				if !blockedOn(u, &p.Cands[r.i][r.j]) {
					heavyKills++
				}
			}
		}
	}
	if heavyKills == 0 {
		t.Error("no candidate died on a partly available Heavy edge; the test misses the maxN path")
	}
}

// blockedOn reports whether some edge of c has no track left at all.
func blockedOn(u *grid.Usage, c *topo.Candidate) bool {
	for _, e := range c.Edges {
		if u.Avail(int(e.Layer), int(e.Idx)) < 1 {
			return true
		}
	}
	return false
}
