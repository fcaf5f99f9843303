package ilp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/benchgen"
	"repro/internal/route"
	"repro/internal/topo"
)

// solveLP solves one relaxation on a pooled workspace, as Solve does.
func (m *Model) solveLP(ctx context.Context, cons []constraint, lo, hi []float64, deadline time.Time) lpResult {
	st := getState()
	defer putState(st)
	return st.solve(ctx, m, cons, lo, hi, deadline)
}

// refSolveLP is the dense simplex kernel the sparse one replaced, kept as
// the oracle: every pivot updates every column of every affected row, and
// pricing scans every column on every iteration. It also reports how many
// Big-M artificials the start needed.
func refSolveLP(m *Model, cons []constraint, lo, hi []float64) (lpResult, int) {
	n := len(m.obj)
	rows := len(cons)
	if n == 0 {
		return lpResult{status: lpOptimal}, 0
	}
	ncols := n + rows
	colLo := make([]float64, ncols)
	colHi := make([]float64, ncols)
	copy(colLo, lo)
	copy(colHi, hi)
	for j := n; j < ncols; j++ {
		colHi[j] = inf
	}
	bigM := 1.0
	for _, c := range m.obj {
		bigM += math.Abs(c)
	}
	bigM *= 1e4
	cost := make([]float64, ncols)
	copy(cost, m.obj)

	t := make([][]float64, rows)
	for i := range t {
		t[i] = make([]float64, ncols)
	}
	basis := make([]int, rows)
	xB := make([]float64, rows)
	atUpper := make([]bool, ncols)
	for j := 0; j < n; j++ {
		if m.obj[j] < 0 && !math.IsInf(hi[j], 1) {
			atUpper[j] = true
		}
		if lo[j] == hi[j] {
			atUpper[j] = false
		}
	}
	nbVal := func(j int) float64 {
		if atUpper[j] {
			return colHi[j]
		}
		return colLo[j]
	}
	arts := 0
	for i, con := range cons {
		row := t[i]
		t[i] = nil
		for _, tm := range con.terms {
			row[tm.Var] += tm.Coef
		}
		row[n+i] = 1
		act := 0.0
		for j := 0; j < n; j++ {
			act += row[j] * nbVal(j)
		}
		slack := con.rhs - act
		if slack >= 0 {
			basis[i] = n + i
			xB[i] = slack
			t[i] = row
			continue
		}
		for j := range row {
			row[j] = -row[j]
		}
		arts++
		art := len(colLo)
		colLo = append(colLo, 0)
		colHi = append(colHi, inf)
		cost = append(cost, bigM)
		atUpper = append(atUpper, false)
		for k := range t {
			if t[k] != nil {
				t[k] = append(t[k], 0)
			}
		}
		for len(row) <= art {
			row = append(row, 0)
		}
		row[art] = 1
		basis[i] = art
		xB[i] = -slack
		t[i] = row
	}
	ncols = len(colLo)
	for i := range t {
		for len(t[i]) < ncols {
			t[i] = append(t[i], 0)
		}
	}
	inBasis := make([]bool, ncols)
	for _, b := range basis {
		inBasis[b] = true
	}
	objRow := make([]float64, ncols)
	copy(objRow, cost)
	for i, b := range basis {
		cb := cost[b]
		if cb == 0 {
			continue
		}
		for j := 0; j < ncols; j++ {
			objRow[j] -= cb * t[i][j]
		}
	}

	pivot := func(leave, enter int) {
		prow := t[leave]
		invPiv := 1 / prow[enter]
		for j := 0; j < ncols; j++ {
			prow[j] *= invPiv
		}
		for i := range t {
			if i == leave {
				continue
			}
			f := t[i][enter]
			if f == 0 {
				continue
			}
			ri := t[i]
			for j := 0; j < ncols; j++ {
				ri[j] -= f * prow[j]
			}
			ri[enter] = 0
		}
		if f := objRow[enter]; f != 0 {
			for j := 0; j < ncols; j++ {
				objRow[j] -= f * prow[j]
			}
			objRow[enter] = 0
		}
	}

	maxIter := 200 * (rows + ncols + 10)
	blandAfter := 20 * (rows + ncols + 10)
	iter := 0
	for ; ; iter++ {
		if iter > maxIter {
			return lpResult{status: lpIterLimit, iters: iter}, arts
		}
		useBland := iter > blandAfter
		enter, dir := -1, 0.0
		bestViol := tol
		for j := 0; j < ncols; j++ {
			if inBasis[j] || colLo[j] == colHi[j] {
				continue
			}
			var viol, d float64
			if !atUpper[j] && objRow[j] < -tol {
				viol, d = -objRow[j], 1
			} else if atUpper[j] && objRow[j] > tol {
				viol, d = objRow[j], -1
			} else {
				continue
			}
			if useBland {
				enter, dir = j, d
				break
			}
			if viol > bestViol {
				bestViol, enter, dir = viol, j, d
			}
		}
		if enter == -1 {
			break
		}
		tstep := colHi[enter] - colLo[enter]
		leave := -1
		leaveToUpper := false
		for i := 0; i < rows; i++ {
			coeff := t[i][enter] * dir
			bi := basis[i]
			var limit float64
			var toUpper bool
			switch {
			case coeff > tol:
				limit, toUpper = (xB[i]-colLo[bi])/coeff, false
			case coeff < -tol:
				if math.IsInf(colHi[bi], 1) {
					continue
				}
				limit, toUpper = (colHi[bi]-xB[i])/-coeff, true
			default:
				continue
			}
			if limit < 0 {
				limit = 0
			}
			if limit < tstep-tol || (limit < tstep+tol && leave != -1 && basis[i] < basis[leave]) {
				if limit < tstep {
					tstep = limit
				}
				leave, leaveToUpper = i, toUpper
			}
		}
		if math.IsInf(tstep, 1) {
			return lpResult{status: lpIterLimit, iters: iter}, arts
		}
		if leave == -1 {
			delta := dir * tstep
			for i := 0; i < rows; i++ {
				xB[i] -= t[i][enter] * delta
			}
			atUpper[enter] = !atUpper[enter]
			continue
		}
		newVal := nbVal(enter) + dir*tstep
		delta := dir * tstep
		for i := 0; i < rows; i++ {
			if i != leave {
				xB[i] -= t[i][enter] * delta
			}
		}
		leavingVar := basis[leave]
		inBasis[leavingVar] = false
		atUpper[leavingVar] = leaveToUpper
		basis[leave] = enter
		inBasis[enter] = true
		xB[leave] = newVal
		pivot(leave, enter)
	}

	x := make([]float64, n)
	for j := 0; j < n; j++ {
		x[j] = nbVal(j)
	}
	for i, b := range basis {
		if b < n {
			x[b] = xB[i]
		} else if b >= n+rows && xB[i] > 1e-6 {
			return lpResult{status: lpInfeasible, iters: iter}, arts
		}
	}
	obj := 0.0
	for j := 0; j < n; j++ {
		if x[j] < colLo[j] {
			x[j] = colLo[j]
		}
		if x[j] > colHi[j] {
			x[j] = colHi[j]
		}
		obj += m.obj[j] * x[j]
	}
	return lpResult{status: lpOptimal, x: x, obj: obj, iters: iter}, arts
}

// lpTally counts what a set of reference comparisons exercised.
type lpTally struct {
	lps, infeasible, artificials int
}

// checkLP solves one relaxation with the sparse kernel and the dense
// reference and requires the same status, iteration count, and ==-equal
// objective and solution.
func checkLP(t *testing.T, label string, m *Model, cons []constraint, lo, hi []float64, tally *lpTally) lpResult {
	t.Helper()
	got := m.solveLP(context.Background(), cons, lo, hi, time.Time{})
	want, arts := refSolveLP(m, cons, lo, hi)
	tally.lps++
	tally.artificials += arts
	if want.status == lpInfeasible {
		tally.infeasible++
	}
	if got.status != want.status || got.iters != want.iters {
		t.Fatalf("%s: status/iters = %v/%d, dense reference %v/%d", label, got.status, got.iters, want.status, want.iters)
	}
	if got.obj != want.obj {
		t.Fatalf("%s: obj = %v, dense reference %v", label, got.obj, want.obj)
	}
	if len(got.x) != len(want.x) {
		t.Fatalf("%s: |x| = %d, dense reference %d", label, len(got.x), len(want.x))
	}
	for j := range got.x {
		if got.x[j] != want.x[j] {
			t.Fatalf("%s: x[%d] = %v, dense reference %v", label, j, got.x[j], want.x[j])
		}
	}
	return got
}

// checkModelLPs compares the kernels on a model's relaxations as branch
// and bound meets them: the root's cutting-plane loop (violated lazy rows
// activated round by round), then the same loop under random fixings,
// starting from the rows the root activated. A fixing branches about a
// fifth of the selection groups as branch and bound does, one member to
// lo = 1 and its siblings off, and a twentieth all off; lo = 1 leaves rows
// infeasible at the start and forces Big-M artificials.
func checkModelLPs(t *testing.T, label string, m *Model, rng *rand.Rand, fixings int, tally *lpTally) {
	t.Helper()
	n := m.NumVars()
	lo, hi := make([]float64, n), make([]float64, n)
	for j := range hi {
		hi[j] = 1
	}
	active := make([]bool, len(m.lazy))
	cons := append([]constraint(nil), m.cons...)
	cutLoop := func(label string, lo, hi []float64) {
		for round := 0; round < 20; round++ {
			res := checkLP(t, fmt.Sprintf("%s round %d", label, round), m, cons, lo, hi, tally)
			if res.status != lpOptimal {
				return
			}
			viol := m.violatedLazy(res.x, active)
			if len(viol) == 0 {
				return
			}
			for _, li := range viol {
				active[li] = true
				cons = append(cons, m.lazy[li])
			}
		}
	}
	cutLoop(label+" root", lo, hi)
	for f := 0; f < fixings; f++ {
		flo, fhi := append([]float64(nil), lo...), append([]float64(nil), hi...)
		for _, vars := range m.sos {
			switch r := rng.Float64(); {
			case r < 0.2:
				// Branch and bound's SOS child: one member on, the rest off.
				on := vars[rng.Intn(len(vars))]
				for _, v := range vars {
					fhi[v] = 0
				}
				flo[on], fhi[on] = 1, 1
			case r < 0.25:
				for _, v := range vars {
					fhi[v] = 0
				}
			}
		}
		cutLoop(fmt.Sprintf("%s fixing %d", label, f), flo, fhi)
	}
}

// sweepModel draws a random selection model: groups of binary candidates
// (SOS-branched, at least one required), plus random capacity rows — half
// eager, half lazy. Integer costs (every other trial) manufacture the
// degenerate ties that exercise the tie-breaking rules.
func sweepModel(trial int) *Model {
	rng := rand.New(rand.NewSource(int64(trial)))
	nGroups := 3 + rng.Intn(4)
	per := 2 + rng.Intn(2)
	m := NewModel(nGroups * per)
	groups := make([][]int, nGroups)
	for g := 0; g < nGroups; g++ {
		vars := make([]int, per)
		terms := make([]Term, per)
		for k := 0; k < per; k++ {
			v := g*per + k
			cost := 1 + rng.Float64()*10
			if trial%2 == 0 {
				cost = float64(1 + rng.Intn(6)) // integral: degenerate ties
			}
			m.SetObj(v, cost)
			m.SetInteger(v)
			vars[k] = v
			terms[k] = Term{Var: v, Coef: -1}
		}
		groups[g] = vars
		m.AddSOS(vars)
		m.AddConstraint(terms, -1) // select at least one per group
	}
	for e := 0; e < nGroups*2; e++ {
		terms := make([]Term, 0, nGroups)
		for _, vars := range groups {
			terms = append(terms, Term{Var: vars[rng.Intn(len(vars))], Coef: 1})
		}
		rhs := float64(1 + rng.Intn(2))
		if e%2 == 0 {
			m.AddLazyConstraint(terms, rhs)
		} else {
			m.AddConstraint(terms, rhs)
		}
	}
	return m
}

// sweepModelFloat draws a harder variant: fractional capacity coefficients
// and right-hand sides, no lazy rows. Pivoting on these produces genuinely
// inexact arithmetic (unlike the ±1 models above, whose pivots stay on
// dyadic rationals).
func sweepModelFloat(trial int) *Model {
	rng := rand.New(rand.NewSource(int64(10_000 + trial)))
	nGroups, per := 8, 3
	m := NewModel(nGroups * per)
	groups := make([][]int, nGroups)
	for g := 0; g < nGroups; g++ {
		vars := make([]int, per)
		terms := make([]Term, per)
		for k := 0; k < per; k++ {
			v := g*per + k
			m.SetObj(v, 1+rng.Float64()*10)
			m.SetInteger(v)
			vars[k] = v
			terms[k] = Term{Var: v, Coef: -1}
		}
		groups[g] = vars
		m.AddSOS(vars)
		m.AddConstraint(terms, -1)
	}
	for e := 0; e < nGroups; e++ {
		terms := make([]Term, 0, nGroups)
		for _, vars := range groups {
			terms = append(terms, Term{Var: vars[rng.Intn(len(vars))], Coef: 1 + rng.Float64()})
		}
		m.AddConstraint(terms, 2+rng.Float64()*2)
	}
	return m
}

// requireExercised fails when a sweep never reached an infeasible
// relaxation or a Big-M start, which would leave those paths unchecked.
func requireExercised(t *testing.T, tally lpTally) {
	t.Helper()
	if tally.infeasible == 0 || tally.artificials == 0 {
		t.Fatalf("sweep too easy: %+v", tally)
	}
	t.Logf("%+v", tally)
}

// TestDenseReferenceSweep checks the sparse kernel against the dense
// reference on the relaxations of 300 seeded selection models.
func TestDenseReferenceSweep(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 30
	}
	var tally lpTally
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		checkModelLPs(t, fmt.Sprintf("trial %d", trial), sweepModel(trial), rng, 6, &tally)
	}
	requireExercised(t, tally)
}

// TestDenseReferenceSweepFloatCaps repeats the comparison on the
// fractional-coefficient models, where rounding in every pivot is real.
func TestDenseReferenceSweepFloatCaps(t *testing.T) {
	trials := 100
	if testing.Short() {
		trials = 15
	}
	var tally lpTally
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(10_000 + trial)))
		checkModelLPs(t, fmt.Sprintf("trial %d", trial), sweepModelFloat(trial), rng, 6, &tally)
	}
	requireExercised(t, tally)
}

// formulation3 builds the linearized formulation (3) of a routing problem
// the way internal/exact does: one binary per candidate with cost c - M and
// a pick-at-most-one row per object, lazy capacity rows on the edges that
// could overflow, and lazy product rows y >= x1 + x2 - 1 for costed
// same-group candidate pairs.
func formulation3(p *route.Problem) *Model {
	xIdx := make([][]int, len(p.Cands))
	nx := 0
	for i := range p.Cands {
		xIdx[i] = make([]int, len(p.Cands[i]))
		for j := range xIdx[i] {
			xIdx[i][j] = nx
			nx++
		}
	}
	type pair struct {
		x1, x2 int
		cost   float64
	}
	var pairs []pair
	for i := range p.Objects {
		for _, q := range p.Partners(i) {
			if q <= i {
				continue
			}
			for j := range p.Cands[i] {
				for r := range p.Cands[q] {
					if c := p.PairCost(i, j, q, r); c > 1e-9 {
						pairs = append(pairs, pair{xIdx[i][j], xIdx[q][r], c})
					}
				}
			}
		}
	}
	m := NewModel(nx + len(pairs))
	for i := range p.Cands {
		if len(p.Cands[i]) == 0 {
			continue
		}
		terms := make([]Term, len(p.Cands[i]))
		for j, v := range xIdx[i] {
			m.SetInteger(v)
			m.SetObj(v, p.Cost(i, j)-p.Opt.M)
			terms[j] = Term{Var: v, Coef: 1}
		}
		m.AddConstraint(terms, 1)
		m.AddSOS(xIdx[i])
	}
	type edgeAgg struct {
		terms  []Term
		maxSum int
	}
	edges := map[topo.EdgeKey]*edgeAgg{}
	var order []topo.EdgeKey
	for i := range p.Cands {
		perObj := map[topo.EdgeKey]int{}
		for j := range p.Cands[i] {
			for _, eu := range p.Cands[i][j].Edges {
				k := topo.EdgeKey{Layer: int(eu.Layer), Idx: int(eu.Idx)}
				perObj[k] = max(perObj[k], int(eu.N))
				e := edges[k]
				if e == nil {
					e = &edgeAgg{}
					edges[k] = e
					order = append(order, k)
				}
				e.terms = append(e.terms, Term{Var: xIdx[i][j], Coef: float64(eu.N)})
			}
		}
		for k, mx := range perObj {
			edges[k].maxSum += mx
		}
	}
	for _, k := range order {
		x, y := p.Grid.EdgeCell(k.Layer, k.Idx)
		if c := p.Grid.Cap(k.Layer, x, y); edges[k].maxSum > c {
			m.AddLazyConstraint(edges[k].terms, float64(c))
		}
	}
	for k, pr := range pairs {
		m.SetObj(nx+k, pr.cost)
		m.AddLazyConstraint([]Term{{pr.x1, 1}, {pr.x2, 1}, {nx + k, -1}}, 1)
	}
	return m
}

// TestDenseReferenceIndustry compares the kernels on formulation (3) of
// the Industry presets at scales 0.06-0.1, the LP shapes the benchmark
// solves: thousands of columns, mostly sparse pivot rows.
func TestDenseReferenceIndustry(t *testing.T) {
	if testing.Short() {
		t.Skip("dense reference on Industry models is slow")
	}
	var tally lpTally
	for n := 1; n <= 7; n++ {
		scale := 0.06 + 0.04*float64(n-1)/6
		d := benchgen.Scale(benchgen.Industry(n), scale).Generate()
		p, err := route.Build(d, route.Options{})
		if err != nil {
			t.Fatalf("Industry%d@%.2f: %v", n, scale, err)
		}
		rng := rand.New(rand.NewSource(int64(n)))
		checkModelLPs(t, fmt.Sprintf("Industry%d@%.2f", n, scale), formulation3(p), rng, 2, &tally)
	}
	t.Logf("%+v", tally)
}

// sameResult compares two solve results bit-for-bit (runtime excluded).
func sameResult(t *testing.T, trial int, got, want Result) {
	t.Helper()
	if got.Status != want.Status {
		t.Fatalf("trial %d: status %v, want %v", trial, got.Status, want.Status)
	}
	if math.Float64bits(got.Obj) != math.Float64bits(want.Obj) {
		t.Fatalf("trial %d: obj %x, want %x", trial, math.Float64bits(got.Obj), math.Float64bits(want.Obj))
	}
	if got.Nodes != want.Nodes {
		t.Fatalf("trial %d: nodes %d, want %d (search trajectories diverged)", trial, got.Nodes, want.Nodes)
	}
	if len(got.X) != len(want.X) {
		t.Fatalf("trial %d: |X| %d, want %d", trial, len(got.X), len(want.X))
	}
	for i := range got.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
			t.Fatalf("trial %d: X[%d] %v, want %v", trial, i, got.X[i], want.X[i])
		}
	}
}

// TestCancellationMidSolve cancels solves at staggered points: every run
// must come back without panicking, and the pooled workspace it hands back
// must be clean — a solve afterwards still matches a reference solve taken
// before any cancellation, bit for bit.
func TestCancellationMidSolve(t *testing.T) {
	m := sweepModel(101)
	ref := Solve(m, SolveOptions{})
	for trial := 0; trial < 25; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func(d time.Duration) {
			time.Sleep(d)
			cancel()
		}(time.Duration(trial%5) * 100 * time.Microsecond)
		// Any terminal status is legitimate — a cancel landing inside the
		// root relaxation surfaces as an infeasible root.
		_ = Solve(m, SolveOptions{Ctx: ctx})
		cancel()
		sameResult(t, trial, Solve(m, SolveOptions{}), ref)
	}
}

// TestPriceMatchesFullScan checks the bitset pricing against the dense
// kernel's scan of every column, under both Dantzig's and Bland's rule, on
// random workspace states near the tolerance edges and after re-testing
// the columns a random change touched.
func TestPriceMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	scan := func(st *lpState, bland bool) int {
		enter, best := -1, tol
		for j := 0; j < st.ncols; j++ {
			if st.inBasis[j] || st.colLo[j] == st.colHi[j] {
				continue
			}
			var viol float64
			if !st.atUpper[j] && st.objRow[j] < -tol {
				viol = -st.objRow[j]
			} else if st.atUpper[j] && st.objRow[j] > tol {
				viol = st.objRow[j]
			} else {
				continue
			}
			if bland {
				return j
			}
			if viol > best {
				best, enter = viol, j
			}
		}
		return enter
	}
	values := []float64{0, tol, -tol, 2 * tol, -2 * tol, 0.5, -0.5, 1, -1}
	for trial := 0; trial < 500; trial++ {
		ncols := 1 + rng.Intn(200)
		st := &lpState{ncols: ncols}
		st.inBasis = make([]bool, ncols)
		st.atUpper = make([]bool, ncols)
		st.colLo, st.colHi = make([]float64, ncols), make([]float64, ncols)
		st.objRow = make([]float64, ncols)
		randomize := func(j int) {
			st.inBasis[j] = rng.Intn(4) == 0
			st.atUpper[j] = rng.Intn(2) == 0
			st.colHi[j] = float64(rng.Intn(5) % 2) // fixed at 0 two times in five
			st.objRow[j] = values[rng.Intn(len(values))]
		}
		for j := 0; j < ncols; j++ {
			randomize(j)
		}
		st.elig = make([]uint64, (ncols+63)/64)
		for j := 0; j < ncols; j++ {
			st.retest(j)
		}
		for step := 0; step < 5; step++ {
			for _, bland := range []bool{false, true} {
				if got, want := st.price(bland), scan(st, bland); got != want {
					t.Fatalf("trial %d step %d bland %v: price %d, full scan %d", trial, step, bland, got, want)
				}
			}
			for k := rng.Intn(4); k >= 0; k-- {
				j := rng.Intn(ncols)
				randomize(j)
				st.retest(j)
			}
		}
	}
}
