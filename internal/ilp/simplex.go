package ilp

import (
	"context"
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"

	"repro/internal/faultinject"
)

// lpStatus reports the outcome of an LP relaxation solve.
type lpStatus int

const (
	lpOptimal lpStatus = iota
	lpInfeasible
	lpIterLimit
)

// lpResult carries the solution of one LP relaxation.
type lpResult struct {
	status lpStatus
	x      []float64 // structural variable values
	obj    float64
	iters  int // simplex iterations spent (pivots + bound flips)
	// pivots counts basis changes (iters minus bound flips); pivotNNZ sums
	// the pivot rows' nonzero counts, the work the row update scales with.
	pivots, pivotNNZ int
}

// lpState is the simplex workspace: one dense tableau with its basis
// bookkeeping, the pivot row's nonzero columns and the eligible-column
// bitset. Branch and bound solves one relaxation at a time, so a Solve call
// reuses a single pooled state for all of them; every buffer keeps its
// capacity, and steady-state solving allocates (almost) nothing per node.
type lpState struct {
	n, rows, ncols int
	t              [][]float64
	basis          []int
	xB             []float64
	atUpper        []bool
	inBasis        []bool
	colLo, colHi   []float64
	cost, objRow   []float64
	// nz lists, ascending, the nonzero columns of the last pivot row.
	nz []int
	// sorted is ascending's buffer for a row whose terms are out of order.
	sorted []Term
	// elig has bit j set while column j may enter the basis: nonbasic, not
	// fixed, and with a reduced cost past tol in its descent direction.
	elig []uint64
	// fresh is true until the state's first use; it lets Solve report
	// pooled-vs-fresh acquisitions.
	fresh bool
}

var lpStatePool = sync.Pool{New: func() any { return &lpState{fresh: true} }}

func getState() *lpState { return lpStatePool.Get().(*lpState) }

func putState(st *lpState) { lpStatePool.Put(st) }

// zeroed returns s resized to n zero elements, reusing its capacity.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func (st *lpState) nbVal(j int) float64 {
	if st.atUpper[j] {
		return st.colHi[j]
	}
	return st.colLo[j]
}

// solve minimizes the model objective over the LP relaxation with the given
// per-variable bounds, using a bounded-variable primal simplex on a dense
// tableau built from the all-slack basis. Rows that start infeasible
// (possible once branching fixes lower bounds to 1) get Big-M artificial
// variables. A non-zero deadline or a done context aborts long solves with
// lpIterLimit so the branch-and-bound time limit and cancellation hold even
// when a single relaxation is expensive.
func (st *lpState) solve(ctx context.Context, m *Model, cons []constraint, lo, hi []float64, deadline time.Time) lpResult {
	// Fault seam: an injected error reports this relaxation infeasible (the
	// node is pruned; at the root the whole solve turns infeasible), a delay
	// stretches the relaxation past the branch-and-bound deadline.
	if err := faultinject.Fire(ctx, faultinject.Simplex); err != nil {
		return lpResult{status: lpInfeasible}
	}
	n := len(m.obj)
	rows := len(cons)
	if n == 0 {
		return lpResult{status: lpOptimal, x: nil, obj: 0}
	}
	// Column layout: [0,n) structural, [n,n+rows) slack, then one
	// artificial per row that starts infeasible. Bounds per column;
	// artificials and slacks are [0, +inf). At most every row gets an
	// artificial, which bounds the column count.
	atUpper := zeroed(st.atUpper, n+2*rows)
	for j := 0; j < n; j++ {
		// Start nonbasic structurals at the bound nearer the objective
		// descent direction to reduce iterations.
		if m.obj[j] < 0 && !math.IsInf(hi[j], 1) {
			atUpper[j] = true
		}
		if lo[j] == hi[j] {
			atUpper[j] = false
		}
	}

	// Initial basic values: a row whose slack would start negative is
	// negated and gets an artificial. The activity sums the row's terms in
	// ascending column order, as a dot product over the dense row would.
	basis := zeroed(st.basis, rows)
	xB := zeroed(st.xB, rows)
	arts := 0
	for i, con := range cons {
		terms := st.ascending(con.terms)
		act := 0.0
		for _, tm := range terms {
			if atUpper[tm.Var] {
				act += tm.Coef * hi[tm.Var]
			} else {
				act += tm.Coef * lo[tm.Var]
			}
		}
		slack := con.rhs - act
		if slack >= 0 {
			basis[i] = n + i
			xB[i] = slack
			continue
		}
		basis[i] = -1 // artificial, numbered below
		xB[i] = -slack
		arts++
	}

	ncols := n + rows + arts
	st.n, st.rows, st.ncols = n, rows, ncols
	colLo := zeroed(st.colLo, ncols)
	colHi := zeroed(st.colHi, ncols)
	cost := zeroed(st.cost, ncols)
	atUpper = atUpper[:ncols]
	copy(colLo, lo)
	copy(colHi, hi)
	copy(cost, m.obj)
	for j := n; j < ncols; j++ {
		colHi[j] = inf
	}
	// Big-M cost for artificials, scaled to dominate any structural cost.
	bigM := 1.0
	for _, c := range m.obj {
		bigM += math.Abs(c)
	}
	bigM *= 1e4
	for j := n + rows; j < ncols; j++ {
		cost[j] = bigM
	}

	// Dense tableau rows, and the objective row (reduced costs)
	// d_j = c_j - c_B' T_j, maintained by pivoting alongside the tableau.
	// Only artificial rows carry a basic cost.
	if cap(st.t) < rows {
		st.t = append(st.t[:cap(st.t)], make([][]float64, rows-cap(st.t))...)
	}
	st.t = st.t[:rows]
	objRow := zeroed(st.objRow, ncols)
	copy(objRow, cost)
	inBasis := zeroed(st.inBasis, ncols)
	art := n + rows
	for i, con := range cons {
		row := zeroed(st.t[i], ncols)
		st.t[i] = row
		sign := 1.0
		if basis[i] < 0 {
			sign = -1
			basis[i] = art
			row[art] = 1
			art++
		}
		for _, tm := range con.terms {
			row[tm.Var] = sign * tm.Coef
		}
		row[n+i] = sign
		inBasis[basis[i]] = true
		if sign < 0 {
			for _, tm := range con.terms {
				objRow[tm.Var] -= bigM * row[tm.Var]
			}
			objRow[n+i] -= bigM * row[n+i]
			objRow[basis[i]] -= bigM * row[basis[i]]
		}
	}
	st.basis, st.xB, st.inBasis, st.objRow = basis, xB, inBasis, objRow
	st.colLo, st.colHi, st.cost, st.atUpper = colLo, colHi, cost, atUpper

	res := st.primal(ctx, deadline)
	if res.status == lpOptimal {
		x, obj, status := st.extract(m)
		res.x, res.obj, res.status = x, obj, status
	}
	return res
}

// ascending returns terms in ascending column order: terms itself when it
// already is (the usual case), else a sorted copy in st.sorted.
func (st *lpState) ascending(terms []Term) []Term {
	for k := 1; k < len(terms); k++ {
		if terms[k].Var < terms[k-1].Var {
			st.sorted = append(st.sorted[:0], terms...)
			slices.SortFunc(st.sorted, func(a, b Term) int { return a.Var - b.Var })
			return st.sorted
		}
	}
	return terms
}

// primal runs the bounded-variable primal simplex loop on the state until
// optimality, iteration limit, deadline, or cancellation. The result
// carries the terminal status (lpOptimal or lpIterLimit) and the work
// counts, but no solution.
func (st *lpState) primal(ctx context.Context, deadline time.Time) lpResult {
	rows, ncols := st.rows, st.ncols
	t, basis, xB := st.t, st.basis, st.xB
	atUpper, inBasis := st.atUpper, st.inBasis
	colLo, colHi := st.colLo, st.colHi

	st.elig = zeroed(st.elig, (ncols+63)/64)
	for j := 0; j < ncols; j++ {
		st.retest(j)
	}

	var res lpResult
	maxIter := 200 * (rows + ncols + 10)
	blandAfter := 20 * (rows + ncols + 10)
	iter := 0
	for ; ; iter++ {
		res.iters = iter
		if iter > maxIter {
			res.status = lpIterLimit
			return res
		}
		if iter%64 == 63 {
			if !deadline.IsZero() && time.Now().After(deadline) {
				res.status = lpIterLimit
				return res
			}
			if ctx.Err() != nil {
				res.status = lpIterLimit
				return res
			}
		}

		// Entering variable: a nonbasic column whose reduced cost allows
		// descent from its current bound.
		enter := st.price(iter > blandAfter)
		if enter == -1 {
			break // optimal
		}
		dir := 1.0
		if atUpper[enter] {
			dir = -1
		}

		// Ratio test: the entering variable moves by dir*tstep from its
		// bound; basic variables must stay within their own bounds and the
		// entering variable within its span.
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
			// Strictly better limit wins; near-ties prefer the smaller
			// basis index (Bland-style, guards against cycling).
			if limit < tstep-tol || (limit < tstep+tol && leave != -1 && basis[i] < basis[leave]) {
				if limit < tstep {
					tstep = limit
				}
				leave, leaveToUpper = i, toUpper
			}
		}
		if math.IsInf(tstep, 1) {
			// Unbounded descent cannot happen with bounded structurals and
			// slack-only rays; treat as numeric trouble.
			res.status = lpIterLimit
			return res
		}

		if leave == -1 {
			// Bound flip: entering moves to its opposite bound. Only its
			// own eligibility can change.
			delta := dir * tstep
			for i := 0; i < rows; i++ {
				xB[i] -= t[i][enter] * delta
			}
			atUpper[enter] = !atUpper[enter]
			st.retest(enter)
			continue
		}

		// Pivot: entering becomes basic at value bound + dir*tstep.
		newVal := st.nbVal(enter) + dir*tstep
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

		st.pivot(leave, enter)
		res.pivots++
		res.pivotNNZ += len(st.nz)
		// Reduced costs moved only on the pivot row's nonzero columns. The
		// entering and leaving columns, whose basis status changed, are
		// among them: a basic column is nonzero in its own row and zero in
		// every other, and pivots on other rows leave it so.
		for _, j := range st.nz {
			st.retest(j)
		}
	}
	res.status = lpOptimal
	return res
}

// eligible reports whether column j may enter the basis.
func (st *lpState) eligible(j int) bool {
	if st.inBasis[j] || st.colLo[j] == st.colHi[j] {
		return false
	}
	if st.atUpper[j] {
		return st.objRow[j] > tol
	}
	return st.objRow[j] < -tol
}

// retest refreshes column j's bit in the eligible set.
func (st *lpState) retest(j int) {
	if st.eligible(j) {
		st.elig[j>>6] |= 1 << (j & 63)
	} else {
		st.elig[j>>6] &^= 1 << (j & 63)
	}
}

// price picks the entering column from the eligible set, or -1 at
// optimality. The set is scanned in ascending column order, so Dantzig's
// rule (largest violation, strict > keeps the lowest index on ties) and
// Bland's rule (first eligible column) choose exactly what a scan of every
// column would.
func (st *lpState) price(bland bool) int {
	enter, best := -1, tol
	for w, word := range st.elig {
		for word != 0 {
			j := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			if bland {
				return j
			}
			viol := st.objRow[j]
			if !st.atUpper[j] {
				viol = -viol
			}
			if viol > best {
				best, enter = viol, j
			}
		}
	}
	return enter
}

// pivot performs the tableau row reduction making column enter basic in row
// leave, updating the reduced-cost row alongside. It scales the pivot row,
// records its nonzero columns in st.nz, and updates every other row only
// there: at a zero pivot-row entry the dense update x - f*0 could change
// nothing but the sign of a zero, which no comparison or division in the
// solver can observe.
func (st *lpState) pivot(leave, enter int) {
	t, objRow := st.t, st.objRow
	prow := t[leave]
	invPiv := 1 / prow[enter]
	nz := st.nz[:0]
	for j, v := range prow {
		if v != 0 {
			v *= invPiv
			prow[j] = v
			if v != 0 {
				nz = append(nz, j)
			}
		}
	}
	st.nz = nz
	for i, ri := range t {
		if i == leave {
			continue
		}
		f := ri[enter]
		if f == 0 {
			continue
		}
		for _, j := range nz {
			ri[j] -= f * prow[j]
		}
		ri[enter] = 0 // exact zero against drift
	}
	if f := objRow[enter]; f != 0 {
		for _, j := range nz {
			objRow[j] -= f * prow[j]
		}
		objRow[enter] = 0
	}
}

// extract reads the structural solution and its objective off an optimal
// state. Any artificial still carrying value means the constraints cannot
// be satisfied under the given bounds.
func (st *lpState) extract(m *Model) ([]float64, float64, lpStatus) {
	n, rows := st.n, st.rows
	x := make([]float64, n)
	for j := 0; j < n; j++ {
		x[j] = st.nbVal(j)
	}
	for i, b := range st.basis {
		if b < n {
			x[b] = st.xB[i]
		} else if b >= n+rows && st.xB[i] > 1e-6 {
			return nil, 0, lpInfeasible
		}
	}
	obj := 0.0
	lo, hi := st.colLo, st.colHi
	for j := 0; j < n; j++ {
		// Clamp tiny numeric drift back into bounds.
		if x[j] < lo[j] {
			x[j] = lo[j]
		}
		if x[j] > hi[j] {
			x[j] = hi[j]
		}
		obj += m.obj[j] * x[j]
	}
	return x, obj, lpOptimal
}
