package ilp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestLPSimpleKnapsackRelaxation(t *testing.T) {
	// min -3a -2b s.t. a + b <= 1.5, a,b in [0,1] -> a=1, b=0.5, obj -4.
	m := NewModel(2)
	m.SetObj(0, -3)
	m.SetObj(1, -2)
	m.AddConstraint([]Term{{0, 1}, {1, 1}}, 1.5)
	res := m.solveLP(context.Background(), m.cons, []float64{0, 0}, []float64{1, 1}, time.Time{})
	if res.status != lpOptimal {
		t.Fatalf("status = %v", res.status)
	}
	if math.Abs(res.obj-(-4)) > 1e-6 {
		t.Fatalf("obj = %v, want -4", res.obj)
	}
	if math.Abs(res.x[0]-1) > 1e-6 || math.Abs(res.x[1]-0.5) > 1e-6 {
		t.Fatalf("x = %v", res.x)
	}
}

func TestLPWithFixedLowerBounds(t *testing.T) {
	// Fixing a=1 with constraint a + b <= 1 forces b=0; infeasible start
	// exercise for the Big-M artificial path is below.
	m := NewModel(2)
	m.SetObj(0, 1)
	m.SetObj(1, -1)
	m.AddConstraint([]Term{{0, 1}, {1, 1}}, 1)
	res := m.solveLP(context.Background(), m.cons, []float64{1, 0}, []float64{1, 1}, time.Time{})
	if res.status != lpOptimal {
		t.Fatalf("status = %v", res.status)
	}
	if math.Abs(res.x[1]) > 1e-6 {
		t.Fatalf("b = %v, want 0", res.x[1])
	}
}

func TestLPInfeasible(t *testing.T) {
	// a + b <= 1 with both fixed to 1.
	m := NewModel(2)
	m.AddConstraint([]Term{{0, 1}, {1, 1}}, 1)
	res := m.solveLP(context.Background(), m.cons, []float64{1, 1}, []float64{1, 1}, time.Time{})
	if res.status != lpInfeasible {
		t.Fatalf("status = %v, want infeasible", res.status)
	}
}

func TestLPNegativeRHSFeasible(t *testing.T) {
	// -a <= -0.5 means a >= 0.5; minimize a -> 0.5.
	m := NewModel(1)
	m.SetObj(0, 1)
	m.AddConstraint([]Term{{0, -1}}, -0.5)
	res := m.solveLP(context.Background(), m.cons, []float64{0}, []float64{1}, time.Time{})
	if res.status != lpOptimal || math.Abs(res.x[0]-0.5) > 1e-6 {
		t.Fatalf("res = %+v", res)
	}
}

func TestLPDegenerateAndEquality(t *testing.T) {
	// x + y <= 1 and -x - y <= -1 emulate x + y == 1; min x -> x=0,y=1.
	m := NewModel(2)
	m.SetObj(0, 1)
	m.AddConstraint([]Term{{0, 1}, {1, 1}}, 1)
	m.AddConstraint([]Term{{0, -1}, {1, -1}}, -1)
	res := m.solveLP(context.Background(), m.cons, []float64{0, 0}, []float64{1, 1}, time.Time{})
	if res.status != lpOptimal {
		t.Fatalf("status = %v", res.status)
	}
	if math.Abs(res.x[0]) > 1e-6 || math.Abs(res.x[1]-1) > 1e-6 {
		t.Fatalf("x = %v", res.x)
	}
}

func TestSolveTinyILP(t *testing.T) {
	// min -5a -4b -3c s.t. 2a+3b+c <= 5, 4a+b+2c <= 11, 3a+4b+2c <= 8.
	// Binary optimum: a=1, b=0 or 1... enumerate below to be sure.
	m := NewModel(3)
	m.SetObj(0, -5)
	m.SetObj(1, -4)
	m.SetObj(2, -3)
	for i := 0; i < 3; i++ {
		m.SetInteger(i)
	}
	m.AddConstraint([]Term{{0, 2}, {1, 3}, {2, 1}}, 5)
	m.AddConstraint([]Term{{0, 4}, {1, 1}, {2, 2}}, 11)
	m.AddConstraint([]Term{{0, 3}, {1, 4}, {2, 2}}, 8)
	res := Solve(m, SolveOptions{})
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	want := bruteForce(m)
	if math.Abs(res.Obj-want) > 1e-6 {
		t.Fatalf("obj = %v, want %v", res.Obj, want)
	}
}

func TestSolveInfeasibleILP(t *testing.T) {
	m := NewModel(2)
	m.SetInteger(0)
	m.SetInteger(1)
	m.AddConstraint([]Term{{0, -1}, {1, -1}}, -3) // a + b >= 3 impossible
	res := Solve(m, SolveOptions{})
	if res.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

// bruteForce enumerates all binary assignments (continuous vars greedily
// set to satisfy product constraints at their minimum) and returns the best
// objective. Only valid for models whose continuous variables appear in
// constraints of the form x1 + x2 - y <= 1 with nonnegative objective.
func bruteForce(m *Model) float64 {
	n := m.NumVars()
	var ints []int
	for i := 0; i < n; i++ {
		if m.integer[i] {
			ints = append(ints, i)
		}
	}
	best := inf
	x := make([]float64, n)
	for mask := 0; mask < 1<<len(ints); mask++ {
		for i := range x {
			x[i] = 0
		}
		for k, v := range ints {
			if mask&(1<<k) != 0 {
				x[v] = 1
			}
		}
		// Set continuous vars to the minimum forced by their constraints.
		for _, con := range m.cons {
			var yv = -1
			lhs := 0.0
			for _, tm := range con.terms {
				if !m.integer[tm.Var] && tm.Coef < 0 {
					yv = tm.Var
				} else {
					lhs += tm.Coef * x[tm.Var]
				}
			}
			if yv >= 0 {
				need := lhs - con.rhs
				if need > x[yv] {
					x[yv] = need
				}
			}
		}
		if !m.Feasible(x, 1e-9) {
			continue
		}
		if obj := m.Eval(x); obj < best {
			best = obj
		}
	}
	return best
}

// randomModel builds a random selection-style ILP: groups of binaries with
// sum <= 1, random capacity constraints, random costs, and a few product
// terms — the same structure route.Problem generates.
func randomModel(r *rand.Rand) *Model {
	nGroups := 2 + r.Intn(3)
	perGroup := 2 + r.Intn(2)
	nBin := nGroups * perGroup
	nProd := r.Intn(3)
	m := NewModel(nBin + nProd)
	for i := 0; i < nBin; i++ {
		m.SetInteger(i)
		m.SetObj(i, float64(1+r.Intn(20)))
	}
	for g := 0; g < nGroups; g++ {
		var terms []Term
		for k := 0; k < perGroup; k++ {
			terms = append(terms, Term{g*perGroup + k, 1})
		}
		m.AddConstraint(terms, 1)
	}
	// Capacity constraints over random subsets.
	for c := 0; c < 2+r.Intn(3); c++ {
		var terms []Term
		for i := 0; i < nBin; i++ {
			if r.Intn(3) == 0 {
				terms = append(terms, Term{i, float64(1 + r.Intn(3))})
			}
		}
		if len(terms) > 0 {
			m.AddConstraint(terms, float64(1+r.Intn(4)))
		}
	}
	// Force some binaries on: -x_a - x_b <= -1 (at least one of a pair).
	if r.Intn(2) == 0 {
		a, b := r.Intn(nBin), r.Intn(nBin)
		if a != b {
			m.AddConstraint([]Term{{a, -1}, {b, -1}}, -1)
		}
	}
	for p := 0; p < nProd; p++ {
		y := nBin + p
		m.SetObj(y, float64(1+r.Intn(30)))
		a, b := r.Intn(nBin), r.Intn(nBin)
		if a == b {
			continue
		}
		m.AddProduct(a, b, y)
	}
	return m
}

func TestSolveMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 120; trial++ {
		m := randomModel(r)
		res := Solve(m, SolveOptions{})
		want := bruteForce(m)
		if math.IsInf(want, 1) {
			if res.Status != Infeasible {
				t.Fatalf("trial %d: brute force infeasible but solver says %v (obj %v)", trial, res.Status, res.Obj)
			}
			continue
		}
		if res.Status != Optimal {
			t.Fatalf("trial %d: status = %v, want optimal (brute force obj %v)", trial, res.Status, want)
		}
		if math.Abs(res.Obj-want) > 1e-5 {
			t.Fatalf("trial %d: obj = %v, want %v (x=%v)", trial, res.Obj, want, res.X)
		}
		if !m.Feasible(res.X, 1e-5) {
			t.Fatalf("trial %d: solver returned infeasible x", trial)
		}
	}
}

func TestSolveRespectsIncumbent(t *testing.T) {
	m := NewModel(2)
	m.SetInteger(0)
	m.SetInteger(1)
	m.SetObj(0, 5)
	m.SetObj(1, 3)
	m.AddConstraint([]Term{{0, -1}, {1, -1}}, -1) // at least one on
	inc := []float64{1, 0}                        // obj 5; optimum is {0,1} obj 3
	res := Solve(m, SolveOptions{Incumbent: inc})
	if res.Status != Optimal || math.Abs(res.Obj-3) > 1e-9 {
		t.Fatalf("res = %+v", res)
	}
	// An infeasible incumbent is ignored, not trusted, and so is one of the
	// wrong length: a short one cannot be evaluated, and a long one would
	// come back as a solution longer than the model.
	for name, bad := range map[string][]float64{
		"infeasible": {0, 0},
		"short":      {1},
		"long":       {1, 0, 1},
	} {
		res = Solve(m, SolveOptions{Incumbent: bad})
		if res.Status != Optimal || math.Abs(res.Obj-3) > 1e-9 || len(res.X) != m.NumVars() {
			t.Fatalf("res with %s incumbent = %+v", name, res)
		}
	}
}

func TestSolveTimeLimit(t *testing.T) {
	// A large random model with a microscopic time limit must stop quickly
	// and report TimedOut or Feasible (if the incumbent arrived first).
	r := rand.New(rand.NewSource(7))
	nBin := 60
	m := NewModel(nBin)
	for i := 0; i < nBin; i++ {
		m.SetInteger(i)
		m.SetObj(i, float64(-1-r.Intn(50)))
	}
	for c := 0; c < 40; c++ {
		var terms []Term
		for i := 0; i < nBin; i++ {
			if r.Intn(2) == 0 {
				terms = append(terms, Term{i, float64(1 + r.Intn(5))})
			}
		}
		m.AddConstraint(terms, float64(5+r.Intn(10)))
	}
	start := time.Now()
	res := Solve(m, SolveOptions{TimeLimit: 30 * time.Millisecond})
	if el := time.Since(start); el > 3*time.Second {
		t.Fatalf("time limit ignored: ran %v", el)
	}
	if res.Status == Optimal && res.Nodes < 3 {
		t.Fatalf("suspiciously fast optimal: %+v", res)
	}
	if res.Status == Feasible && !m.Feasible(res.X, 1e-6) {
		t.Fatal("feasible status with infeasible x")
	}
}

func TestSolveMaxNodes(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	m := randomModel(r)
	res := Solve(m, SolveOptions{MaxNodes: 1})
	if res.Nodes > 1 {
		t.Fatalf("explored %d nodes with MaxNodes 1", res.Nodes)
	}
}

func TestAddConstraintMergesDuplicates(t *testing.T) {
	m := NewModel(2)
	m.AddConstraint([]Term{{0, 1}, {0, 2}, {1, 1}}, 2)
	if len(m.cons[0].terms) != 2 {
		t.Fatalf("terms = %v", m.cons[0].terms)
	}
	for _, tm := range m.cons[0].terms {
		if tm.Var == 0 && tm.Coef != 3 {
			t.Errorf("merged coef = %v, want 3", tm.Coef)
		}
	}
}

func TestAddConstraintPanicsOutOfRange(t *testing.T) {
	m := NewModel(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.AddConstraint([]Term{{5, 1}}, 1)
}

func TestFeasibleAndEval(t *testing.T) {
	m := NewModel(2)
	m.SetObj(0, 2)
	m.SetObj(1, -1)
	m.AddConstraint([]Term{{0, 1}, {1, 1}}, 1)
	if !m.Feasible([]float64{0.5, 0.5}, 1e-9) {
		t.Error("boundary point should be feasible")
	}
	if m.Feasible([]float64{1, 1}, 1e-9) {
		t.Error("violating point accepted")
	}
	if m.Feasible([]float64{-0.1, 0}, 1e-9) {
		t.Error("below-bound point accepted")
	}
	if m.Feasible([]float64{0}, 1e-9) || m.Feasible([]float64{0, 0, 0}, 1e-9) {
		t.Error("wrong-length point accepted")
	}
	if got := m.Eval([]float64{1, 1}); got != 1 {
		t.Errorf("Eval = %v", got)
	}
}

func TestProductLinearization(t *testing.T) {
	// min 10y + (-1)a + (-1)b with y >= a + b - 1: both on costs 10 - 2 = 8,
	// one on costs -1, so optimum is one on.
	m := NewModel(3)
	m.SetInteger(0)
	m.SetInteger(1)
	m.SetObj(0, -1)
	m.SetObj(1, -1)
	m.SetObj(2, 10)
	m.AddProduct(0, 1, 2)
	res := Solve(m, SolveOptions{})
	if res.Status != Optimal || math.Abs(res.Obj-(-1)) > 1e-6 {
		t.Fatalf("res = %+v, want obj -1", res)
	}
	// With a cheap product cost both go on: -1 -1 + 0.5 = -1.5.
	m2 := NewModel(3)
	m2.SetInteger(0)
	m2.SetInteger(1)
	m2.SetObj(0, -1)
	m2.SetObj(1, -1)
	m2.SetObj(2, 0.5)
	m2.AddProduct(0, 1, 2)
	res = Solve(m2, SolveOptions{})
	if res.Status != Optimal || math.Abs(res.Obj-(-1.5)) > 1e-6 {
		t.Fatalf("res = %+v, want obj -1.5", res)
	}
}

func TestStatusString(t *testing.T) {
	if Optimal.String() != "optimal" || TimedOut.String() != "timed-out" {
		t.Error("status strings wrong")
	}
}
