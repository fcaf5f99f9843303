package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/benchgen"
	"repro/internal/obs"
)

// TestILPExactSearchCounters pins the branch-and-bound work of the two
// ilp-exact benchmark designs, solved as the benchmark solves them. The
// counts come from the dense simplex kernel; a kernel change that alters
// any pivot choice moves them, even when the optimum stays the same.
func TestILPExactSearchCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("solves two exact designs (several seconds)")
	}
	for _, tc := range []struct {
		name                    string
		n                       int
		scale                   float64
		nodes, iters, lps, lazy int64
	}{
		{"Industry3@0.15", 3, 0.15, 1, 5273, 8, 67},
		{"Industry4@0.2", 4, 0.2, 14, 52990, 77, 178},
	} {
		d := benchgen.Scale(benchgen.Industry(tc.n), tc.scale).Generate()
		rec := obs.NewRecorder()
		ctx := obs.WithRecorder(context.Background(), rec)
		res, err := RunCtx(ctx, d, Options{Method: ILP, ILPWarmStart: true, ILPTimeLimit: time.Minute})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.TimedOut {
			t.Fatalf("%s: exact solve timed out", tc.name)
		}
		c := rec.Counters()
		for _, want := range []struct {
			counter string
			value   int64
		}{
			{obs.CounterILPBBNodes, tc.nodes},
			{obs.CounterILPSimplexIters, tc.iters},
			{obs.CounterILPLPCold, tc.lps},
			{obs.CounterILPLazyActive, tc.lazy},
			{obs.CounterILPLPWarm, 0},
		} {
			if got := c[want.counter]; got != want.value {
				t.Errorf("%s: %s = %d, want %d", tc.name, want.counter, got, want.value)
			}
		}
		iters, root, pivots := c[obs.CounterILPSimplexIters], c[obs.CounterILPSimplexRootIters], c[obs.CounterILPSimplexPivots]
		if root <= 0 || root > iters || pivots <= 0 || pivots > iters || c[obs.CounterILPSimplexPivotNNZ] < pivots {
			t.Errorf("%s: root %d, pivots %d, pivot_nnz %d against %d iterations", tc.name, root, pivots, c[obs.CounterILPSimplexPivotNNZ], iters)
		}
		t.Logf("%s: root iterations %d of %d, pivots %d, mean pivot-row nonzeros %.1f", tc.name, root, iters, pivots, float64(c[obs.CounterILPSimplexPivotNNZ])/float64(pivots))
	}
}
