package streak

import (
	"context"
	"testing"
	"time"

	"repro/internal/benchgen"
	"repro/internal/obs"
)

// TestSolveCountersRegistered runs a full Industry solve under every
// selection method — post-optimization and the legality audit on, so every
// stage that emits counters executes — and pins that each counter name the
// run emitted is in the canonical obs registry. A typo'd counter string in
// any pipeline stage silently forks a metric from its dashboards; this test
// turns that into a failure naming the unregistered counter.
func TestSolveCountersRegistered(t *testing.T) {
	d := benchgen.Scale(benchgen.Industry(1), 0.06).Generate()
	for _, method := range []Method{PrimalDual, ILP, Hierarchical} {
		opt := DefaultOptions()
		opt.Method = method
		opt.Audit = AuditWarn
		opt.ILPTimeLimit = 10 * time.Second
		opt.HierTimePerTile = 3 * time.Second
		rec := obs.NewRecorder()
		ctx := obs.WithRecorder(context.Background(), rec)
		if _, err := RouteCtx(ctx, d, opt); err != nil {
			t.Fatalf("method %v: RouteCtx: %v", method, err)
		}
		counters := rec.Counters()
		if len(counters) == 0 {
			t.Fatalf("method %v: solve emitted no counters", method)
		}
		for name := range counters {
			if !obs.KnownCounter(name) {
				t.Errorf("method %v: counter %q is not in the canonical registry (internal/obs/counters.go)", method, name)
			}
		}
		// Work counters every post-optimized solve must emit, even when a
		// stage has nothing to do (zero is a reading; absence is a bug).
		names := []string{
			obs.CounterBuildCandidates, obs.CounterBuildExpanded,
			obs.CounterClusterIterations, obs.CounterClusterPairEvals,
			obs.CounterClusterRatioEvals, obs.CounterClusterTreeFits,
		}
		switch method {
		case PrimalDual:
			names = append(names, obs.CounterPDPriceEvals)
		case ILP:
			names = append(names, obs.CounterILPSimplexPivots,
				obs.CounterILPSimplexPivotNNZ, obs.CounterILPSimplexRootIters)
		}
		for _, name := range names {
			if _, ok := counters[name]; !ok {
				t.Errorf("method %v: counter %q not emitted", method, name)
			}
		}
	}
}

// TestKnownCounterNamesSorted pins the registry accessors: the name list is
// sorted, non-empty, and agrees with KnownCounter.
func TestKnownCounterNamesSorted(t *testing.T) {
	names := obs.KnownCounterNames()
	if len(names) < 40 {
		t.Fatalf("registry suspiciously small: %d names", len(names))
	}
	for i, n := range names {
		if !obs.KnownCounter(n) {
			t.Errorf("KnownCounterNames()[%d] = %q not KnownCounter", i, n)
		}
		if i > 0 && names[i-1] >= n {
			t.Errorf("names not sorted at %d: %q >= %q", i, names[i-1], n)
		}
	}
	if obs.KnownCounter("no.such.counter") {
		t.Error("KnownCounter accepted an unregistered name")
	}
}
