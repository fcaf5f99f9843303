package core

import (
	"testing"
	"time"

	"repro/internal/benchgen"
	"repro/internal/postopt"
	"repro/internal/route"
)

func testProblem(t *testing.T) *route.Problem {
	t.Helper()
	d := benchgen.Scale(benchgen.Industry(1), 0.04).Generate()
	p, err := route.Build(d, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunPrimalDual(t *testing.T) {
	d := benchgen.Scale(benchgen.Industry(1), 0.04).Generate()
	res, err := Run(d, Options{Method: PrimalDual})
	if err != nil {
		t.Fatal(err)
	}
	if res.Routing == nil || res.Usage == nil {
		t.Fatal("missing routing state")
	}
	if res.Usage.Overflow() != 0 {
		t.Errorf("overflow = %d", res.Usage.Overflow())
	}
	if res.Metrics.Bench != d.Name {
		t.Errorf("metrics bench = %s", res.Metrics.Bench)
	}
	if res.Metrics.Runtime <= 0 {
		t.Error("runtime not captured")
	}
}

func TestRunILPWithWarmStart(t *testing.T) {
	p := testProblem(t)
	res, err := RunProblem(p, Options{
		Method:       ILP,
		ILPTimeLimit: 10 * time.Second,
		ILPWarmStart: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	pdRes, err := RunProblem(p, Options{Method: PrimalDual})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut && res.Metrics.RoutedGroups < pdRes.Metrics.RoutedGroups {
		t.Errorf("optimal ILP routed %d < PD %d groups", res.Metrics.RoutedGroups, pdRes.Metrics.RoutedGroups)
	}
}

func TestRunPostOptPipeline(t *testing.T) {
	p := testProblem(t)
	plain, err := RunProblem(p, Options{Method: PrimalDual})
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunProblem(p, Options{
		Method: PrimalDual, PostOpt: true, Clustering: true, Refinement: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if full.Metrics.RoutedGroups < plain.Metrics.RoutedGroups {
		t.Errorf("post-opt lost groups: %d -> %d", plain.Metrics.RoutedGroups, full.Metrics.RoutedGroups)
	}
	if full.Metrics.VioDst > full.VioBefore {
		t.Errorf("refinement increased violations: %d -> %d", full.VioBefore, full.Metrics.VioDst)
	}
	if full.Usage.Overflow() != 0 {
		t.Error("post-opt overflowed")
	}
}

func TestRunRejectsUnknownMethod(t *testing.T) {
	p := testProblem(t)
	if _, err := RunProblem(p, Options{Method: Method(99)}); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestRunRejectsInvalidDesign(t *testing.T) {
	d := benchgen.Scale(benchgen.Industry(1), 0.04).Generate()
	d.Grid.W = 1
	if _, err := Run(d, Options{}); err == nil {
		t.Fatal("invalid design accepted")
	}
}

func TestMethodString(t *testing.T) {
	if PrimalDual.String() != "Primal-Dual" || ILP.String() != "ILP" {
		t.Error("method names wrong")
	}
}

func TestVioBeforeWithoutPostOpt(t *testing.T) {
	p := testProblem(t)
	res, err := RunProblem(p, Options{Method: PrimalDual})
	if err != nil {
		t.Fatal(err)
	}
	if res.VioBefore != res.Metrics.VioDst {
		t.Errorf("without post-opt VioBefore %d != VioDst %d", res.VioBefore, res.Metrics.VioDst)
	}
}

// TestVioCountsMatchRecount pins the single Vio(dst) evaluation per
// routing state against full recounts. Industry6@0.18 (the golden
// clustering preset) has violations that refinement fixes, so VioBefore
// and VioDst differ there: VioBefore must equal a count of the clustered
// routing (the same flow with refinement off), and Metrics.VioDst a count
// of the final routing, on the PD-only, clustered and refined flows.
func TestVioCountsMatchRecount(t *testing.T) {
	p, err := route.Build(benchgen.Scale(benchgen.Industry(6), 0.18).Generate(), route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	run := func(opt Options) *Result {
		t.Helper()
		res, err := RunProblem(p, opt)
		if err != nil {
			t.Fatal(err)
		}
		if n := postopt.CountViolatedGroups(p.Design, res.Routing, opt.Post); res.Metrics.VioDst != n {
			t.Errorf("%+v: Metrics.VioDst = %d, recount %d", opt, res.Metrics.VioDst, n)
		}
		return res
	}
	run(Options{Method: PrimalDual})
	clustered := run(Options{Method: PrimalDual, PostOpt: true, Clustering: true})
	if clustered.VioBefore != clustered.Metrics.VioDst {
		t.Errorf("refinement off: VioBefore %d != VioDst %d", clustered.VioBefore, clustered.Metrics.VioDst)
	}
	refined := run(Options{Method: PrimalDual, PostOpt: true, Clustering: true, Refinement: true})
	if refined.VioBefore != clustered.VioBefore {
		t.Errorf("refined flow VioBefore = %d, count of the clustered routing %d", refined.VioBefore, clustered.VioBefore)
	}
	if refined.Refine.PinsFixed == 0 || refined.VioBefore == refined.Metrics.VioDst {
		t.Errorf("refinement fixed %d pins, Vio(dst) %d -> %d: the design no longer exercises a detour",
			refined.Refine.PinsFixed, refined.VioBefore, refined.Metrics.VioDst)
	}
}
