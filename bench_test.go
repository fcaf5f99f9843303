package streak

// Benchmarks regenerating the paper's tables and figures at reduced scale
// (go test -bench=. -benchmem). Each benchmark measures the work behind
// one table or figure of §V; the cmd/experiments binary prints the full
// paper-style rows. Custom per-op metrics report the quality numbers
// (route %, regularity, violations) alongside runtime.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/benchgen"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/hier"
	"repro/internal/ilp"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pd"
	"repro/internal/postopt"
	"repro/internal/report"
	"repro/internal/route"
	"repro/internal/scenario"
	"repro/internal/signal"
	"repro/internal/solvecache"
	"repro/internal/steiner"

	"repro/internal/geom"
)

// benchScale keeps the full bench suite fast enough for CI while
// preserving every comparison's shape.
const benchScale = 0.06

func benchProblem(b *testing.B, n int) *route.Problem {
	b.Helper()
	d := benchgen.Scale(benchgen.Industry(n), benchScale).Generate()
	p, err := route.Build(d, route.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkTable1Manual measures the manual-design baseline rows of
// Table I.
func BenchmarkTable1Manual(b *testing.B) {
	for _, n := range []int{1, 5} {
		b.Run(fmt.Sprintf("Industry%d", n), func(b *testing.B) {
			p := benchProblem(b, n)
			b.ResetTimer()
			var m metrics.Metrics
			for i := 0; i < b.N; i++ {
				res := baseline.Route(p)
				m = metrics.Compute(p.Design, res.Routing, res.Usage, postopt.Options{})
			}
			b.ReportMetric(m.RouteFrac*100, "route%")
			b.ReportMetric(float64(m.Overflow), "overflow")
		})
	}
}

// BenchmarkTable1PrimalDual measures the primal-dual rows of Table I.
func BenchmarkTable1PrimalDual(b *testing.B) {
	for _, n := range []int{1, 3, 5, 7} {
		b.Run(fmt.Sprintf("Industry%d", n), func(b *testing.B) {
			p := benchProblem(b, n)
			b.ResetTimer()
			var m metrics.Metrics
			for i := 0; i < b.N; i++ {
				res := pd.Solve(p)
				r := p.ExtractRouting(res.Assignment)
				m = metrics.Compute(p.Design, r, r.UsageOf(p.Grid), postopt.Options{})
			}
			b.ReportMetric(m.RouteFrac*100, "route%")
			b.ReportMetric(m.AvgReg*100, "reg%")
		})
	}
}

// BenchmarkTable1ILP measures the exact ILP rows of Table I (with a small
// time limit; congested cases hit it like the paper's > 3600 s rows).
func BenchmarkTable1ILP(b *testing.B) {
	for _, n := range []int{1, 7} {
		b.Run(fmt.Sprintf("Industry%d", n), func(b *testing.B) {
			p := benchProblem(b, n)
			warm := pd.Solve(p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := exact.Solve(p, exact.Options{
					TimeLimit: 2 * time.Second,
					WarmStart: &warm.Assignment,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2PostOpt measures the full Table II flow: primal-dual plus
// clustering plus refinement.
func BenchmarkTable2PostOpt(b *testing.B) {
	for _, n := range []int{1, 6} {
		b.Run(fmt.Sprintf("Industry%d", n), func(b *testing.B) {
			p := benchProblem(b, n)
			b.ResetTimer()
			var res *core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = core.RunProblem(p, core.Options{
					Method: core.PrimalDual, PostOpt: true, Clustering: true, Refinement: true,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.VioBefore), "vioBefore")
			b.ReportMetric(float64(res.Metrics.VioDst), "vioAfter")
		})
	}
}

// BenchmarkCluster measures Algorithm 3's bottom-up clustering on its own:
// postopt.ClusterAndRouteCtx on Industry6 at the table2-congested scale,
// where PD leaves bits unrouted (at benchScale clustering does no work).
// The build and the PD solve happen once outside the timer; each op starts
// from a fresh copy of the PD routing and usage.
func BenchmarkCluster(b *testing.B) {
	d := benchgen.Scale(benchgen.Industry(6), 0.18).Generate()
	p, err := route.Build(d, route.Options{})
	if err != nil {
		b.Fatal(err)
	}
	sol := pd.Solve(p)
	ctx := context.Background()
	var stats postopt.ClusterStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := p.ExtractRouting(sol.Assignment)
		u := r.UsageOf(p.Grid)
		b.StartTimer()
		if stats, err = postopt.ClusterAndRouteCtx(ctx, p, r, u, postopt.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(stats.BitsRouted), "bitsRouted")
	b.ReportMetric(float64(stats.Clusters), "clusters")
}

// BenchmarkPDSolve measures Algorithm 2's selection on its own: pd.Solve on
// Industry2 at the table1-pd scale, where PD commits hundreds of objects
// (at benchScale it does almost no work). The build happens once outside
// the timer; each op solves the same problem from scratch.
func BenchmarkPDSolve(b *testing.B) {
	d := benchgen.Scale(benchgen.Industry(2), 0.5).Generate()
	p, err := route.Build(d, route.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var res pd.Result
	for i := 0; i < b.N; i++ {
		res = pd.Solve(p)
	}
	b.ReportMetric(float64(res.Assignment.RoutedObjects()), "routed")
	b.ReportMetric(float64(res.Iterations), "iterations")
}

// BenchmarkILPSolve measures the exact selection of formulation (3) on
// its own: exact.SolveCtx on Industry4 at the ilp-exact scale (14
// branch-and-bound nodes), warm-started from the PD solution. The build and
// the PD solve happen once outside the timer; each op linearizes and solves
// from scratch. ns/pivot divides the time by the simplex basis changes, the
// unit the sparse pivot kernel works in.
func BenchmarkILPSolve(b *testing.B) {
	d := benchgen.Scale(benchgen.Industry(4), 0.2).Generate()
	p, err := route.Build(d, route.Options{})
	if err != nil {
		b.Fatal(err)
	}
	warm := pd.Solve(p).Assignment
	b.ResetTimer()
	var pivots int64
	var res exact.Result
	for i := 0; i < b.N; i++ {
		rec := obs.NewRecorder()
		ctx := obs.WithRecorder(context.Background(), rec)
		if res, err = exact.SolveCtx(ctx, p, exact.Options{WarmStart: &warm}); err != nil {
			b.Fatal(err)
		}
		if res.Status != ilp.Optimal {
			b.Fatalf("status %v", res.Status)
		}
		pivots += rec.Counters()[obs.CounterILPSimplexPivots]
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pivots), "ns/pivot")
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots")
}

// BenchmarkRouteBuild measures candidate generation where it dominates:
// route.Build of Industry2, 5 and 6 at the table1-pd scale, sequentially
// (Workers: 1), so ns/op is the work of identification, topology
// generation, 3-D expansion and the kernel fill.
func BenchmarkRouteBuild(b *testing.B) {
	var ds []*signal.Design
	for _, n := range []int{2, 5, 6} {
		ds = append(ds, benchgen.Scale(benchgen.Industry(n), 0.5).Generate())
	}
	b.ReportAllocs()
	b.ResetTimer()
	cands := 0
	for i := 0; i < b.N; i++ {
		cands = 0
		for _, d := range ds {
			p, err := route.Build(d, route.Options{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			for _, cs := range p.Cands {
				cands += len(cs)
			}
		}
	}
	b.ReportMetric(float64(cands), "candidates")
}

// BenchmarkRebuild measures incremental problem construction on an ECO
// chain: 18 seeded scenario.Mutate edits of Industry2 at the table1-pd
// scale, each rebuilt from the previous edit's problem with RebuildCtx.
// The base build and the deltas are prepared outside the timer.
func BenchmarkRebuild(b *testing.B) {
	const edits = 18
	base := benchgen.Scale(benchgen.Industry(2), 0.5).Generate()
	p0, err := route.Build(base, route.Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	chain := []*signal.Design{base}
	deltas := make([]route.Delta, edits)
	for k := 0; k < edits; k++ {
		next, _ := scenario.Mutate(r, chain[k])
		delta, ok := route.DiffDesigns(chain[k], next)
		if !ok {
			b.Fatalf("edit %d is not delta-compatible", k)
		}
		chain, deltas[k] = append(chain, next), delta
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	var kept, regen int
	for i := 0; i < b.N; i++ {
		kept, regen = 0, 0
		p := p0
		for k := 0; k < edits; k++ {
			np, stats, err := p.RebuildCtx(ctx, chain[k+1], deltas[k])
			if err != nil {
				b.Fatal(err)
			}
			p = np
			kept += stats.KeptObjects
			regen += stats.Regenerated
		}
	}
	b.ReportMetric(float64(kept), "kept")
	b.ReportMetric(float64(regen), "regenerated")
}

// BenchmarkFig11Heatmap and BenchmarkFig12Heatmap measure the congestion
// map generation for Industry7 and Industry6.
func BenchmarkFig11Heatmap(b *testing.B) { benchHeatmap(b, 7) }

// BenchmarkFig12Heatmap is the Industry6 (congested) variant.
func BenchmarkFig12Heatmap(b *testing.B) { benchHeatmap(b, 6) }

func benchHeatmap(b *testing.B, n int) {
	p := benchProblem(b, n)
	man := baseline.Route(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report.Heatmap(io.Discard, man.Usage, 56)
	}
}

// BenchmarkFig13Scalability measures primal-dual runtime growth with pin
// count — the scalability study. Sub-benchmarks are labeled with the total
// pin count; compare ns/op across them for the Fig. 13 curve.
func BenchmarkFig13Scalability(b *testing.B) {
	for _, f := range []float64{0.03, 0.06, 0.12} {
		spec := benchgen.Scale(benchgen.Industry(2), f)
		d := spec.Generate()
		p, err := route.Build(d, route.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("pins=%d", d.NumPins()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pd.Solve(p)
			}
		})
	}
}

// BenchmarkFig14Clustering measures the clustering ablation: the post
// flow with and without bottom-up clustering.
func BenchmarkFig14Clustering(b *testing.B) {
	for _, clustering := range []bool{false, true} {
		b.Run(fmt.Sprintf("clustering=%v", clustering), func(b *testing.B) {
			p := benchProblem(b, 6)
			b.ResetTimer()
			var res *core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = core.RunProblem(p, core.Options{
					Method: core.PrimalDual, PostOpt: true, Clustering: clustering, Refinement: true,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Metrics.RouteFrac*100, "route%")
			b.ReportMetric(res.Metrics.AvgReg*100, "reg%")
		})
	}
}

// BenchmarkFig15Refinement measures the refinement ablation: violations
// and wirelength with and without the detour stage.
func BenchmarkFig15Refinement(b *testing.B) {
	for _, refine := range []bool{false, true} {
		b.Run(fmt.Sprintf("refine=%v", refine), func(b *testing.B) {
			p := benchProblem(b, 7)
			b.ResetTimer()
			var res *core.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = core.RunProblem(p, core.Options{
					Method: core.PrimalDual, PostOpt: true, Clustering: true, Refinement: refine,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Metrics.VioDst), "vio")
			b.ReportMetric(res.Metrics.WL/1e5, "WLe5")
		})
	}
}

// BenchmarkAblationBendCost compares backbone generation with and without
// the bend cost (DESIGN.md ablation: bend-aware BI1S matters for signal
// groups because every bend becomes a via stack on every bit).
func BenchmarkAblationBendCost(b *testing.B) {
	pins := []geom.Point{
		geom.Pt(0, 0), geom.Pt(14, 3), geom.Pt(7, 9), geom.Pt(20, 12), geom.Pt(3, 17),
	}
	for _, w := range []int{0, 4} {
		b.Run(fmt.Sprintf("bendWeight=%d", w), func(b *testing.B) {
			var t geom.Tree
			for i := 0; i < b.N; i++ {
				t = steiner.Iterated1Steiner(pins, steiner.Options{BendWeight: w})
			}
			b.ReportMetric(float64(t.Bends()), "bends")
			b.ReportMetric(float64(t.WireLength()), "wl")
		})
	}
}

// BenchmarkAblationCandidates sweeps the candidate budget per object
// (DESIGN.md ablation: more candidates buy routability at build cost).
func BenchmarkAblationCandidates(b *testing.B) {
	d := benchgen.Scale(benchgen.Industry(5), benchScale).Generate()
	for _, maxC := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("maxCandidates=%d", maxC), func(b *testing.B) {
			// Design generation above is setup, not the measured
			// build+solve work.
			b.ResetTimer()
			var routeFrac float64
			for i := 0; i < b.N; i++ {
				p, err := route.Build(d, route.Options{MaxCandidates: maxC})
				if err != nil {
					b.Fatal(err)
				}
				res := pd.Solve(p)
				r := p.ExtractRouting(res.Assignment)
				routeFrac = metrics.Compute(d, r, nil, postopt.Options{}).RouteFrac
			}
			b.ReportMetric(routeFrac*100, "route%")
		})
	}
}

// BenchmarkAblationRegWeight sweeps the regularity weight in the selection
// objective (DESIGN.md ablation: the knob trades Avg(Reg) against cost).
func BenchmarkAblationRegWeight(b *testing.B) {
	d := benchgen.Scale(benchgen.Industry(7), benchScale).Generate()
	for _, w := range []float64{1, 20, 200} {
		b.Run(fmt.Sprintf("regWeight=%v", w), func(b *testing.B) {
			p, err := route.Build(d, route.Options{RegWeight: w})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var reg float64
			for i := 0; i < b.N; i++ {
				res := pd.Solve(p)
				r := p.ExtractRouting(res.Assignment)
				reg = metrics.AvgReg(d, r)
			}
			b.ReportMetric(reg*100, "reg%")
		})
	}
}

// BenchmarkBuildParallel measures the candidate-generation fan-out of
// route.Build on Industry7: Workers=1 is the sequential baseline,
// Workers=GOMAXPROCS the parallel build. Candidate sets are bit-identical
// across worker counts, so ns/op is the only thing that moves.
func BenchmarkBuildParallel(b *testing.B) {
	d := benchgen.Scale(benchgen.Industry(7), benchScale).Generate()
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := route.Build(d, route.Options{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPairCost measures the dense pair-cost kernel: one op is a full
// pricing sweep over every partnered candidate pair, the access pattern of
// the primal-dual and tile solvers.
func BenchmarkPairCost(b *testing.B) {
	p := benchProblem(b, 7)
	b.ResetTimer()
	var sink float64
	lookups := 0
	for n := 0; n < b.N; n++ {
		lookups = 0
		for i := range p.Cands {
			for _, q := range p.Partners(i) {
				if q < i {
					continue
				}
				for j := range p.Cands[i] {
					for r := range p.Cands[q] {
						sink += p.PairCost(i, j, q, r)
						lookups++
					}
				}
			}
		}
	}
	if sink == 0 {
		b.Log("all pair costs zero") // keep the loop un-eliminated
	}
	b.ReportMetric(float64(lookups), "lookups/op")
}

// BenchmarkHierarchicalVsMonolithic compares the paper's future-work
// divide-and-conquer exact flow (§VI) against the monolithic ILP on the
// same problem: tiles shrink each model so the exact solver finishes where
// the whole-design formulation would time out.
func BenchmarkHierarchicalVsMonolithic(b *testing.B) {
	p := benchProblem(b, 3)
	warm := pd.Solve(p)
	b.Run("monolithic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := exact.Solve(p, exact.Options{
				TimeLimit: 2 * time.Second,
				WarmStart: &warm.Assignment,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, tiles := range []int{2, 4} {
		b.Run(fmt.Sprintf("tiles=%d", tiles), func(b *testing.B) {
			var res hier.Result
			for i := 0; i < b.N; i++ {
				res = hier.Solve(p, hier.Options{Tiles: tiles, TimePerTile: time.Second})
			}
			b.ReportMetric(float64(res.Assignment.RoutedObjects()), "routedObjs")
		})
	}
}

// BenchmarkCacheHit measures the content-addressed solve cache's exact-hit
// path against the cold solve it replaces on the same design
// (BenchmarkBuildParallel's Industry7 preset). The hit serves a cached
// Result after one key computation — a canonicalization hash over the
// design — so the cold/hit ratio is the interactive-serving win for
// resubmitted designs.
func BenchmarkCacheHit(b *testing.B) {
	ctx := context.Background()
	d := benchgen.Scale(benchgen.Industry(7), benchScale).Generate()
	opt := core.Options{}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.RunCtx(ctx, d, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		sv := solvecache.NewSolver(solvecache.NewCache(4))
		if _, _, err := sv.Solve(ctx, d, opt); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, outcome, err := sv.Solve(ctx, d, opt)
			if err != nil {
				b.Fatal(err)
			}
			if outcome != solvecache.OutcomeHit {
				b.Fatalf("outcome %q, want hit", outcome)
			}
			_ = res
		}
	})
}
