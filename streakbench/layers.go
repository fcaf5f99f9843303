package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/solvecache"
)

// metricDef names one metric as BENCHMARK.json lists it.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the untraced run's metrics, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"flow_norm_s", "s", "lower"},
	{"req_norm_p50_ms", "ms", "lower"},
	{"req_norm_p75_ms", "ms", "lower"},
	{"route_pct", "%", "higher"},
	{"wl", "pitch", "lower"},
	{"avg_reg_pct", "%", "higher"},
	{"dst_ok_pct", "%", "higher"},
	{"complete_pct", "%", "higher"},
	{"ok_pct", "%", "higher"},
	{"retained_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the traced run's metrics, in BENCHMARK.json order. Times
// are self times summed over one pass; counts are per pass; every value
// is the median over the run's traced passes.
var perLayer = []metricDef{
	{"route.build_s", "s", "lower"},
	{"route.build.alloc_mb", "MB", "lower"},
	{"route.objects", "count", "lower"},
	{"route.candidates", "count", "lower"},
	{"route.extract_s", "s", "lower"},
	{"route.rebuild_s", "s", "lower"},
	{"route.rebuild.kept", "count", "higher"},
	{"route.rebuild.regenerated", "count", "lower"},
	{"route.diff_s", "s", "lower"},
	{"pd.solve_s", "s", "lower"},
	{"pd.alloc_mb", "MB", "lower"},
	{"pd.iterations", "count", "lower"},
	{"pd.routed", "count", "higher"},
	{"pd.prune.checked", "count", "lower"},
	{"pd.prune.survivors", "count", "lower"},
	{"pd.prune.survival", "ratio", "higher"},
	{"exact.solve_s", "s", "lower"},
	{"exact.vars", "count", "lower"},
	{"exact.cons", "count", "lower"},
	{"ilp.bb.nodes", "count", "lower"},
	{"ilp.simplex.iterations", "count", "lower"},
	{"ilp.lp.cold", "count", "lower"},
	{"ilp.lp.warm", "count", "higher"},
	{"ilp.lazy.activated", "count", "lower"},
	{"ilp.pivots_per_lp", "pivot/LP", "lower"},
	{"postopt.cluster_s", "s", "lower"},
	{"postopt.cluster.alloc_mb", "MB", "lower"},
	{"postopt.cluster.bits_routed", "count", "higher"},
	{"postopt.cluster.bits_left", "count", "lower"},
	{"postopt.cluster.clusters", "count", "lower"},
	{"postopt.cluster.yield", "ratio", "higher"},
	{"postopt.refine_s", "s", "lower"},
	{"postopt.refine.pins_fixed", "count", "higher"},
	{"postopt.refine.pins_left", "count", "lower"},
	{"postopt.count_violated_s", "s", "lower"},
	{"metrics.compute_s", "s", "lower"},
	{"audit.check_s", "s", "lower"},
	{"audit.violations", "count", "lower"},
	{"audit.bits", "count", "higher"},
	{"audit.edges", "count", "higher"},
	{"solvecache.key_s", "s", "lower"},
	{"solvecache.hit_p50_ms", "ms", "lower"},
	{"solvecache.hits", "count", "higher"},
	{"solvecache.incrementals", "count", "higher"},
	{"solvecache.cold", "count", "lower"},
	{"solvecache.cold_fallbacks", "count", "lower"},
	{"solvecache.audit_rejects", "count", "lower"},
	{"solvecache.hit_pct", "%", "higher"},
	{"core.self_s", "s", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// measureTraced is the per-layer run. It alternates untraced passes (the
// real entry points, as in the end-to-end run) with traced passes (the
// same layer calls, each in a span) until the window has passed. Every
// traced output must equal the untraced one; the wall-time difference is
// the tracing overhead.
func measureTraced(ctx context.Context, out io.Writer, c config, in inputs) (result, error) {
	tr := newTracer()
	var plain, traced []pass
	var layer []map[string]float64
	start := time.Now()
	for {
		elapsed := time.Since(start)
		need := len(plain) == 0 || len(traced) == 0
		if (elapsed >= c.window && !need) || elapsed >= maxWindow {
			break
		}
		runtime.GC() // as in measure
		if len(plain) <= len(traced) {
			ps, err := runUntraced(ctx, c.w, in)
			if err != nil {
				return result{}, err
			}
			for i := range ps.ops {
				ps.ops[i].check(ctx)
			}
			plain = append(plain, ps)
			continue
		}
		ps, rec, err := tr.runTraced(ctx, c.w, in, len(traced))
		if err != nil {
			return result{}, err
		}
		for i := range ps.ops {
			ps.ops[i].check(ctx)
		}
		layer = append(layer, passLayerMetrics(tr, len(traced), ps, rec))
		traced = append(traced, ps)
	}
	for i := 1; i < len(plain); i++ {
		compareDigests(&plain[i], plain[0], "untraced pass 1")
	}
	for i := range traced {
		compareDigests(&traced[i], plain[0], "the untraced pass")
		if c.w.eco {
			for j := range traced[i].ops {
				o, want := &traced[i].ops[j], plain[0].ops[j].outcome
				if o.failure == "" && o.outcome != want {
					o.failure = fmt.Sprintf("traced replay served %s where solvecache.Solver served %s", o.outcome, want)
				}
			}
		}
	}
	fmt.Fprintln(out, "untraced passes:")
	res := tally(out, plain)
	fmt.Fprintln(out, "traced passes:")
	tres := tally(out, traced)
	res.Attempted += tres.Attempted
	res.Failed += tres.Failed
	res.Correct = res.Failed == 0

	vals := map[string]float64{}
	for _, d := range perLayer {
		xs := make([]float64, len(layer))
		for i, m := range layer {
			xs[i] = m[d.name]
		}
		vals[d.name] = median(xs)
	}
	plainCPU, tracedCPU := median(passSeconds(plain, true)), median(passSeconds(traced, true))
	vals["trace.overhead_pct"] = 100 * (tracedCPU - plainCPU) / plainCPU
	hits := opMS(plain, solvecache.OutcomeHit, true)
	if c.w.eco {
		st := make([][]float64, 5)
		for _, ps := range plain {
			s := ps.cache
			cold := s.Misses - s.Incrementals - s.ColdFallbacks
			for i, v := range []int64{s.Hits, s.Incrementals, cold, s.ColdFallbacks, s.AuditRejects} {
				st[i] = append(st[i], float64(v))
			}
		}
		vals["solvecache.hits"] = median(st[0])
		vals["solvecache.incrementals"] = median(st[1])
		vals["solvecache.cold"] = median(st[2])
		vals["solvecache.cold_fallbacks"] = median(st[3])
		vals["solvecache.audit_rejects"] = median(st[4])
		vals["solvecache.hit_pct"] = 100 * vals["solvecache.hits"] / float64(len(in.chain))
		vals["solvecache.hit_p50_ms"] = median(hits)
	}

	printLayerReport(out, tr, len(traced)-1, vals, plainCPU, tracedCPU, len(plain), len(traced), len(hits))
	path := fmt.Sprintf(".bench_build/spans-%s-%d.json", c.w.name, c.seed)
	if err := tr.writeSpans(path); err != nil {
		return res, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "%d spans written to %s\n", len(tr.spans), path)
	res.Metrics = map[string]value{}
	for _, d := range perLayer {
		res.Metrics[d.name] = value{vals[d.name], d.unit}
	}
	return res, nil
}

// passLayerMetrics derives one traced pass's per-layer metrics from its
// spans, the layers' returned statistics, the obs counters and the audit
// gate's reports.
func passLayerMetrics(tr *tracer, passNo int, ps pass, rec *obs.Recorder) map[string]float64 {
	self, alloc := tr.selfTimes(passNo)
	m := map[string]float64{}
	for k, v := range tr.counts {
		m[k] = v
	}
	for _, name := range []string{"route.build", "route.extract", "route.rebuild", "route.diff", "pd.solve",
		"exact.solve", "postopt.cluster", "postopt.refine", "postopt.count_violated", "metrics.compute",
		"audit.check", "solvecache.key"} {
		m[name+"_s"] = self[name].Seconds()
	}
	m["route.build.alloc_mb"] = alloc["route.build"] / (1 << 20)
	m["pd.alloc_mb"] = alloc["pd.solve"] / (1 << 20)
	m["postopt.cluster.alloc_mb"] = alloc["postopt.cluster"] / (1 << 20)
	for name, ctr := range map[string]string{
		"pd.routed":              obs.CounterPDRouted,
		"pd.prune.checked":       obs.CounterPDPruneChecked,
		"pd.prune.survivors":     obs.CounterPDPruneSurvivors,
		"ilp.bb.nodes":           obs.CounterILPBBNodes,
		"ilp.simplex.iterations": obs.CounterILPSimplexIters,
		"ilp.lp.cold":            obs.CounterILPLPCold,
		"ilp.lp.warm":            obs.CounterILPLPWarm,
		"ilp.lazy.activated":     obs.CounterILPLazyActive,
	} {
		m[name] = float64(rec.Counter(ctr))
	}
	m["pd.prune.survival"] = ratio(m["pd.prune.survivors"], m["pd.prune.checked"])
	m["ilp.pivots_per_lp"] = ratio(m["ilp.simplex.iterations"], m["ilp.lp.cold"]+m["ilp.lp.warm"])
	m["postopt.cluster.yield"] = ratio(m["postopt.cluster.bits_routed"],
		m["postopt.cluster.bits_routed"]+m["postopt.cluster.bits_left"])
	for _, o := range ps.ops {
		m["audit.violations"] += float64(len(o.audit.Violations))
		m["audit.bits"] += float64(o.audit.BitsAudited)
		m["audit.edges"] += float64(o.audit.EdgesAudited)
	}
	layers := ps.cpu
	for name, d := range self {
		if layerOf(name) != "core" {
			layers -= d
		}
	}
	m["core.self_s"] = layers.Seconds()
	return m
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// printLayerReport prints the last traced pass's per-span self CPU time
// and self allocation grouped by layer, then every per-layer metric
// (medians over the traced passes) with the base of each ratio.
func printLayerReport(out io.Writer, tr *tracer, last int, vals map[string]float64, plainCPU, tracedCPU float64, nPlain, nTraced, nHits int) {
	self, alloc := tr.selfTimes(last)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "self CPU time and self allocation by span, traced pass %d:\n", last+1)
	layerS, layerMB := map[string]float64{}, map[string]float64{}
	for _, n := range names {
		fmt.Fprintf(out, "  %-26s %10.4f s %10.1f MB\n", n, self[n].Seconds(), alloc[n]/(1<<20))
		layerS[layerOf(n)] += self[n].Seconds()
		layerMB[layerOf(n)] += alloc[n] / (1 << 20)
	}
	fmt.Fprintln(out, "by layer:")
	for _, l := range []string{"route", "pd", "exact", "postopt", "metrics", "audit", "solvecache", "core"} {
		fmt.Fprintf(out, "  %-10s %10.4f s %10.1f MB\n", l, layerS[l], layerMB[l])
	}
	fmt.Fprintf(out, "flow CPU time: untraced median %.4f s over %d passes, traced median %.4f s over %d passes\n",
		plainCPU, nPlain, tracedCPU, nTraced)
	fmt.Fprintf(out, "trace.overhead_pct %.3f = (traced %.4f s - untraced %.4f s) / untraced\n",
		vals["trace.overhead_pct"], tracedCPU, plainCPU)
	fmt.Fprintf(out, "core.self_s %.4f = traced flow CPU time less every other layer's self time\n", vals["core.self_s"])
	fmt.Fprintf(out, "pd.prune.survival %.4f = %.0f survivors / %.0f checked\n",
		vals["pd.prune.survival"], vals["pd.prune.survivors"], vals["pd.prune.checked"])
	fmt.Fprintf(out, "ilp.pivots_per_lp %.1f = %.0f simplex iterations / (%.0f cold + %.0f warm LPs)\n",
		vals["ilp.pivots_per_lp"], vals["ilp.simplex.iterations"], vals["ilp.lp.cold"], vals["ilp.lp.warm"])
	fmt.Fprintf(out, "postopt.cluster.yield %.4f = %.0f bits routed / (%.0f routed + %.0f left)\n",
		vals["postopt.cluster.yield"], vals["postopt.cluster.bits_routed"], vals["postopt.cluster.bits_routed"], vals["postopt.cluster.bits_left"])
	if nHits > 0 {
		fmt.Fprintf(out, "solvecache.hit_pct %.2f = %.0f hits / %d requests; solvecache.hit_p50_ms %.3f CPU (n=%d)\n",
			vals["solvecache.hit_pct"], vals["solvecache.hits"], ecoRequests, vals["solvecache.hit_p50_ms"], nHits)
	}
	for _, d := range perLayer {
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", d.name, vals[d.name], d.unit)
	}
}
