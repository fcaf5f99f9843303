package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pd"
	"repro/internal/postopt"
	"repro/internal/route"
	"repro/internal/scenario"
	"repro/internal/signal"
	"repro/internal/solvecache"
)

// span is one benchmark-owned interval around a call into a layer's
// public function. Spans nest through Parent; every span of one operation
// carries that operation's Op id.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"` // index into the span list, -1 for a root
	Op      string `json:"op"`
	Pass    int    `json:"pass"`
	StartNS int64  `json:"start_ns"` // wall clock, since the tracer was created
	EndNS   int64  `json:"end_ns"`
	// CPUNS is the process CPU time spent while the span was open, its
	// children's included; self times are computed from it, as the
	// end-to-end times are CPU times.
	CPUNS int64 `json:"cpu_ns"`
	// AllocBytes is the heap allocated while the span was open, its
	// children's allocations included (runtime.MemStats.TotalAlloc delta).
	AllocBytes uint64 `json:"alloc_bytes"`
}

// tracer records spans in memory from a single caller goroutine; the
// layers' own worker goroutines run inside the calls it wraps.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	op    string
	pass  int
	// counts accumulates the layers' returned statistics per pass.
	counts map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under the innermost open one. Memory statistics are
// read before the clock so the stop-the-world read is charged to the
// parent, not to the span.
func (t *tracer) start(name string) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.op, Pass: t.pass,
		StartNS: time.Since(t.t0).Nanoseconds(), CPUNS: int64(cpuTime()), AllocBytes: ms.TotalAlloc})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	endNS, endCPU := time.Since(t.t0).Nanoseconds(), int64(cpuTime())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := &t.spans[id]
	s.EndNS, s.CPUNS = endNS, endCPU-s.CPUNS
	s.AllocBytes = ms.TotalAlloc - s.AllocBytes
	t.open = t.open[:len(t.open)-1]
}

func (t *tracer) add(name string, v int) { t.counts[name] += float64(v) }

// runFlow is core.RunCtx with every layer call wrapped in a span.
func (t *tracer) runFlow(ctx context.Context, d *signal.Design, opt core.Options) (*core.Result, error) {
	id := t.start("core.run")
	defer t.end(id)
	sp := t.start("route.build")
	p, err := route.BuildCtx(ctx, d, opt.Route)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	t.countProblem(p)
	return t.runProblem(ctx, p, opt)
}

func (t *tracer) countProblem(p *route.Problem) {
	t.add("route.objects", len(p.Objects))
	for _, cs := range p.Cands {
		t.add("route.candidates", len(cs))
	}
}

// runProblem is core.RunProblemCtx, without a fallback chain, with every
// layer call wrapped in a span, in the order RunProblemCtx makes them.
// A caller that already opened a core.run span gets no second one.
func (t *tracer) runProblem(ctx context.Context, p *route.Problem, opt core.Options) (*core.Result, error) {
	if n := len(t.open); n == 0 || t.spans[t.open[n-1]].Name != "core.run" {
		id := t.start("core.run")
		defer t.end(id)
	}
	res := &core.Result{Problem: p, SolverUsed: opt.Method.String()}
	var err error
	switch opt.Method {
	case core.PrimalDual:
		sp := t.start("pd.solve")
		var r pd.Result
		r, err = pd.SolveCtx(ctx, p)
		t.end(sp)
		t.add("pd.iterations", r.Iterations)
		res.Assignment = r.Assignment
		if errors.Is(err, context.DeadlineExceeded) {
			res.TimedOut, err = true, nil
		}
	case core.ILP:
		res.Assignment, res.TimedOut, err = t.solveILP(ctx, p, opt)
	default:
		err = fmt.Errorf("traced flow supports PD and ILP, not %s", opt.Method)
	}
	if err != nil {
		return nil, err
	}

	sp := t.start("route.extract")
	res.Routing = p.ExtractRouting(res.Assignment)
	res.Usage = res.Routing.UsageOf(p.Grid)
	t.end(sp)
	var postErr error
	if opt.PostOpt && opt.Clustering {
		sp := t.start("postopt.cluster")
		res.Cluster, postErr = postopt.ClusterAndRouteCtx(ctx, p, res.Routing, res.Usage, opt.Post)
		t.end(sp)
		t.add("postopt.cluster.bits_routed", res.Cluster.BitsRouted)
		t.add("postopt.cluster.bits_left", res.Cluster.BitsLeft)
		t.add("postopt.cluster.clusters", res.Cluster.Clusters)
	}
	sp = t.start("postopt.count_violated")
	res.VioBefore = postopt.CountViolatedGroups(p.Design, res.Routing, opt.Post)
	t.end(sp)
	if opt.PostOpt && opt.Refinement && postErr == nil {
		sp := t.start("postopt.refine")
		res.Refine, postErr = postopt.RefineCtx(ctx, p, res.Routing, res.Usage, opt.Post)
		t.end(sp)
		t.add("postopt.refine.pins_fixed", res.Refine.PinsFixed)
		t.add("postopt.refine.pins_left", res.Refine.PinsLeft)
	}
	if postErr != nil {
		if !errors.Is(postErr, context.DeadlineExceeded) {
			return nil, postErr
		}
		res.TimedOut = true
	}
	sp = t.start("metrics.compute")
	res.Metrics = metrics.Compute(p.Design, res.Routing, res.Usage, opt.Post)
	t.end(sp)
	return res, nil
}

// solveILP mirrors core's ILP rung: the time limit becomes a deadline and
// the primal-dual solution warm-starts branch and bound.
func (t *tracer) solveILP(ctx context.Context, p *route.Problem, opt core.Options) (route.Assignment, bool, error) {
	if opt.ILPTimeLimit > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.ILPTimeLimit)
		defer cancel()
	}
	eopt := exact.Options{MaxVars: opt.ILPMaxVars}
	if opt.ILPWarmStart {
		sp := t.start("pd.solve")
		warm, err := pd.SolveCtx(ctx, p)
		t.end(sp)
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return route.Assignment{}, false, err
		}
		t.add("pd.iterations", warm.Iterations)
		eopt.WarmStart = &warm.Assignment
	}
	sp := t.start("exact.solve")
	r, err := exact.SolveCtx(ctx, p, eopt)
	t.end(sp)
	if err != nil {
		return route.Assignment{}, false, err
	}
	t.add("exact.vars", r.Vars)
	t.add("exact.cons", r.Cons)
	return r.Assignment, r.TimedOut, nil
}

// shadowCache replays solvecache.Solver.Solve's decisions from public
// calls so each layer call can be spanned: exact hits by content key,
// otherwise an incremental rebuild from the most recently used entry
// (one family: every chain design shares grid shape, group count and
// options), otherwise a cold solve. No entry is evicted because a pass
// fits solvecache.DefaultSize (see ecoRequests). The traced run checks
// that every request gets the same outcome and output as the real Solver.
type shadowCache struct {
	byKey map[solvecache.Key]*shadowEntry
	mru   *shadowEntry
}

type shadowEntry struct {
	design *signal.Design
	res    *core.Result
}

func (sc *shadowCache) insert(k solvecache.Key, d *signal.Design, res *core.Result) {
	e := &shadowEntry{design: d, res: res}
	sc.byKey[k] = e
	sc.mru = e
}

// serve is one traced request, in solvecache.Solver.Solve's call order.
func (t *tracer) serve(ctx context.Context, sc *shadowCache, d *signal.Design, opt core.Options) (*core.Result, solvecache.Outcome, error) {
	id := t.start("solvecache.serve")
	defer t.end(id)
	sp := t.start("solvecache.key")
	key := solvecache.KeyFor(d, opt)
	t.end(sp)
	if e := sc.byKey[key]; e != nil {
		sc.mru = e
		res := *e.res
		res.Metrics.Bench = d.Name
		return &res, solvecache.OutcomeHit, nil
	}
	outcome := solvecache.OutcomeCold
	if base := sc.mru; base != nil {
		sp := t.start("route.diff")
		delta, ok := route.DiffDesigns(base.design, d)
		t.end(sp)
		if ok {
			res, err := t.incremental(ctx, sc, base, d, opt, delta, key)
			if res != nil || err != nil {
				return res, solvecache.OutcomeIncremental, err
			}
			outcome = solvecache.OutcomeColdFallback
		}
	}
	res, err := t.runFlow(ctx, d, opt)
	if err != nil {
		return nil, outcome, err
	}
	if !res.TimedOut && !res.Degraded {
		sp := t.start("audit.check")
		rep := audit.CheckCtx(ctx, d, res.Problem.Grid, res.Routing)
		t.end(sp)
		if rep.OK() {
			sc.insert(key, scenario.CloneDesign(d), res)
		}
	}
	return res, outcome, nil
}

// incremental mirrors the Solver's incremental path; (nil, nil) means
// the attempt was abandoned for a cold solve.
func (t *tracer) incremental(ctx context.Context, sc *shadowCache, base *shadowEntry, d *signal.Design, opt core.Options, delta route.Delta, key solvecache.Key) (*core.Result, error) {
	dc := scenario.CloneDesign(d)
	sp := t.start("route.rebuild")
	np, st, err := base.res.Problem.RebuildCtx(ctx, dc, delta)
	t.end(sp)
	if err != nil {
		return nil, ctx.Err()
	}
	t.add("route.rebuild.kept", st.KeptObjects)
	t.add("route.rebuild.regenerated", st.Regenerated)
	t.countProblem(np)
	res, err := t.runProblem(ctx, np, opt)
	if err != nil {
		return nil, ctx.Err()
	}
	sp = t.start("audit.check")
	rep := audit.CheckCtx(ctx, dc, np.Grid, res.Routing)
	t.end(sp)
	if !rep.OK() {
		return nil, nil
	}
	if !res.TimedOut && !res.Degraded {
		sc.insert(key, dc, res)
	}
	return res, nil
}

// runTraced sweeps the workload once through the spanned flow. An obs
// Recorder on the context collects the counters the layers already emit.
// The eco pass starts from a shadow cache warmed, untraced, with the real
// cold result of the base design.
func (t *tracer) runTraced(ctx context.Context, w workload, in inputs, passNo int) (pass, *obs.Recorder, error) {
	t.pass = passNo
	t.counts = map[string]float64{}
	rec := obs.NewRecorder()
	var ps pass
	if !w.eco {
		ctx = obs.WithRecorder(ctx, rec)
		ps.ops = make([]op, len(in.designs))
		t0 := now()
		for i, d := range in.designs {
			t.op = d.Name
			s := now()
			res, err := t.runFlow(ctx, d, w.opt)
			ps.ops[i] = op{id: d.Name, res: res, design: d, err: err}
			ps.ops[i].latency, ps.ops[i].cpu = s.since()
		}
		ps.wall, ps.cpu = t0.since()
		return ps, rec, nil
	}
	base := in.designs[0]
	warm, err := core.RunCtx(ctx, base, w.opt)
	if err != nil {
		return ps, nil, fmt.Errorf("warming the shadow cache with %s: %w", base.Name, err)
	}
	sc := &shadowCache{byKey: map[solvecache.Key]*shadowEntry{}}
	sc.insert(solvecache.KeyFor(base, w.opt), scenario.CloneDesign(base), warm)
	ctx = obs.WithRecorder(ctx, rec)
	ps.ops = make([]op, len(in.chain))
	t0 := now()
	for i, d := range in.chain {
		t.op = d.Name
		s := now()
		res, outcome, err := t.serve(ctx, sc, d, w.opt)
		ps.ops[i] = op{id: d.Name, outcome: outcome, res: res, design: d, err: err}
		ps.ops[i].latency, ps.ops[i].cpu = s.since()
	}
	ps.wall, ps.cpu = t0.since()
	return ps, rec, nil
}

// selfTimes sums, per span name over one pass, the self CPU time (the
// span's less its children's) and the self allocation (likewise).
func (t *tracer) selfTimes(passNo int) (self map[string]time.Duration, alloc map[string]float64) {
	self = map[string]time.Duration{}
	alloc = map[string]float64{}
	for _, s := range t.spans {
		if s.Pass != passNo {
			continue
		}
		dur := time.Duration(s.CPUNS)
		self[s.Name] += dur
		alloc[s.Name] += float64(s.AllocBytes)
		if s.Parent >= 0 {
			p := t.spans[s.Parent].Name
			self[p] -= dur
			alloc[p] -= float64(s.AllocBytes)
		}
	}
	return self, alloc
}

// layerOf names the layer a span belongs to: the prefix of its name.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// writeSpans writes every recorded span as JSON to path.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
