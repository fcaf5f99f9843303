// Command streakbench is the repository's benchmark: it routes one named
// workload of generated designs through the Streak flow for a fixed time,
// checks every output, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) as the last line of standard output in
// one JSON object.
//
//	go run . -workload table1-pd -seed 1 -seconds 20 -trace 0
//
// run.sh builds it from source and runs it from the repository root; see
// BASELINE.md for why each workload exists and what each metric should
// move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/benchgen"
	"repro/internal/core"
	"repro/internal/solvecache"
)

const (
	// setupReps is how many times set-up runs; setup_s is their median.
	setupReps = 3
	// minPasses lets every run compare output digests across passes.
	minPasses = 2
	// minEcoSamples leaves ten request latencies beyond the nearest-rank
	// p75 on eco-churn.
	minEcoSamples = 40
	// probeSamples is how many reference-kernel samples are taken before
	// set-up and before each pass.
	probeSamples = 5
	// coldSamples is how many incremental eco requests are re-solved cold.
	coldSamples = 2
	// maxWindow stops starting passes even when a minimum is unmet, so a
	// run ends well inside three minutes.
	maxWindow = 120 * time.Second
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "streakbench:", err)
	}
	os.Exit(code)
}

type config struct {
	w          workload
	seed       int64
	presetSeed int64
	window     time.Duration
	trace      bool
}

func parseFlags(args []string) (config, error) {
	var c config
	fs := flag.NewFlagSet("streakbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&c.seed, "seed", 1, "seed of the eco-churn edit chain")
	fs.Int64Var(&c.presetSeed, "preset-seed", 0, "when non-zero, generate each Industry<n> design from seed preset-seed+n instead of its benchgen preset seed")
	seconds := fs.Int("seconds", 10, "length of the measured window in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	w, ok := workloadByName(*name)
	if !ok {
		return c, fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 {
		return c, fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return c, fmt.Errorf("-trace must be 0 or 1, got %d", *traceFlag)
	}
	c.w, c.window, c.trace = w, time.Duration(*seconds)*time.Second, *traceFlag == 1
	return c, nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one benchmark run; it returns 0 when every output passed
// its checks, 1 when the run completed with failures (the result line is
// still printed), and 2 when no result could be produced.
func run(args []string, out io.Writer) (int, error) {
	c, err := parseFlags(args)
	if err != nil {
		return 2, err
	}
	// One processor: times are process CPU seconds, and with a second
	// processor the runtime's idle spinning and the host's scheduling of
	// two virtual CPUs make CPU time swing by a tenth between identical
	// runs. With one, CPU time is the work done, minus any time the host
	// stole. The layers' worker pools size themselves to it.
	runtime.GOMAXPROCS(1)
	ctx := context.Background()
	fmt.Fprintf(out, "workload %s  seed %d  GOMAXPROCS %d  window %v  trace %v\n",
		c.w.name, c.seed, runtime.GOMAXPROCS(0), c.window, c.trace)

	var speed speedProbe
	speed.sample(probeSamples)
	in, setupCPU, setupWall, err := setup(ctx, c)
	if err != nil {
		return 2, err
	}
	fmt.Fprintf(out, "inputs sha256 %s (%d designs", in.sha, len(in.designs))
	if c.w.eco {
		fmt.Fprintf(out, ", %d-request edit chain", len(in.chain))
	}
	fmt.Fprintf(out, ")\nsetup %d repetitions: CPU %s s (median %.4f), wall %s s\n",
		len(setupCPU), fmtList(setupCPU), median(setupCPU), fmtList(setupWall))

	var res result
	if c.trace {
		res, err = measureTraced(ctx, out, c, in)
	} else {
		res, err = measure(ctx, out, c, in, &speed)
		res.Metrics["setup_s"] = value{median(setupCPU) * speed.factor(), "s"}
	}
	if err != nil {
		return 2, err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return 2, err
	}
	fmt.Fprintln(out, string(b))
	if !res.Correct {
		return 1, errors.New("some outputs failed their checks (see FAIL lines)")
	}
	return 0, nil
}

// setup generates, serialises and reads back the inputs, then warms up,
// setupReps times. It returns the last inputs and each repetition's
// process CPU seconds and wall seconds. Every repetition must produce
// byte-identical inputs.
func setup(ctx context.Context, c config) (in inputs, cpu, wall []float64, err error) {
	for i := 0; i < setupReps; i++ {
		t0 := now()
		next, err := c.w.generate(c.seed, c.presetSeed)
		if err != nil {
			return in, nil, nil, err
		}
		if i > 0 && next.sha != in.sha {
			return in, nil, nil, fmt.Errorf("input generation is not deterministic: sha256 %s then %s", in.sha, next.sha)
		}
		in = next
		if err := warmUp(ctx, c.w); err != nil {
			return in, nil, nil, err
		}
		w, c := t0.since()
		cpu, wall = append(cpu, c.Seconds()), append(wall, w.Seconds())
	}
	return in, cpu, wall, nil
}

// warmUp routes a small design with the workload's options so code paths,
// worker goroutines and the heap are live before the clock starts.
func warmUp(ctx context.Context, w workload) error {
	d := benchgen.Scale(benchgen.Industry(1), 0.04).Generate()
	if _, err := core.RunCtx(ctx, d, w.opt); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// measure is the untraced run: passes exactly as users call the program,
// until the window has passed and the minimums are met.
func measure(ctx context.Context, out io.Writer, c config, in inputs, speed *speedProbe) (result, error) {
	var passes []pass
	samples := 0
	start := time.Now()
	for {
		elapsed := time.Since(start)
		need := len(passes) < minPasses || (c.w.eco && samples < minEcoSamples)
		if (elapsed >= c.window && !need) || elapsed >= maxWindow {
			break
		}
		// Every pass, and the reference kernel before it, starts from a
		// collected heap, so garbage of the last pass is not collected on
		// their clock.
		runtime.GC()
		speed.sample(probeSamples)
		ps, err := runUntraced(ctx, c.w, in)
		if err != nil {
			return result{}, err
		}
		for i := range ps.ops {
			ps.ops[i].check(ctx)
		}
		passes = append(passes, ps)
		samples += len(ps.ops)
	}
	for i := 1; i < len(passes); i++ {
		compareDigests(&passes[i], passes[0], "pass 1")
	}
	res := tally(out, passes)
	if c.w.eco {
		a, f := coldCheck(ctx, out, c.w, passes[0], pickIncremental(passes[0], c.seed))
		res.Attempted += a
		res.Failed += f
		res.Correct = res.Failed == 0
	}

	first := passes[0].ops
	var groups, routed, vio int
	var wl, reg float64
	complete := 0
	for _, ps := range passes {
		for _, o := range ps.ops {
			if !o.timedOut && o.err == nil {
				complete++
			}
		}
	}
	for _, o := range first {
		m := o.metrics
		groups += m.Groups
		routed += m.RoutedGroups
		vio += m.VioDst
		wl += m.WL
		reg += m.AvgReg
	}
	ops := len(passes) * len(first)
	cpu, lats := passSeconds(passes, true), opMS(passes, "", true)
	if !c.w.eco {
		// A batch pass repeats the same few designs, whose times differ by
		// up to twenty-fold: over the pooled samples a percentile's rank
		// lands on the edge of one design's cluster (on ilp-exact, the
		// slowest of Industry3's runs). Each design counts once instead,
		// with its median over the passes.
		lats = designMedians(passes)
	}
	wallLats := opMS(passes, "", false)
	f := speed.factor()
	fmt.Fprintf(out, "passes %d: CPU %s s, wall %s s\n", len(passes), fmtList(cpu), fmtList(passSeconds(passes, false)))
	fmt.Fprintf(out, "reference kernel: median %.3f ms CPU over %d samples; speed factor %.4f (normalised = CPU x factor)\n",
		1e3*median(speed.samples), len(speed.samples), f)
	what := "operation CPU time"
	if !c.w.eco {
		what = "per-design median CPU time"
	}
	fmt.Fprintf(out, "%s n=%d: p50 %.3f ms, p75 %.3f ms (%d samples beyond p75)\n",
		what, len(lats), percentile(lats, 0.5), percentile(lats, 0.75), beyond(len(lats), 0.75))
	fmt.Fprintf(out, "operation wall latency n=%d: p50 %.3f ms, p75 %.3f ms\n",
		len(wallLats), percentile(wallLats, 0.5), percentile(wallLats, 0.75))
	fmt.Fprintf(out, "quality over the %d operations of one pass: route %d/%d groups, WL %.0f, Vio(dst) %d groups\n",
		len(first), routed, groups, wl, vio)
	fmt.Fprintf(out, "failed_pct %.4f (%d of %d operations)\n", 100*float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	if c.w.opt.Method == core.ILP {
		fmt.Fprintf(out, "ilp_optimal_pct %.4f (%d of %d solves proven optimal)\n", 100*float64(complete)/float64(ops), complete, ops)
	}
	retained := make([]float64, len(passes))
	for i, ps := range passes {
		retained[i] = float64(ps.retained) / (1 << 20)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return res, err
	}
	fmt.Fprintf(out, "retained heap per pass %s MB; peak RSS of the process %.1f MB\n", fmtList(retained), rss)
	res.Metrics = map[string]value{
		"flow_norm_s":     {median(cpu) * f, "s"},
		"req_norm_p50_ms": {percentile(lats, 0.5) * f, "ms"},
		"req_norm_p75_ms": {percentile(lats, 0.75) * f, "ms"},
		"route_pct":       {100 * float64(routed) / float64(max(groups, 1)), "%"},
		"wl":              {wl, "pitch"},
		"avg_reg_pct":     {100 * reg / float64(len(first)), "%"},
		"dst_ok_pct":      {100 * float64(groups-vio) / float64(max(groups, 1)), "%"},
		"complete_pct":    {100 * float64(complete) / float64(ops), "%"},
		"ok_pct":          {100 * float64(res.Attempted-res.Failed) / float64(res.Attempted), "%"},
		"retained_mb":     {median(retained), "MB"},
	}
	return res, nil
}

// tally counts operations and failures, printing every failure and each
// pass's digest.
func tally(out io.Writer, passes []pass) result {
	res := result{}
	for pi, ps := range passes {
		fmt.Fprintf(out, "pass %d digest %s\n", pi+1, passDigest(ps))
		for _, o := range ps.ops {
			res.Attempted++
			if o.failure != "" {
				res.Failed++
				fmt.Fprintf(out, "FAIL pass %d %s: %s\n", pi+1, o.id, o.failure)
			}
		}
	}
	res.Correct = res.Failed == 0
	return res
}

// pickIncremental chooses, by seed, up to coldSamples requests the cache
// served incrementally.
func pickIncremental(ps pass, seed int64) []int {
	var idx []int
	for i, o := range ps.ops {
		if o.outcome == solvecache.OutcomeIncremental && o.failure == "" {
			idx = append(idx, i)
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	return idx[:min(coldSamples, len(idx))]
}

// designMedians lists, per batch design, the median of its CPU times over
// the passes, in milliseconds.
func designMedians(passes []pass) []float64 {
	xs := make([]float64, len(passes[0].ops))
	for i := range xs {
		per := make([]float64, len(passes))
		for pi, ps := range passes {
			per[pi] = float64(ps.ops[i].cpu.Nanoseconds()) / 1e6
		}
		xs[i] = median(per)
	}
	return xs
}

// passSeconds lists each pass's timed section in seconds of process CPU
// time, or of wall-clock time when cpu is false.
func passSeconds(passes []pass, cpu bool) []float64 {
	xs := make([]float64, len(passes))
	for i, ps := range passes {
		xs[i] = ps.wall.Seconds()
		if cpu {
			xs[i] = ps.cpu.Seconds()
		}
	}
	return xs
}

// opMS lists operation times in milliseconds, CPU or wall-clock, for all
// operations or only those with the given cache outcome.
func opMS(passes []pass, outcome solvecache.Outcome, cpu bool) []float64 {
	var xs []float64
	for _, ps := range passes {
		for _, o := range ps.ops {
			if outcome != "" && o.outcome != outcome {
				continue
			}
			d := o.latency
			if cpu {
				d = o.cpu
			}
			xs = append(xs, float64(d.Nanoseconds())/1e6)
		}
	}
	return xs
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(parts, " ")
}
