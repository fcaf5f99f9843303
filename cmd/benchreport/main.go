// Command benchreport is the repo's perf-regression harness. It runs the
// Go benchmarks, folds in domain quality metrics from an in-process routing
// run, and writes a schema-versioned BENCH_<date>.json artifact; with
// -compare it diffs against a previous artifact and exits non-zero when a
// metric regressed past the threshold.
//
// Usage:
//
//	benchreport                              # run benchmarks, write BENCH_<date>.json
//	benchreport -domain -industry 3          # also record routing quality
//	benchreport -compare BENCH_old.json      # run, then diff against a baseline
//	benchreport -in BENCH_new.json -compare BENCH_old.json   # diff two artifacts, no run
//	benchreport -push http://localhost:8080  # also push the artifact into a streakd telemetry lake
//
// Exit codes: 0 ok, 1 operational error, 2 bad usage, 3 regression found.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"time"

	"repro/internal/benchreport"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		benchRe   = flag.String("bench", "BenchmarkTable1PrimalDual|BenchmarkPairCost|BenchmarkBuildParallel|BenchmarkCacheHit|BenchmarkCapacityIntersect|BenchmarkTreeArena|BenchmarkBBNode|BenchmarkILPSolve|BenchmarkCluster|BenchmarkPDSolve|BenchmarkRouteBuild|BenchmarkRebuild", "benchmark regexp passed to go test -bench")
		benchtime = flag.String("benchtime", "1x", "value passed to go test -benchtime")
		pkg       = flag.String("pkg", ".", "package to benchmark")
		out       = flag.String("out", "", "output artifact path (default BENCH_<date>.json; \"-\" for stdout)")
		in        = flag.String("in", "", "load this artifact instead of running benchmarks")
		compare   = flag.String("compare", "", "baseline artifact to diff against")
		threshold = flag.Float64("threshold", 0.30, "fractional move in the bad direction that counts as a regression")
		allocTh   = flag.Float64("alloc-threshold", 0.10, "regression threshold for allocs/op and B/op; tighter than -threshold because allocation counts are deterministic, so any growth is a real code-path change rather than timer noise")
		domain    = flag.Bool("domain", false, "also run the primal-dual flow in-process and record routing quality metrics")
		industry  = flag.Int("industry", 3, "Industry benchmark for -domain")
		scale     = flag.Float64("scale", 0.06, "benchmark scale for -domain")
		push      = flag.String("push", "", "push the artifact to a streakd telemetry lake at this base URL (e.g. http://localhost:8080)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchreport: unexpected arguments")
		return 2
	}
	if *in != "" && *domain {
		fmt.Fprintln(os.Stderr, "benchreport: -in and -domain are mutually exclusive (the artifact is already complete)")
		return 2
	}

	var file benchreport.File
	if *in != "" {
		loaded, err := loadFile(*in)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			return 1
		}
		file = loaded
	} else {
		built, err := runBenchmarks(*benchRe, *benchtime, *pkg, *domain, *industry, *scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			return 1
		}
		file = built
		path := *out
		if path == "" {
			path = fmt.Sprintf("BENCH_%s.json", time.Now().UTC().Format("2006-01-02"))
		}
		if err := writeFile(path, file); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			return 1
		}
		if path != "-" {
			fmt.Printf("wrote %s (%d rows)\n", path, len(file.Benchmarks))
		}
	}

	if *push != "" {
		raw, err := json.Marshal(file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
			return 1
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := telemetry.PushBench(ctx, *push, raw); err != nil {
			fmt.Fprintf(os.Stderr, "benchreport: push: %v\n", err)
			return 1
		}
		fmt.Printf("pushed %d rows to %s\n", len(file.Benchmarks), *push)
	}

	if *compare == "" {
		return 0
	}
	baseline, err := loadFile(*compare)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchreport: %v\n", err)
		return 1
	}
	deltas := benchreport.CompareThresholds(baseline, file, benchreport.Thresholds{
		Default: *threshold,
		PerUnit: map[string]float64{"allocs/op": *allocTh, "B/op": *allocTh},
	})
	if len(deltas) == 0 {
		fmt.Println("no comparable rows between the artifacts")
		return 0
	}
	benchreport.WriteDeltas(os.Stdout, deltas)
	if regs := benchreport.Regressions(deltas); len(regs) > 0 {
		fmt.Printf("%d metric(s) regressed past %.0f%% (alloc metrics: %.0f%%)\n", len(regs), *threshold*100, *allocTh*100)
		return 3
	}
	fmt.Println("no regressions")
	return 0
}

// runBenchmarks shells out to go test, parses the rows and assembles the
// artifact (benchmarks, optional domain row, build labels, timestamp).
func runBenchmarks(benchRe, benchtime, pkg string, domain bool, industry int, scale float64) (benchreport.File, error) {
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", benchRe,
		"-benchtime", benchtime, "-benchmem", pkg)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return benchreport.File{}, fmt.Errorf("go test: %w\n%s", err, stdout.String())
	}
	rows, err := benchreport.ParseBenchOutput(&stdout)
	if err != nil {
		return benchreport.File{}, err
	}
	if len(rows) == 0 {
		return benchreport.File{}, fmt.Errorf("no benchmarks matched %q", benchRe)
	}
	if domain {
		row, err := benchreport.DomainMetrics(context.Background(), industry, scale)
		if err != nil {
			return benchreport.File{}, err
		}
		rows = append(rows, row)
	}
	return benchreport.File{
		Schema:      benchreport.SchemaVersion,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Labels:      obs.BuildInfoLabels(),
		Benchmarks:  rows,
	}, nil
}

func loadFile(path string) (benchreport.File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return benchreport.File{}, err
	}
	var f benchreport.File
	if err := json.Unmarshal(raw, &f); err != nil {
		return benchreport.File{}, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema > benchreport.SchemaVersion {
		return benchreport.File{}, fmt.Errorf("%s: schema %d is newer than this tool's %d", path, f.Schema, benchreport.SchemaVersion)
	}
	return f, nil
}

func writeFile(path string, f benchreport.File) error {
	if path == "-" {
		return encode(os.Stdout, f)
	}
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := encode(out, f); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func encode(w *os.File, f benchreport.File) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}
