package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/core"
)

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics the
// program prints in step: same workloads, same metric names, units and
// directions, in the same order.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []metricDef, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)
}

// TestTracedFlowMatchesCore checks the traced replica of the flow against
// core.RunCtx on a small design for every option set the workloads use.
func TestTracedFlowMatchesCore(t *testing.T) {
	ctx := context.Background()
	d := benchgen.Scale(benchgen.Industry(1), 0.06).Generate()
	for _, w := range workloads {
		want, err := core.RunCtx(ctx, d, w.opt)
		if err != nil {
			t.Fatalf("%s: core: %v", w.name, err)
		}
		tr := newTracer()
		tr.counts = map[string]float64{}
		got, err := tr.runFlow(ctx, d, w.opt)
		if err != nil {
			t.Fatalf("%s: traced: %v", w.name, err)
		}
		if digest(got) != digest(want) {
			t.Errorf("%s: traced flow output differs from core.RunCtx", w.name)
		}
		if len(tr.open) != 0 {
			t.Errorf("%s: %d spans left open", w.name, len(tr.open))
		}
	}
}

// TestShadowCacheMatchesSolver serves a short edit chain through the real
// solvecache.Solver and the traced replay and requires the same outcome
// and output for every request.
func TestShadowCacheMatchesSolver(t *testing.T) {
	ctx := context.Background()
	w := workload{name: "eco-small", designs: []preset{{1, 0.06}}, opt: core.Options{Method: core.PrimalDual}, eco: true}
	in, err := w.generate(7, 0)
	if err != nil {
		t.Fatal(err)
	}
	served, err := runUntraced(ctx, w, in)
	if err != nil {
		t.Fatal(err)
	}
	ps, _, err := newTracer().runTraced(ctx, w, in, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range served.ops {
		r, s := &served.ops[i], &ps.ops[i]
		r.check(ctx)
		s.check(ctx)
		if r.failure != "" || s.failure != "" {
			t.Fatalf("request %d failed: solver %q, replay %q", i, r.failure, s.failure)
		}
		if r.outcome != s.outcome || r.digest != s.digest {
			t.Errorf("request %d: solver %s, replay %s (digests equal: %v)", i, r.outcome, s.outcome, r.digest == s.digest)
		}
	}
	if served.cache.Hits == 0 || served.cache.Incrementals == 0 {
		t.Errorf("chain exercised neither path fully: %+v", served.cache)
	}
}
