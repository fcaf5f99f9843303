package route

import (
	"context"
	"testing"

	"repro/internal/obs"
)

// TestBuildCtxEmitsPerObjectEvents checks the traced build: each object
// leaves one build.topo and one build.expand event whose candidate count
// matches the built problem, and the events ride inside the build stage
// span's interval.
func TestBuildCtxEmitsPerObjectEvents(t *testing.T) {
	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	p, err := BuildCtx(ctx, smallDesign(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep := rec.Report()

	var stageStart, stageEnd int64 = -1, -1
	for _, s := range rep.Spans {
		if s.Name == obs.StageBuild {
			stageStart, stageEnd = s.StartUS, s.StartUS+s.DurUS
		}
	}
	if stageStart < 0 {
		t.Fatalf("no %s span: %+v", obs.StageBuild, rep.Spans)
	}

	topoSeen := make(map[int]bool)
	expandSeen := make(map[int]bool)
	for _, e := range rep.Trace {
		if e.Name != "build.topo" && e.Name != "build.expand" {
			continue
		}
		i := int(e.Args["object"])
		if i < 0 || i >= len(p.Objects) {
			t.Fatalf("event names unknown object: %+v", e)
		}
		if e.Start < stageStart || e.Start+e.Dur > stageEnd {
			t.Errorf("event escapes the build span: %+v (span [%d,%d])", e, stageStart, stageEnd)
		}
		switch e.Name {
		case "build.topo":
			topoSeen[i] = true
		case "build.expand":
			expandSeen[i] = true
			if got := int(e.Args["candidates"]); got != len(p.Cands[i]) {
				t.Errorf("object %d expand event reports %d candidates, problem has %d", i, got, len(p.Cands[i]))
			}
		}
	}
	if len(topoSeen) != len(p.Objects) || len(expandSeen) != len(p.Objects) {
		t.Errorf("events cover %d topo / %d expand of %d objects", len(topoSeen), len(expandSeen), len(p.Objects))
	}
	total := 0
	for i := range p.Cands {
		total += len(p.Cands[i])
	}
	c := rec.Counters()
	if c[obs.CounterBuildCandidates] != int64(total) || c[obs.CounterBuildExpanded] < int64(total) {
		t.Errorf("%s = %d, %s = %d; want %d kept and at least as many priced",
			obs.CounterBuildCandidates, c[obs.CounterBuildCandidates], obs.CounterBuildExpanded, c[obs.CounterBuildExpanded], total)
	}
}

// TestBuildCtxUntracedIdentical pins that tracing never changes the built
// problem.
func TestBuildCtxUntracedIdentical(t *testing.T) {
	plain, err := Build(smallDesign(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	traced, err := BuildCtx(obs.WithRecorder(context.Background(), rec), smallDesign(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Objects) != len(traced.Objects) {
		t.Fatalf("object counts differ: %d vs %d", len(plain.Objects), len(traced.Objects))
	}
	for i := range plain.Cands {
		if len(plain.Cands[i]) != len(traced.Cands[i]) {
			t.Fatalf("object %d candidate counts differ", i)
		}
		for j := range plain.Cands[i] {
			if plain.Cands[i][j].Cost != traced.Cands[i][j].Cost {
				t.Errorf("object %d candidate %d cost differs", i, j)
			}
		}
	}
}
