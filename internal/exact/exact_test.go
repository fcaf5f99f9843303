package exact

import (
	"math"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/pd"
	"repro/internal/route"
	"repro/internal/signal"
)

func tinyDesign() *signal.Design {
	return &signal.Design{
		Name: "tiny",
		Grid: signal.GridSpec{W: 20, H: 20, NumLayers: 4, EdgeCap: 4},
		Groups: []signal.Group{
			{Bits: []signal.Bit{
				{Driver: 0, Pins: []signal.Pin{{Loc: geom.Pt(2, 2)}, {Loc: geom.Pt(12, 2)}}},
				{Driver: 0, Pins: []signal.Pin{{Loc: geom.Pt(2, 3)}, {Loc: geom.Pt(12, 3)}}},
			}},
			{Bits: []signal.Bit{
				{Driver: 0, Pins: []signal.Pin{{Loc: geom.Pt(4, 8)}, {Loc: geom.Pt(10, 14)}}},
			}},
		},
	}
}

// bruteForce enumerates every assignment (including unrouted) and returns
// the minimum legal objective.
func bruteForce(p *route.Problem) float64 {
	best := math.Inf(1)
	a := p.NewAssignment()
	var rec func(i int)
	rec = func(i int) {
		if i == len(p.Objects) {
			if p.Legal(a) == nil {
				if v := p.ObjectiveValue(a); v < best {
					best = v
				}
			}
			return
		}
		for j := -1; j < len(p.Cands[i]); j++ {
			a.Choice[i] = j
			rec(i + 1)
		}
		a.Choice[i] = -1
	}
	rec(0)
	return best
}

func TestSolveMatchesBruteForce(t *testing.T) {
	p, err := route.Build(tinyDesign(), route.Options{MaxCandidates: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if res.TimedOut {
		t.Fatal("unexpected timeout on tiny model")
	}
	want := bruteForce(p)
	if math.Abs(res.Objective-want) > 1e-6 {
		t.Fatalf("objective = %v, want %v", res.Objective, want)
	}
	if err := p.Legal(res.Assignment); err != nil {
		t.Fatalf("ILP assignment illegal: %v", err)
	}
}

func TestSolveMatchesBruteForceUnderTightCapacity(t *testing.T) {
	d := tinyDesign()
	d.Grid.EdgeCap = 1
	p, err := route.Build(d, route.Options{MaxCandidates: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteForce(p)
	if math.Abs(res.Objective-want) > 1e-6 {
		t.Fatalf("objective = %v, want %v", res.Objective, want)
	}
	if err := p.Legal(res.Assignment); err != nil {
		t.Fatalf("assignment illegal: %v", err)
	}
}

func TestSolveAtLeastAsGoodAsPrimalDual(t *testing.T) {
	p, err := route.Build(tinyDesign(), route.Options{MaxCandidates: 4})
	if err != nil {
		t.Fatal(err)
	}
	pdRes := pd.Solve(p)
	ilpRes, err := Solve(p, Options{WarmStart: &pdRes.Assignment})
	if err != nil {
		t.Fatal(err)
	}
	if ilpRes.Objective > pdRes.Objective+1e-6 {
		t.Fatalf("ILP objective %v worse than PD %v", ilpRes.Objective, pdRes.Objective)
	}
}

func TestSolveTimeLimitReportsTimeout(t *testing.T) {
	// Congested multi-group design with a 1 ns limit: must time out
	// gracefully, never crash, and stay legal if it reports an assignment.
	d := &signal.Design{
		Name: "congested",
		Grid: signal.GridSpec{W: 24, H: 24, NumLayers: 4, EdgeCap: 2},
	}
	for gi := 0; gi < 4; gi++ {
		var g signal.Group
		for b := 0; b < 3; b++ {
			g.Bits = append(g.Bits, signal.Bit{
				Driver: 0,
				Pins:   []signal.Pin{{Loc: geom.Pt(2, 2+gi+b)}, {Loc: geom.Pt(20, 2+gi+b)}},
			})
		}
		d.Groups = append(d.Groups, g)
	}
	p, err := route.Build(d, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(p, Options{TimeLimit: time.Nanosecond})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !res.TimedOut {
		t.Skip("solver finished within a nanosecond timer tick; nothing to assert")
	}
	if res.Assignment.Choice != nil {
		if err := p.Legal(res.Assignment); err != nil {
			t.Fatalf("timed-out assignment illegal: %v", err)
		}
	}
}

func TestSolveMaxVarsGuard(t *testing.T) {
	p, err := route.Build(tinyDesign(), route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(p, Options{MaxVars: 1}); err == nil {
		t.Fatal("MaxVars guard did not trigger")
	}
}

func TestWarmStartSpeedsOrEqualsCold(t *testing.T) {
	p, err := route.Build(tinyDesign(), route.Options{MaxCandidates: 4})
	if err != nil {
		t.Fatal(err)
	}
	pdRes := pd.Solve(p)
	warm, err := Solve(p, Options{WarmStart: &pdRes.Assignment})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(warm.Objective-cold.Objective) > 1e-6 {
		t.Fatalf("warm %v != cold %v", warm.Objective, cold.Objective)
	}
}

// TestMismatchedWarmStartIgnored pins that a warm start which does not
// belong to the problem — the wrong object count, or a candidate index an
// object does not have — is ignored rather than crashing the model build,
// and the solve still proves the same optimum as a cold one.
func TestMismatchedWarmStartIgnored(t *testing.T) {
	p, err := route.Build(tinyDesign(), route.Options{MaxCandidates: 4})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	outOfRange := p.NewAssignment()
	outOfRange.Choice[0] = len(p.Cands[0])
	for name, ws := range map[string]route.Assignment{
		"short":        {Choice: make([]int, len(p.Cands)-1)},
		"long":         {Choice: make([]int, len(p.Cands)+1)},
		"out-of-range": outOfRange,
	} {
		res, err := Solve(p, Options{WarmStart: &ws})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Status != cold.Status || res.Objective != cold.Objective {
			t.Errorf("%s: status %v objective %v, cold %v %v", name, res.Status, res.Objective, cold.Status, cold.Objective)
		}
	}
}
