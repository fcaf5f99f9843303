package postopt

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/pd"
	"repro/internal/route"
	"repro/internal/signal"
)

// The reference below is the Vio(dst) evaluation that the per-bit distance
// table replaced, kept verbatim apart from names: two map-based Dijkstra
// queries (refPathLength, formerly geom.Tree.PathLength) per (bit, sink),
// one in the group maximum and one in the class scan.

// refPathLength returns the length of the unique path between two points
// on the tree, or -1 when either point is off-tree or the tree is
// disconnected between them.
func refPathLength(t geom.Tree, from, to geom.Point) int {
	if from == to {
		if t.OnTree(from) || len(t.Segs) == 0 {
			return 0
		}
		return -1
	}
	if !t.OnTree(from) || !t.OnTree(to) {
		return -1
	}
	c := t.Canon()
	var segs []geom.Seg
	for _, s := range c.Segs {
		pts := []int{}
		horiz := s.Horizontal()
		coord := func(p geom.Point) int {
			if horiz {
				return p.X
			}
			return p.Y
		}
		n := s.Norm()
		for _, p := range []geom.Point{from, to} {
			if s.Contains(p) && p != n.A && p != n.B {
				pts = append(pts, coord(p))
			}
		}
		if len(pts) == 0 {
			segs = append(segs, n)
			continue
		}
		pts = append(pts, coord(n.A), coord(n.B))
		sort.Ints(pts)
		for i := 0; i+1 < len(pts); i++ {
			if pts[i] == pts[i+1] {
				continue
			}
			if horiz {
				segs = append(segs, geom.Seg{A: geom.Point{X: pts[i], Y: n.A.Y}, B: geom.Point{X: pts[i+1], Y: n.A.Y}})
			} else {
				segs = append(segs, geom.Seg{A: geom.Point{X: n.A.X, Y: pts[i]}, B: geom.Point{X: n.A.X, Y: pts[i+1]}})
			}
		}
	}
	adj := make(map[geom.Point][]geom.Point)
	for _, s := range segs {
		adj[s.A] = append(adj[s.A], s.B)
		adj[s.B] = append(adj[s.B], s.A)
	}
	dist := map[geom.Point]int{from: 0}
	done := map[geom.Point]bool{}
	for {
		cur, curD := geom.Point{}, -1
		for p, d := range dist {
			if !done[p] && (curD == -1 || d < curD) {
				cur, curD = p, d
			}
		}
		if curD == -1 {
			return -1
		}
		if cur == to {
			return curD
		}
		done[cur] = true
		for _, q := range adj[cur] {
			nd := curD + geom.Dist(cur, q)
			if old, ok := dist[q]; !ok || nd < old {
				dist[q] = nd
			}
		}
	}
}

func refPinDistance(bit *signal.Bit, br *route.BitRoute, pin int) int {
	if !br.Routed {
		return -1
	}
	return refPathLength(br.Tree, bit.DriverLoc(), bit.Pins[pin].Loc)
}

func refGroupMaxDistance(g *signal.Group, bits []route.BitRoute) int {
	maxDst := 0
	for bi := range g.Bits {
		b := &g.Bits[bi]
		for _, s := range b.Sinks() {
			if d := refPinDistance(b, &bits[bi], s); d > maxDst {
				maxDst = d
			}
		}
	}
	return maxDst
}

func refFindViolations(d *signal.Design, r *route.Routing, opt Options) []violation {
	opt = opt.withDefaults()
	var out []violation
	for gi := range d.Groups {
		g := &d.Groups[gi]
		threshold := int(opt.DistFrac * float64(refGroupMaxDistance(g, r.Bits[gi])))
		if threshold <= 0 {
			continue
		}
		for _, so := range r.Objects[gi] {
			if so.PinMap == nil || len(so.BitIdx) < 2 {
				continue
			}
			rep := &g.Bits[so.RepBit]
			repK := -1
			for k, bi := range so.BitIdx {
				if bi == so.RepBit {
					repK = k
				}
			}
			if repK == -1 {
				continue
			}
			for _, repSink := range rep.Sinks() {
				type entry struct {
					bit, pin, dst int
				}
				var cls []entry
				maxDst := -1
				for k, bi := range so.BitIdx {
					pin := so.PinMap[k][mapToObjectPin(so.PinMap[repK], repSink)]
					dst := refPinDistance(&g.Bits[bi], &r.Bits[gi][bi], pin)
					if dst < 0 {
						continue
					}
					cls = append(cls, entry{bi, pin, dst})
					if dst > maxDst {
						maxDst = dst
					}
				}
				for _, e := range cls {
					if maxDst-e.dst > threshold {
						out = append(out, violation{gi, e.bit, e.pin, e.dst, maxDst - threshold})
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.group != b.group {
			return a.group < b.group
		}
		if a.bit != b.bit {
			return a.bit < b.bit
		}
		return a.pin < b.pin
	})
	return out
}

func refCountViolatedGroups(d *signal.Design, r *route.Routing, opt Options) int {
	seen := map[int]bool{}
	for _, v := range refFindViolations(d, r, opt) {
		seen[v.group] = true
	}
	return len(seen)
}

// checkViolations requires findViolations and CountViolatedGroups to equal
// the reference on the routing: same violations (group, bit, pin, current,
// target) in the same order, same group count. It returns the count.
func checkViolations(t *testing.T, stage string, d *signal.Design, r *route.Routing) int {
	t.Helper()
	got, _ := findViolations(d, r, Options{})
	want := refFindViolations(d, r, Options{})
	if !slices.Equal(got, want) {
		t.Fatalf("%s: findViolations differs from the reference:\n got  %v\n want %v", stage, got, want)
	}
	n, ref := CountViolatedGroups(d, r, Options{}), refCountViolatedGroups(d, r, Options{})
	if n != ref {
		t.Fatalf("%s: CountViolatedGroups = %d, reference %d", stage, n, ref)
	}
	return n
}

// checkRefine runs RefineCtx and requires its counts to equal the
// reference before and after: GroupsBefore on the incoming routing, and
// the incremental GroupsAfter on the refined one (a full recount). It
// returns the pins fixed.
func checkRefine(t *testing.T, stage string, p *route.Problem, r *route.Routing) int {
	t.Helper()
	before := refCountViolatedGroups(p.Design, r, Options{})
	stats, err := RefineCtx(context.Background(), p, r, r.UsageOf(p.Grid), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.GroupsBefore != before {
		t.Fatalf("%s: GroupsBefore = %d, reference %d", stage, stats.GroupsBefore, before)
	}
	if after := checkViolations(t, stage+"/refined", p.Design, r); stats.GroupsAfter != after {
		t.Fatalf("%s: incremental GroupsAfter = %d, full recount %d", stage, stats.GroupsAfter, after)
	}
	return stats.PinsFixed
}

// TestViolationsMatchReference pins Vio(dst) against the reference on
// Industry1–7 at scales 0.1 and 0.2 (0.2 skipped under -short): on the PD
// routing, after clustering, and after refinement, plus the incremental
// GroupsAfter against a full recount on every refined routing.
func TestViolationsMatchReference(t *testing.T) {
	scales := []float64{0.1, 0.2}
	if testing.Short() {
		scales = scales[:1]
	}
	detoured := 0
	for _, scale := range scales {
		for n := 1; n <= 7; n++ {
			stage := fmt.Sprintf("Industry%d@%.1f", n, scale)
			p, err := route.Build(benchgen.Scale(benchgen.Industry(n), scale).Generate(), route.Options{})
			if err != nil {
				t.Fatal(err)
			}
			r := p.ExtractRouting(pd.Solve(p).Assignment)
			checkViolations(t, stage+"/pd", p.Design, r)
			if _, err := ClusterAndRouteCtx(context.Background(), p, r, r.UsageOf(p.Grid), Options{}); err != nil {
				t.Fatal(err)
			}
			checkViolations(t, stage+"/clustered", p.Design, r)
			if checkRefine(t, stage, p, r) > 0 {
				detoured++
			}
		}
	}
	// Refine must have committed detours somewhere, or the after-refine
	// checks compared untouched routings only.
	p, err := route.Build(refineDesign(), route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := p.ExtractRouting(pd.Solve(p).Assignment)
	checkViolations(t, "refine/pd", p.Design, r)
	if checkRefine(t, "refine", p, r) > 0 {
		detoured++
	}
	if detoured == 0 {
		t.Fatal("no routing had a committed detour")
	}
	t.Logf("%d of %d refined routings had committed detours", detoured, 7*len(scales)+1)
}

// perturbTree adds degenerate geometry to a routed tree: a rectangle cycle
// at a node, a collinear overlap, a T-touching stub from inside a segment
// and a zero-length segment, each with some probability.
func perturbTree(rng *rand.Rand, tr geom.Tree) geom.Tree {
	segs := slices.Clone(tr.Segs)
	if len(segs) == 0 {
		return tr
	}
	pick := func() geom.Seg { return segs[rng.Intn(len(segs))].Norm() }
	if rng.Intn(2) == 0 {
		p := pick().A
		w, h := 1+rng.Intn(3), 1+rng.Intn(3)
		segs = append(segs,
			geom.S(p, geom.Pt(p.X+w, p.Y)), geom.S(geom.Pt(p.X+w, p.Y), geom.Pt(p.X+w, p.Y+h)),
			geom.S(geom.Pt(p.X+w, p.Y+h), geom.Pt(p.X, p.Y+h)), geom.S(geom.Pt(p.X, p.Y+h), p))
	}
	if rng.Intn(2) == 0 {
		o := pick()
		if o.Horizontal() {
			segs = append(segs, geom.Seg{A: geom.Pt(o.B.X+1, o.A.Y), B: geom.Pt(o.A.X+1, o.A.Y)})
		} else {
			segs = append(segs, geom.Seg{A: geom.Pt(o.A.X, o.B.Y+1), B: geom.Pt(o.A.X, o.A.Y+1)})
		}
	}
	if rng.Intn(2) == 0 {
		o := pick()
		if l := o.Len(); l > 1 {
			k := 1 + rng.Intn(l-1)
			if o.Horizontal() {
				m := geom.Pt(o.A.X+k, o.A.Y)
				segs = append(segs, geom.S(m, geom.Pt(m.X, m.Y+2)))
			} else {
				m := geom.Pt(o.A.X, o.A.Y+k)
				segs = append(segs, geom.S(m, geom.Pt(m.X+2, m.Y)))
			}
		}
	}
	if rng.Intn(2) == 0 {
		z := pick().B
		segs = append(segs, geom.Seg{A: z, B: z})
	}
	return geom.Tree{Segs: segs}
}

// TestViolationsMatchReferenceDegenerateTrees pins Vio(dst) against the
// reference after perturbing every routed tree with cycles, overlaps,
// T-touches and zero-length segments, and after dropping single routed
// bits so some pins read -1.
func TestViolationsMatchReferenceDegenerateTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 5, 6} {
		p, err := route.Build(benchgen.Scale(benchgen.Industry(n), 0.1).Generate(), route.Options{})
		if err != nil {
			t.Fatal(err)
		}
		asg := pd.Solve(p).Assignment
		base := p.ExtractRouting(asg)
		for trial := 0; trial < 4; trial++ {
			r := p.ExtractRouting(asg)
			for gi := range r.Bits {
				for bi := range r.Bits[gi] {
					br := &r.Bits[gi][bi]
					switch {
					case !br.Routed:
					case rng.Intn(10) == 0:
						br.Routed = false
					default:
						br.Tree = perturbTree(rng, base.Bits[gi][bi].Tree)
					}
				}
			}
			checkViolations(t, fmt.Sprintf("Industry%d/trial%d", n, trial), p.Design, r)
		}
	}
}

// TestVioWalksCounter pins postopt.vio.walks: one walk per routed bit of
// every group that has a classed object, for a count and for refinement's
// pre-pass plus its re-evaluated groups.
func TestVioWalksCounter(t *testing.T) {
	p, err := route.Build(refineDesign(), route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := p.ExtractRouting(pd.Solve(p).Assignment)
	want := 0
	for gi := range r.Bits {
		if !slices.ContainsFunc(r.Objects[gi], classed) {
			continue
		}
		for _, br := range r.Bits[gi] {
			if br.Routed {
				want++
			}
		}
	}
	rec := obs.NewRecorder()
	ctx := obs.WithRecorder(context.Background(), rec)
	CountViolatedGroupsCtx(ctx, p.Design, r, Options{})
	if got := rec.Counter(obs.CounterVioWalks); got != int64(want) {
		t.Fatalf("count: postopt.vio.walks = %d, want %d", got, want)
	}
	rec = obs.NewRecorder()
	stats, err := RefineCtx(obs.WithRecorder(context.Background(), rec), p, r, r.UsageOf(p.Grid), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PinsFixed == 0 {
		t.Skip("no detour committed; nothing re-evaluated")
	}
	// One group, detoured: the pre-pass plus one re-evaluation.
	if got := rec.Counter(obs.CounterVioWalks); got != 2*int64(want) {
		t.Errorf("refine: postopt.vio.walks = %d, want %d", got, 2*want)
	}
	// Each fixed pin took one or two tries, each pin left at most two.
	if got, pins := rec.Counter(obs.CounterRefineDetourTries), int64(stats.PinsFixed+stats.PinsLeft); got < int64(stats.PinsFixed) || got > 2*pins {
		t.Errorf("refine: detour_attempts = %d, want within [%d, %d]", got, stats.PinsFixed, 2*pins)
	}
}
