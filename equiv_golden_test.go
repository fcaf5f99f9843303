package streak

// Golden-fingerprint equivalence suite for the hot-kernel data-layout work:
// every solver's full outcome (objective bits, routed canonical geometry,
// audit outcome) and the built problem's complete candidate set are hashed
// into fingerprints pinned against goldens captured on the pre-refactor
// code. Any representation change (SoA candidate edge lists, bitset
// capacity kernels, pooled scratch, warm-started B&B simplex) that alters a
// single routed segment, layer choice, cost bit, or audit verdict fails
// these tests.
//
// Regenerate (prints the golden map literal; only do this to extend
// coverage, never to paper over a diff):
//
//	STREAK_WRITE_GOLDEN=1 go test -run TestGoldenFingerprints -v .
//
// Preset coverage is bounded by determinism: hier Industry5 hits a per-tile
// wall-clock timeout at this scale and exact is only run where it proves
// optimality in seconds, so those combinations are excluded by design.

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"testing"

	"repro/internal/audit"
	"repro/internal/benchgen"
	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/hier"
	"repro/internal/pd"
	"repro/internal/postopt"
	"repro/internal/route"
	"repro/internal/topo"
)

// equivScale matches benchScale so golden problems and bench problems are
// the same designs.
const equivScale = benchScale

// goldenFingerprints pins the seed (pre-refactor) outcomes. Keys are
// "<preset>/<flow>"; values come from STREAK_WRITE_GOLDEN output.
var goldenFingerprints = map[string]string{
	"Industry1/exact":    "obj=40aafa0000000000 geo=f7cbdd56017d9729 audit=ok",
	"Industry1/hier":     "obj=40ab0a0000000000 geo=2ebb8257164164bb audit=ok",
	"Industry1/hier-par": "obj=40bd2d0000000000 geo=e4eeef50cb7c412b audit=ok",
	"Industry1/pd":       "obj=40aafa0000000000 geo=5a58fea675bfd2cd audit=ok",
	"Industry1/problem":  "objs=17 cands=204 hash=c861cc3cc586596c",
	"Industry3/exact":    "obj=40ae7e0000000000 geo=a1398d324a896618 audit=ok",
	"Industry3/hier":     "obj=40ae960000000000 geo=36fff32a83cb3856 audit=ok",
	"Industry3/hier-par": "obj=40c3638000000000 geo=f4c962c2bfc711da audit=ok",
	"Industry3/pd":       "obj=40ae7e0000000000 geo=838f4f2e86584878 audit=ok",
	"Industry3/problem":  "objs=20 cands=240 hash=eeff75d37d32d31d",
	"Industry5/pd":       "obj=40d22a36db6db6db geo=730b109c398530fa audit=ok",
	"Industry5/problem":  "objs=61 cands=732 hash=977c4f614345df7e",
	"Industry7/hier":     "obj=40b6aa0000000000 geo=c5f7b0c150333057 audit=ok",
	"Industry7/hier-par": "obj=40b6aa0000000000 geo=c5f7b0c150333057 audit=ok",
	"Industry7/pd":       "obj=40b6aa0000000000 geo=cf161fbcdf049ddf audit=ok",
	"Industry7/problem":  "objs=15 cands=180 hash=440e06d4ce441187",
}

// candUsageTriples returns a candidate's per-edge usage as sorted
// (layer, idx, need) triples, independent of the underlying representation.
// This is the single place the suite touches candidate edge storage; when
// the storage changes, this helper follows and the goldens must not.
func candUsageTriples(c *topo.Candidate) [][3]int {
	tr := make([][3]int, 0, len(c.Edges))
	for _, e := range c.Edges {
		tr = append(tr, [3]int{int(e.Layer), int(e.Idx), int(e.N)})
	}
	sort.Slice(tr, func(a, b int) bool {
		if tr[a][0] != tr[b][0] {
			return tr[a][0] < tr[b][0]
		}
		return tr[a][1] < tr[b][1]
	})
	return tr
}

// fpProblem digests the complete candidate set: per object the candidate
// count, per candidate topology index, layers, wirelength, vias, cost bits
// and the full sorted edge-usage list.
func fpProblem(p *route.Problem) string {
	h := fnv.New64a()
	nc := 0
	for i := range p.Cands {
		fmt.Fprintf(h, "o%d:%d;", i, len(p.Cands[i]))
		for j := range p.Cands[i] {
			c := &p.Cands[i][j]
			nc++
			fmt.Fprintf(h, "c%d,%d,%d,%d,%d,%d;", c.TopoIdx, c.HLayer, c.VLayer, c.WL, c.Vias, c.Cost)
			for _, t := range candUsageTriples(c) {
				fmt.Fprintf(h, "e%d.%d.%d;", t[0], t[1], t[2])
			}
		}
	}
	return fmt.Sprintf("objs=%d cands=%d hash=%016x", len(p.Objects), nc, h.Sum64())
}

// fpSolve digests one solve outcome: objective bits, routed canonical
// geometry (layers + canonical segments per bit, plus solution objects) and
// the independent audit verdict.
func fpSolve(p *route.Problem, obj float64, a route.Assignment) string {
	h := fnv.New64a()
	r := p.ExtractRouting(a)
	for gi := range r.Bits {
		for bi := range r.Bits[gi] {
			b := r.Bits[gi][bi]
			if !b.Routed {
				fmt.Fprintf(h, "u;")
				continue
			}
			fmt.Fprintf(h, "b%d,%d:", b.HLayer, b.VLayer)
			for _, s := range b.Tree.Canon().Segs {
				fmt.Fprintf(h, "%d.%d.%d.%d;", s.A.X, s.A.Y, s.B.X, s.B.Y)
			}
		}
		for _, so := range r.Objects[gi] {
			fmt.Fprintf(h, "s%d,%d,%d,%v;", so.RepBit, so.HLayer, so.VLayer, so.BitIdx)
		}
	}
	rep := audit.Check(p.Design, p.Grid, r)
	verdict := "ok"
	if !rep.OK() {
		verdict = fmt.Sprintf("%d", len(rep.Violations))
	}
	return fmt.Sprintf("obj=%016x geo=%016x audit=%s", math.Float64bits(obj), h.Sum64(), verdict)
}

// equivPresets lists the Industry presets with the flows that are
// deterministic at equivScale (see the package comment for exclusions).
var equivPresets = []struct {
	n           int
	hier, exact bool
}{
	{n: 1, hier: true, exact: true},
	{n: 3, hier: true, exact: true},
	{n: 5},
	{n: 7, hier: true},
}

// computeFingerprints runs every deterministic preset/flow combination and
// returns its fingerprint map. workers sets route.Options.Workers for the
// problem build (candidate sets are bit-identical across worker counts).
func computeFingerprints(t *testing.T, workers int) map[string]string {
	t.Helper()
	got := make(map[string]string)
	for _, pr := range equivPresets {
		name := fmt.Sprintf("Industry%d", pr.n)
		d := benchgen.Scale(benchgen.Industry(pr.n), equivScale).Generate()
		p, err := route.Build(d, route.Options{Workers: workers})
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		got[name+"/problem"] = fpProblem(p)

		res := pd.Solve(p)
		got[name+"/pd"] = fpSolve(p, res.Objective, res.Assignment)

		if pr.hier {
			hs := hier.Solve(p, hier.Options{Tiles: 2})
			if hs.TilesTimedOut > 0 {
				t.Fatalf("%s: hier tile timed out; preset is not golden-safe", name)
			}
			got[name+"/hier"] = fpSolve(p, hs.Objective, hs.Assignment)
			hp := hier.Solve(p, hier.Options{Tiles: 2, Workers: 4})
			if hp.TilesTimedOut > 0 {
				t.Fatalf("%s: parallel hier tile timed out; preset is not golden-safe", name)
			}
			got[name+"/hier-par"] = fpSolve(p, hp.Objective, hp.Assignment)
		}
		if pr.exact {
			es, err := exact.Solve(p, exact.Options{})
			if err != nil {
				t.Fatalf("%s: exact: %v", name, err)
			}
			if es.TimedOut {
				t.Fatalf("%s: exact timed out; preset is not golden-safe", name)
			}
			got[name+"/exact"] = fpSolve(p, es.Objective, es.Assignment)
		}
	}
	return got
}

// TestGoldenFingerprints pins every deterministic solver outcome against
// the pre-refactor goldens (sequential build).
func TestGoldenFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second exact solves")
	}
	got := computeFingerprints(t, 1)
	if os.Getenv("STREAK_WRITE_GOLDEN") != "" {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("\t%q: %q,\n", k, got[k])
		}
		return
	}
	for k, want := range goldenFingerprints {
		if got[k] != want {
			t.Errorf("%s:\n got %s\nwant %s", k, got[k], want)
		}
	}
	for k := range got {
		if _, ok := goldenFingerprints[k]; !ok {
			t.Errorf("%s: computed but not pinned; regenerate goldens", k)
		}
	}
}

// TestGoldenFingerprintsParallelBuild proves the parallel problem build and
// the solves on top of it reproduce the sequential goldens bit-for-bit.
func TestGoldenFingerprintsParallelBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second exact solves")
	}
	w := runtime.GOMAXPROCS(0)
	if w < 2 {
		w = 4
	}
	got := computeFingerprints(t, w)
	for k, want := range goldenFingerprints {
		if got[k] != want {
			t.Errorf("%s (workers=%d):\n got %s\nwant %s", k, w, got[k], want)
		}
	}
}

// clusterScale is the table2-congested scale: at it Industry5 and
// Industry6 leave bits unrouted after PD, so Algorithm 3's clustering does
// real merge work (at equivScale it does none).
const clusterScale = 0.18

// goldenClusterFingerprints pins the clustering outcome at clusterScale.
// "<preset>/cluster" digests the routing right after ClusterAndRoute on the
// PD routing; "<preset>/flow" digests the complete DefaultOptions flow
// (clustering then refinement). Values come from STREAK_WRITE_GOLDEN
// output of TestGoldenClusterFingerprints.
var goldenClusterFingerprints = map[string]string{
	"Industry5/cluster": "geo=5faf8c0d79fab627 stats={BitsRouted:32 BitsLeft:0 Clusters:2}",
	"Industry5/flow":    "geo=5faf8c0d79fab627 cluster={BitsRouted:32 BitsLeft:0 Clusters:2} refine={GroupsBefore:0 GroupsAfter:0 PinsFixed:0 PinsLeft:0 AddedWL:0} wl=411319ec00000000 reg=3fec606f48d6427d vio=0",
	"Industry6/cluster": "geo=0af642090419249c stats={BitsRouted:27 BitsLeft:0 Clusters:1}",
	"Industry6/flow":    "geo=d1c0f5795268ef00 cluster={BitsRouted:27 BitsLeft:0 Clusters:1} refine={GroupsBefore:2 GroupsAfter:0 PinsFixed:2 PinsLeft:0 AddedWL:16} wl=4112742400000000 reg=3fecd2cd2cd2cd2e vio=0",
}

// fpRouting digests a routing in full: per bit its layers and canonical
// segments, per solution object its representative (bit, layers, canonical
// tree), member list and pin map.
func fpRouting(r *route.Routing) uint64 {
	h := fnv.New64a()
	for gi := range r.Bits {
		for _, b := range r.Bits[gi] {
			if !b.Routed {
				fmt.Fprintf(h, "u;")
				continue
			}
			fmt.Fprintf(h, "b%d,%d:", b.HLayer, b.VLayer)
			for _, s := range b.Tree.Canon().Segs {
				fmt.Fprintf(h, "%d.%d.%d.%d;", s.A.X, s.A.Y, s.B.X, s.B.Y)
			}
		}
		for _, so := range r.Objects[gi] {
			fmt.Fprintf(h, "s%d,%d,%d,%v,%v:", so.RepBit, so.HLayer, so.VLayer, so.BitIdx, so.PinMap)
			for _, s := range so.RepTree.Canon().Segs {
				fmt.Fprintf(h, "%d.%d.%d.%d;", s.A.X, s.A.Y, s.B.X, s.B.Y)
			}
		}
	}
	return h.Sum64()
}

// computeClusterFingerprints runs the clustering presets and returns their
// fingerprint map.
func computeClusterFingerprints(t *testing.T) map[string]string {
	t.Helper()
	got := make(map[string]string)
	for _, n := range []int{5, 6} {
		name := fmt.Sprintf("Industry%d", n)
		d := benchgen.Scale(benchgen.Industry(n), clusterScale).Generate()
		res, err := core.RunCtx(context.Background(), d, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: flow: %v", name, err)
		}
		m := res.Metrics
		got[name+"/flow"] = fmt.Sprintf("geo=%016x cluster=%+v refine=%+v wl=%016x reg=%016x vio=%d",
			fpRouting(res.Routing), res.Cluster, res.Refine,
			math.Float64bits(m.WL), math.Float64bits(m.AvgReg), m.VioDst)

		p := res.Problem
		sol := pd.Solve(p)
		r := p.ExtractRouting(sol.Assignment)
		u := r.UsageOf(p.Grid)
		stats := postopt.ClusterAndRoute(p, r, u, postopt.Options{})
		got[name+"/cluster"] = fmt.Sprintf("geo=%016x stats=%+v", fpRouting(r), stats)
	}
	return got
}

// TestGoldenClusterFingerprints pins Algorithm 3's clustering and the full
// post-optimized flow on congested inputs bit for bit: the routed geometry,
// layers, solution objects (members and pin maps) and statistics.
func TestGoldenClusterFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second congested flows")
	}
	got := computeClusterFingerprints(t)
	if os.Getenv("STREAK_WRITE_GOLDEN") != "" {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("\t%q: %q,\n", k, got[k])
		}
		return
	}
	for k, want := range goldenClusterFingerprints {
		if got[k] != want {
			t.Errorf("%s:\n got %s\nwant %s", k, got[k], want)
		}
	}
	for k := range got {
		if _, ok := goldenClusterFingerprints[k]; !ok {
			t.Errorf("%s: computed but not pinned; regenerate goldens", k)
		}
	}
}
