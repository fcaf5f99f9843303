package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/benchgen"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/signal"
	"repro/internal/solvecache"
)

// preset is one generated Industry design: benchgen preset n at a scale.
type preset struct {
	n     int
	scale float64
}

// workload is one named input set and the flow it is routed with.
type workload struct {
	name    string
	designs []preset
	opt     core.Options
	// eco marks the ECO-churn workload: designs[0] is the base design, and
	// the operations are ecoRequests seeded edits of it served through one
	// solvecache.Solver per pass instead of independent batch solves.
	eco bool
}

// ecoRequests is how many requests one eco-churn pass serves: two passes
// leave ten latencies beyond the nearest-rank p75. A pass also solves the
// base design once, untimed, and the base plus every edited design must
// fit the solve cache without eviction (solvecache.DefaultSize), which the
// traced run's replay of the cache relies on.
const ecoRequests = 24

// ecoRevertEvery makes every fourth chain step resubmit the base design
// verbatim, an exact cache hit (the scenario engine's churn mix has about
// 25% repeats), and restarts the edit chain from the base there. Short
// edit runs keep every request within a few edits of the base, so the
// cost of a request does not drift with the edits a seed happens to
// accumulate, and every seed serves 6 hits and 18 incremental solves.
const ecoRevertEvery = 4

// ilpLimit bounds every exact solve. It is far above the solve times, so
// each design must prove optimality; a timeout fails the operation and
// counts against complete_pct instead of silently capping flow_norm_s.
const ilpLimit = 60 * time.Second

// workloads are the benchmark's input sets. Scales are chosen so a pass
// takes a few seconds, letting a run repeat it, while the stage each
// workload exists for still dominates it as it does at the paper's sizes.
var workloads = []workload{
	{
		// The paper's Table I PD column: selection only, no post-opt.
		// At scale 1.0 a pass takes about 12 s; at 0.5 build and PD still
		// carry about a quarter and two thirds of it.
		name:    "table1-pd",
		designs: []preset{{2, 0.5}, {5, 0.5}, {6, 0.5}},
		opt:     core.Options{Method: core.PrimalDual},
	},
	{
		// The paper's Table II PD flow, streakd's default. Clustering has
		// nothing to route below about scale 0.15, and at 0.2 a pass takes
		// about 24 s; at 0.18 it is about four fifths of a 4-s pass.
		name:    "table2-congested",
		designs: []preset{{5, 0.18}, {6, 0.18}},
		opt:     core.Options{Method: core.PrimalDual, PostOpt: true, Clustering: true, Refinement: true},
	},
	{
		// The paper's Table I ILP column, warm-started from PD, in two
		// shapes: Industry3@0.15 is one branch-and-bound node of cold LP
		// re-solves after lazy-row activations (the root cutting-plane
		// loop), Industry4@0.2 is 14 nodes of branching. Industry3 takes
		// 13 s at 0.2 and minutes between 0.16 and 0.19.
		name:    "ilp-exact",
		designs: []preset{{3, 0.15}, {4, 0.2}},
		opt:     core.Options{Method: core.ILP, ILPWarmStart: true, ILPTimeLimit: ilpLimit},
	},
	{
		// ECO edits served through the solve cache with the PD flow.
		// Post-opt is off: with it, clustering dominates again and this
		// would repeat table2-congested.
		name:    "eco-churn",
		designs: []preset{{2, 0.5}},
		opt:     core.Options{Method: core.PrimalDual},
		eco:     true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// inputs is what one set-up produced: the designs the program receives,
// each parsed back from its serialised form, and the SHA-256 of those
// serialised bytes in order.
type inputs struct {
	// designs are the batch designs, or for eco-churn the base design.
	designs []*signal.Design
	// chain is the eco-churn request sequence (nil for batch workloads).
	chain []*signal.Design
	// sha is the hex SHA-256 over every serialised input, in order.
	sha string
}

// generate builds the workload's inputs. Batch designs come from the
// benchgen presets (presetSeed, when non-zero, replaces each preset's own
// seed); the eco-churn chain comes from seed. Every design is serialised
// and read back through signal.ReadJSON, which validates it, exactly as
// the CLI and streakd receive designs.
func (w workload) generate(seed, presetSeed int64) (inputs, error) {
	var in inputs
	h := sha256.New()
	var buf bytes.Buffer
	roundTrip := func(d *signal.Design) (*signal.Design, error) {
		buf.Reset()
		if err := d.WriteJSON(&buf); err != nil {
			return nil, fmt.Errorf("serialising %s: %w", d.Name, err)
		}
		h.Write(buf.Bytes())
		rd, err := signal.ReadJSON(&buf)
		if err != nil {
			return nil, fmt.Errorf("reading back %s: %w", d.Name, err)
		}
		return rd, nil
	}
	for _, ps := range w.designs {
		spec := benchgen.Scale(benchgen.Industry(ps.n), ps.scale)
		if presetSeed != 0 {
			spec.Seed = presetSeed + int64(ps.n)
		}
		d, err := roundTrip(spec.Generate())
		if err != nil {
			return in, err
		}
		in.designs = append(in.designs, d)
	}
	if w.eco {
		base := in.designs[0]
		r := rand.New(rand.NewSource(seed))
		cur := base
		seen := map[solvecache.Key]bool{solvecache.KeyFor(base, w.opt): true}
		for i := 0; i < ecoRequests; i++ {
			if i%ecoRevertEvery == ecoRevertEvery-1 {
				cur = base
				in.chain = append(in.chain, base)
				continue
			}
			// An edit that restores an earlier design (a blockage added
			// and then removed) would be an exact hit; redraw it so
			// every seed serves hits only at the revert positions.
			next, edit := scenario.Mutate(r, cur)
			for seen[solvecache.KeyFor(next, w.opt)] {
				next, edit = scenario.Mutate(r, cur)
			}
			seen[solvecache.KeyFor(next, w.opt)] = true
			next.Name = fmt.Sprintf("%s-eco%02d-%s", base.Name, i, edit)
			d, err := roundTrip(next)
			if err != nil {
				return in, err
			}
			cur = d
			in.chain = append(in.chain, cur)
		}
	}
	in.sha = fmt.Sprintf("%x", h.Sum(nil))
	return in, nil
}

// An array of negative length fails to compile: this line breaks the build
// if one eco pass (base plus chain) no longer fits the solve cache.
var _ = [solvecache.DefaultSize - ecoRequests - 1]struct{}{}
