package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/signal"
	"repro/internal/solvecache"
)

// op is one checked operation: a batch design solve or an eco request.
type op struct {
	id      string
	latency time.Duration      // wall clock
	cpu     time.Duration      // process CPU time, all threads
	outcome solvecache.Outcome // eco-churn only
	res     *core.Result       // nil on error; dropped once checked
	design  *signal.Design
	err     error

	// Filled by check.
	digest   [sha256.Size]byte
	metrics  metrics.Metrics
	timedOut bool
	failure  string // empty when the operation passed every check
	audit    audit.Report
}

// pass is one timed sweep over a workload's operations.
type pass struct {
	wall time.Duration // the timed section only
	cpu  time.Duration // process CPU time of the timed section
	// retained is the live heap, in bytes, after a collection while the
	// pass's outputs are held: the batch results at the end of the pass,
	// or the eco solver once its cache holds the base design. (With the
	// whole chain cached, the eco figure depends on which edits a seed
	// draws: it ranged from 182 MB to 378 MB over ten seeds.)
	retained uint64
	ops      []op
	cache    solvecache.Stats // eco-churn: counts of the timed requests only
}

// runUntraced sweeps the workload once exactly as a user would: batch
// designs through core.RunCtx, the eco chain through a fresh
// solvecache.Solver whose cache is first warmed with the base design.
func runUntraced(ctx context.Context, w workload, in inputs) (pass, error) {
	var ps pass
	if !w.eco {
		ps.ops = make([]op, len(in.designs))
		t0 := now()
		for i, d := range in.designs {
			s := now()
			res, err := core.RunCtx(ctx, d, w.opt)
			ps.ops[i] = op{id: d.Name, res: res, design: d, err: err}
			ps.ops[i].latency, ps.ops[i].cpu = s.since()
		}
		ps.wall, ps.cpu = t0.since()
		ps.retained = liveHeap()
		return ps, nil
	}
	sv := solvecache.NewSolver(solvecache.NewCache(0))
	if _, _, err := sv.Solve(ctx, in.designs[0], w.opt); err != nil {
		return ps, fmt.Errorf("warming the cache with %s: %w", in.designs[0].Name, err)
	}
	ps.retained = liveHeap()
	before := sv.Cache().Stats()
	ps.ops = make([]op, len(in.chain))
	t0 := now()
	for i, d := range in.chain {
		s := now()
		res, outcome, err := sv.Solve(ctx, d, w.opt)
		ps.ops[i] = op{id: d.Name, outcome: outcome, res: res, design: d, err: err}
		ps.ops[i].latency, ps.ops[i].cpu = s.since()
	}
	ps.wall, ps.cpu = t0.since()
	ps.cache = statsDelta(sv.Cache().Stats(), before)
	return ps, nil
}

// liveHeap collects garbage and returns the bytes still reachable. The
// second collection empties the sync.Pool victim caches the layers keep
// scratch in, which survive one collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// stamp is a point in wall-clock time and in process CPU time.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{time.Now(), cpuTime()} }

// since returns the wall-clock and CPU time elapsed since s.
func (s stamp) since() (wall, cpu time.Duration) {
	return time.Since(s.wall), cpuTime() - s.cpu
}

// cpuTime is the process's CPU time so far, user plus system, summed over
// all threads. Unlike wall time it excludes time the virtual CPU was
// stolen by the host, the main source of run-to-run noise on shared
// machines.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage(RUSAGE_SELF) failed: " + err.Error()) // cannot fail for valid arguments
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// refSeconds is the CPU time refKernel takes on the reference host (an
// idle 2-vCPU Intel Xeon virtual machine). Normalised times are CPU times
// scaled by refSeconds over refKernel's time in the same run: seconds at
// the reference host's speed.
const refSeconds = 0.012

// refKernel runs a fixed workload that shares no code with the program
// (hash-map appends, then a sort) and returns its CPU time. On a shared
// host the speed of the same CPU time drifts by a third within minutes,
// with other tenants' load rather than with steal; the kernel slows with
// it, so dividing by its time cancels most of the drift, while a change to
// the program cannot change the kernel.
func refKernel() time.Duration {
	t0 := cpuTime()
	r := rand.New(rand.NewSource(1))
	m := map[int][]int{}
	for i := 0; i < 60000; i++ {
		k := r.Intn(20000)
		m[k] = append(m[k], i)
	}
	xs := make([]int, 0, len(m))
	for k, v := range m {
		xs = append(xs, k*len(v))
	}
	sort.Ints(xs)
	return cpuTime() - t0
}

// speedProbe collects refKernel samples over a run.
type speedProbe struct{ samples []float64 }

// sample runs the kernel n times.
func (sp *speedProbe) sample(n int) {
	for i := 0; i < n; i++ {
		sp.samples = append(sp.samples, refKernel().Seconds())
	}
}

// factor scales a CPU time of this run to the reference host's speed.
func (sp *speedProbe) factor() float64 { return refSeconds / median(sp.samples) }

func statsDelta(a, b solvecache.Stats) solvecache.Stats {
	return solvecache.Stats{
		Entries:            a.Entries,
		Hits:               a.Hits - b.Hits,
		Misses:             a.Misses - b.Misses,
		Incrementals:       a.Incrementals - b.Incrementals,
		ColdFallbacks:      a.ColdFallbacks - b.ColdFallbacks,
		AuditRejects:       a.AuditRejects - b.AuditRejects,
		Evictions:          a.Evictions - b.Evictions,
		InvalidatedObjects: a.InvalidatedObjects - b.InvalidatedObjects,
	}
}

// check is the correctness gate of one operation, run after the timed
// section: an error, a degraded (fallback-rung) or timed-out result, or a
// routing the independent audit rejects fails the operation. It also
// digests the output and releases the result.
func (o *op) check(ctx context.Context) {
	defer func() { o.res = nil }()
	switch {
	case o.err != nil:
		o.failure = "error: " + o.err.Error()
		return
	case o.res.Degraded:
		o.failure = "served by fallback rung " + o.res.SolverUsed
	case o.res.TimedOut:
		o.timedOut = true
		o.failure = "hit its time limit"
	}
	o.audit = audit.CheckCtx(ctx, o.design, o.res.Problem.Grid, o.res.Routing)
	if !o.audit.OK() && o.failure == "" {
		o.failure = "audit: " + o.audit.Summary()
	}
	o.digest = digest(o.res)
	o.metrics = o.res.Metrics
}

// digest hashes a result's output: the selection objective's bits, the
// canonical routed geometry with layers and solution objects, and the
// quality row. Names and run times are excluded, so equal outputs of
// differently named designs (cache hits, cold re-solves) digest equally.
func digest(res *core.Result) [sha256.Size]byte {
	h := sha256.New()
	put := func(vs ...int64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	putf := func(fs ...float64) {
		for _, f := range fs {
			put(int64(math.Float64bits(f)))
		}
	}
	putf(res.Problem.ObjectiveValue(res.Assignment))
	r := res.Routing
	for gi := range r.Bits {
		put(int64(gi))
		for _, b := range r.Bits[gi] {
			if !b.Routed {
				put(-1)
				continue
			}
			put(int64(b.HLayer), int64(b.VLayer))
			for _, s := range b.Tree.Canon().Segs {
				put(int64(s.A.X), int64(s.A.Y), int64(s.B.X), int64(s.B.Y))
			}
		}
		for _, so := range r.Objects[gi] {
			put(int64(so.RepBit), int64(so.HLayer), int64(so.VLayer), int64(len(so.BitIdx)))
			for _, bi := range so.BitIdx {
				put(int64(bi))
			}
		}
	}
	m := res.Metrics
	put(int64(m.Groups), int64(m.RoutedGroups), int64(m.VioDst), int64(m.Overflow), int64(res.VioBefore))
	putf(m.WL, m.AvgReg)
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// passDigest folds a pass's operation digests in order.
func passDigest(ps pass) string {
	h := sha256.New()
	for _, o := range ps.ops {
		h.Write(o.digest[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// compareDigests fails every operation of ps whose digest differs from
// the same operation in ref; what names the comparison in the failure.
func compareDigests(ps *pass, ref pass, what string) {
	for i := range ps.ops {
		o := &ps.ops[i]
		if o.failure == "" && o.digest != ref.ops[i].digest {
			o.failure = "output digest differs from " + what
		}
	}
}

// coldCheck re-solves sampled incremental eco requests cold through
// core.RunCtx and fails any whose output differs from what the cache
// served. It returns the number of re-solves made and their failures.
func coldCheck(ctx context.Context, w io.Writer, wl workload, ps pass, pick []int) (attempted, failed int) {
	for _, i := range pick {
		o := ps.ops[i]
		attempted++
		res, err := core.RunCtx(ctx, o.design, wl.opt)
		switch {
		case err != nil:
			failed++
			fmt.Fprintf(w, "FAIL cold re-solve of %s: %v\n", o.id, err)
		case digest(res) != o.digest:
			failed++
			fmt.Fprintf(w, "FAIL %s: incremental output differs from a cold solve of the same design\n", o.id)
		default:
			fmt.Fprintf(w, "cold re-solve of %s (%s) matches the served output\n", o.id, o.outcome)
		}
	}
	return attempted, failed
}
