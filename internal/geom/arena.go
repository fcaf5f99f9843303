package geom

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// This file holds the allocation-free SoA kernels behind Canon, WireLength,
// Bends and Connected (Distances, in distances.go, reuses the same arena).
// The map-and-nested-slice implementations they replace dominated
// the candidate-build and selection hot paths; the kernels below reduce each
// of them to packed-key sorts plus linear merges over scratch slices owned
// by a pooled Arena, so steady-state callers allocate nothing. Outputs are
// byte-identical to the legacy implementations (pinned by the fuzz and
// golden suites): merged lines order horizontal-first, then fixed ascending,
// then span start ascending, and canonical segments split at ascending
// deduplicated cuts.

// coordBias shifts signed G-cell coordinates into the 31-bit unsigned range
// used by the packed sort keys. Coordinates must stay within
// [-2^30, 2^30); packKey panics otherwise rather than silently mis-sorting.
const coordBias = 1 << 30

const coordMask = 1<<31 - 1

// lineRec is one collinear run in packed SoA form: key orders runs
// (direction, fixed coordinate, span start) so a single flat sort reproduces
// the legacy per-group ordering; hi is the span end on the moving axis.
type lineRec struct {
	key uint64
	hi  int32
}

// packKey builds a sort key ordering horizontal runs first, then fixed
// ascending, then lo ascending — the canonical line order.
func packKey(vertical bool, fixed, lo int) uint64 {
	bf, bl := uint64(int64(fixed)+coordBias), uint64(int64(lo)+coordBias)
	if bf > coordMask || bl > coordMask {
		panic(fmt.Sprintf("geom: coordinate out of packed range: fixed=%d lo=%d", fixed, lo))
	}
	k := bf<<31 | bl
	if vertical {
		k |= 1 << 62
	}
	return k
}

func (r lineRec) vertical() bool { return r.key>>62 != 0 }
func (r lineRec) fixed() int     { return int(r.key>>31&coordMask) - coordBias }
func (r lineRec) lo() int        { return int(r.key&coordMask) - coordBias }

// dirFixedMask selects the (direction, fixed) part of a key — two runs merge
// only when these bits match.
const dirFixedMask = 1<<62 | uint64(coordMask)<<31

// packPt packs a point for sorted set intersection.
func packPt(x, y int) uint64 {
	return uint64(int64(x)+coordBias)<<31 | uint64(int64(y)+coordBias)
}

// Arena is reusable scratch for the geometry kernels. The zero value is
// ready to use; Get/PutArena pool arenas so steady-state solve paths reuse
// grown scratch instead of reallocating it. An Arena is not safe for
// concurrent use; pool one per goroutine.
type Arena struct {
	recs   []lineRec
	cuts   []int32
	hpts   []uint64
	vpts   []uint64
	canon  []Seg
	parent []int32

	// Distances scratch: split segments, cut coordinates, sorted nodes,
	// compressed adjacency, shortest-path distances and heap.
	dsegs  []Seg
	dcuts  []int
	dnodes []Point
	dstart []int32
	dends  []int32
	dadj   []int32
	ddist  []int
	dheap  []distItem
}

var arenaPool = sync.Pool{New: func() any {
	arenaFresh.Add(1)
	return new(Arena)
}}

var (
	arenaGets  atomic.Int64
	arenaFresh atomic.Int64
)

// GetArena returns a pooled arena (allocating a fresh one only when the pool
// is empty). Pair with PutArena.
func GetArena() *Arena {
	arenaGets.Add(1)
	return arenaPool.Get().(*Arena)
}

// PutArena returns the arena to the pool for reuse.
func PutArena(a *Arena) { arenaPool.Put(a) }

// ArenaCounters reports cumulative GetArena calls and how many of them had
// to allocate a fresh arena; solvers snapshot the pair around a stage to
// surface pooled-vs-fresh acquisition counts in telemetry.
func ArenaCounters() (gets, fresh int64) {
	return arenaGets.Load(), arenaFresh.Load()
}

// merge fills a.recs with the maximal disjoint collinear runs of segs, in
// canonical order (horizontal first, fixed ascending, lo ascending), and
// returns the merged prefix.
func (a *Arena) merge(segs []Seg) []lineRec {
	recs := a.recs[:0]
	for _, s := range segs {
		if s.A == s.B {
			continue
		}
		n := s.Norm()
		if n.Horizontal() {
			recs = append(recs, lineRec{packKey(false, n.A.Y, n.A.X), int32(n.B.X)})
		} else {
			recs = append(recs, lineRec{packKey(true, n.A.X, n.A.Y), int32(n.B.Y)})
		}
	}
	a.recs = recs
	slices.SortFunc(recs, func(x, y lineRec) int {
		if x.key < y.key {
			return -1
		}
		if x.key > y.key {
			return 1
		}
		return 0
	})
	// Merge overlapping runs in place: the write index never passes the
	// read index.
	m := 0
	for i := 0; i < len(recs); {
		cur := recs[i]
		j := i + 1
		for ; j < len(recs); j++ {
			r := recs[j]
			if r.key&dirFixedMask != cur.key&dirFixedMask || int32(r.lo()) > cur.hi {
				break
			}
			if r.hi > cur.hi {
				cur.hi = r.hi
			}
		}
		recs[m] = cur
		m++
		i = j
	}
	return recs[:m]
}

// WireLength returns the total length of the union of the segments —
// Tree.WireLength without the per-call map and group slices.
func (a *Arena) WireLength(segs []Seg) int {
	if !segsInPackedRange(segs) {
		return wideWireLength(segs)
	}
	total := 0
	for _, r := range a.merge(segs) {
		total += int(r.hi) - r.lo()
	}
	return total
}

// Bends counts the bending points of the segment set: canonical nodes with
// exactly one horizontal and one vertical incident segment. Merged runs are
// disjoint per direction, so at most one run per direction passes through
// any point and a node is a bend iff it is an extremity of both a
// horizontal and a vertical run; the kernel intersects the two sorted
// extremity sets.
func (a *Arena) Bends(segs []Seg) int {
	if !segsInPackedRange(segs) {
		return wideBends(segs)
	}
	lines := a.merge(segs)
	hp, vp := a.hpts[:0], a.vpts[:0]
	for _, l := range lines {
		if l.vertical() {
			x := l.fixed()
			vp = append(vp, packPt(x, l.lo()), packPt(x, int(l.hi)))
		} else {
			y := l.fixed()
			hp = append(hp, packPt(l.lo(), y), packPt(int(l.hi), y))
		}
	}
	a.hpts, a.vpts = hp, vp
	slices.Sort(hp)
	slices.Sort(vp)
	bends := 0
	for i, j := 0, 0; i < len(hp) && j < len(vp); {
		switch {
		case hp[i] < vp[j]:
			i++
		case hp[i] > vp[j]:
			j++
		default:
			bends++
			i++
			j++
		}
	}
	return bends
}

// AppendCanon appends the canonical form of segs to dst and returns it:
// merged runs split at every endpoint or crossing touching them, in the
// same order and with the same endpoints as Tree.Canon.
func (a *Arena) AppendCanon(dst []Seg, segs []Seg) []Seg {
	if !segsInPackedRange(segs) {
		return wideAppendCanon(dst, segs)
	}
	lines := a.merge(segs)
	// Horizontal runs sort first; hb is the first vertical index.
	hb := len(lines)
	for i, l := range lines {
		if l.vertical() {
			hb = i
			break
		}
	}
	horiz, vert := lines[:hb], lines[hb:]
	for i, l := range lines {
		lo := int32(l.lo())
		cuts := append(a.cuts[:0], lo, l.hi)
		fixed := int32(l.fixed())
		// Perpendicular runs cut this one where they cross it (endpoint
		// contact included).
		var perp []lineRec
		if i < hb {
			perp = vert
		} else {
			perp = horiz
		}
		for _, b := range perp {
			bf := int32(b.fixed())
			if bf >= lo && bf <= l.hi && fixed >= int32(b.lo()) && fixed <= b.hi {
				cuts = append(cuts, bf)
			}
		}
		a.cuts = cuts
		slices.Sort(cuts)
		prev := cuts[0]
		for _, c := range cuts[1:] {
			if c == prev {
				continue
			}
			if l.vertical() {
				dst = append(dst, Seg{A: Point{int(fixed), int(prev)}, B: Point{int(fixed), int(c)}})
			} else {
				dst = append(dst, Seg{A: Point{int(prev), int(fixed)}, B: Point{int(c), int(fixed)}})
			}
			prev = c
		}
	}
	return dst
}

// Canon returns the canonical segments of segs in arena-owned scratch. The
// result is valid until the arena's next kernel call or PutArena; callers
// needing to keep it must copy.
func (a *Arena) Canon(segs []Seg) []Seg {
	out := a.AppendCanon(a.canon[:0], segs)
	a.canon = out
	return out
}

// Components counts the connected components of the union of the
// positive-length segments; zero-length segments are ignored, as Canon
// ignores them, so a set with no positive-length segment has 0. This is
// the component count of the canonical segment graph without building it:
// merged runs of one direction are disjoint (merge joins touching collinear
// runs), so two runs share a point only when one is horizontal, the other
// vertical and they cross or touch — exactly where Canon splits both at a
// common node. Union-find over the runs, joining every touching H/V pair,
// therefore yields the same components as a walk of the canonical graph.
func (a *Arena) Components(segs []Seg) int {
	if !segsInPackedRange(segs) {
		return wideComponents(segs)
	}
	lines := a.merge(segs)
	hb := len(lines)
	for i, l := range lines {
		if l.vertical() {
			hb = i
			break
		}
	}
	parent := a.parent[:0]
	for i := range lines {
		parent = append(parent, int32(i))
	}
	a.parent = parent
	comps := len(lines)
	for i := 0; i < hb && comps > 1; i++ {
		h := lines[i]
		hy, hlo := int32(h.fixed()), int32(h.lo())
		for j := hb; j < len(lines); j++ {
			v := lines[j]
			vx := int32(v.fixed())
			if vx >= hlo && vx <= h.hi && hy >= int32(v.lo()) && hy <= v.hi && union(parent, int32(i), int32(j)) {
				comps--
			}
		}
	}
	return comps
}

// union joins the sets of x and y in the parent forest (path halving) and
// reports whether they were distinct.
func union(parent []int32, x, y int32) bool {
	x, y = find(parent, x), find(parent, y)
	if x == y {
		return false
	}
	parent[y] = x
	return true
}

func find(parent []int32, x int32) int32 {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}

// ---- wide-coordinate fallback ----
//
// The packed keys carry biased 31-bit coordinates, plenty for G-cell grids
// but not for huge physical-unit spans (metrics on billion-cell grids). Each
// kernel checks the input once and falls back to the wide path below, which
// keeps the legacy full-int-range semantics at legacy speed; the fallback is
// cold and allocates freely.

// segsInPackedRange reports whether every endpoint fits the packed keys.
func segsInPackedRange(segs []Seg) bool {
	for _, s := range segs {
		if !ptInPackedRange(s.A) || !ptInPackedRange(s.B) {
			return false
		}
	}
	return true
}

func ptInPackedRange(p Point) bool {
	return p.X >= -coordBias && p.X < coordBias && p.Y >= -coordBias && p.Y < coordBias
}

// wideLine is a merged collinear run with unbounded coordinates.
type wideLine struct {
	vertical bool
	fixed    int
	lo, hi   int
}

// wideMerge is merge for out-of-range coordinates, producing the same
// canonical run order (horizontal first, fixed ascending, lo ascending).
func wideMerge(segs []Seg) []wideLine {
	var runs []wideLine
	for _, s := range segs {
		if s.A == s.B {
			continue
		}
		n := s.Norm()
		if n.Horizontal() {
			runs = append(runs, wideLine{false, n.A.Y, n.A.X, n.B.X})
		} else {
			runs = append(runs, wideLine{true, n.A.X, n.A.Y, n.B.Y})
		}
	}
	slices.SortFunc(runs, func(x, y wideLine) int {
		if x.vertical != y.vertical {
			if x.vertical {
				return 1
			}
			return -1
		}
		if x.fixed != y.fixed {
			if x.fixed < y.fixed {
				return -1
			}
			return 1
		}
		if x.lo != y.lo {
			if x.lo < y.lo {
				return -1
			}
			return 1
		}
		return 0
	})
	m := 0
	for i := 0; i < len(runs); {
		cur := runs[i]
		j := i + 1
		for ; j < len(runs); j++ {
			r := runs[j]
			if r.vertical != cur.vertical || r.fixed != cur.fixed || r.lo > cur.hi {
				break
			}
			if r.hi > cur.hi {
				cur.hi = r.hi
			}
		}
		runs[m] = cur
		m++
		i = j
	}
	return runs[:m]
}

func wideWireLength(segs []Seg) int {
	total := 0
	for _, l := range wideMerge(segs) {
		total += l.hi - l.lo
	}
	return total
}

func wideAppendCanon(dst []Seg, segs []Seg) []Seg {
	lines := wideMerge(segs)
	for _, l := range lines {
		cuts := []int{l.lo, l.hi}
		for _, b := range lines {
			if b.vertical == l.vertical {
				continue
			}
			if b.fixed >= l.lo && b.fixed <= l.hi && l.fixed >= b.lo && l.fixed <= b.hi {
				cuts = append(cuts, b.fixed)
			}
		}
		slices.Sort(cuts)
		prev := cuts[0]
		for _, c := range cuts[1:] {
			if c == prev {
				continue
			}
			if l.vertical {
				dst = append(dst, Seg{A: Point{l.fixed, prev}, B: Point{l.fixed, c}})
			} else {
				dst = append(dst, Seg{A: Point{prev, l.fixed}, B: Point{c, l.fixed}})
			}
			prev = c
		}
	}
	return dst
}

func wideComponents(segs []Seg) int {
	lines := wideMerge(segs)
	parent := make([]int32, len(lines))
	for i := range parent {
		parent[i] = int32(i)
	}
	comps := len(lines)
	for i, h := range lines {
		if h.vertical {
			continue
		}
		for j, v := range lines {
			if v.vertical && v.fixed >= h.lo && v.fixed <= h.hi && h.fixed >= v.lo && h.fixed <= v.hi &&
				union(parent, int32(i), int32(j)) {
				comps--
			}
		}
	}
	return comps
}

func wideBends(segs []Seg) int {
	var hp, vp [][2]int
	for _, l := range wideMerge(segs) {
		if l.vertical {
			vp = append(vp, [2]int{l.fixed, l.lo}, [2]int{l.fixed, l.hi})
		} else {
			hp = append(hp, [2]int{l.lo, l.fixed}, [2]int{l.hi, l.fixed})
		}
	}
	cmp := func(x, y [2]int) int {
		if x[0] != y[0] {
			if x[0] < y[0] {
				return -1
			}
			return 1
		}
		if x[1] != y[1] {
			if x[1] < y[1] {
				return -1
			}
			return 1
		}
		return 0
	}
	slices.SortFunc(hp, cmp)
	slices.SortFunc(vp, cmp)
	bends := 0
	for i, j := 0, 0; i < len(hp) && j < len(vp); {
		switch c := cmp(hp[i], vp[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			bends++
			i++
			j++
		}
	}
	return bends
}
