package postopt

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/signal"
)

// groupDistances returns dist[bit][pin], the driver-to-pin path lengths of
// the group's bits along their routed trees, from one Distances walk per
// routed bit; an unrouted bit's row is nil (every pin reads -1). walks
// counts the routed bits.
func groupDistances(g *signal.Group, bits []route.BitRoute) (dist [][]int, walks int) {
	dist = make([][]int, len(g.Bits))
	for bi := range g.Bits {
		if br := &bits[bi]; br.Routed {
			b := &g.Bits[bi]
			dist[bi] = br.Tree.Distances(b.DriverLoc(), b.PinLocs())
			walks++
		}
	}
	return dist, walks
}

// pinDist reads the table: the source-to-sink distance of pin `pin` of bit
// `bit`, or -1 when the bit is unrouted or the pin off its tree.
func pinDist(dist [][]int, bit, pin int) int {
	if dist[bit] == nil {
		return -1
	}
	return dist[bit][pin]
}

// groupMaxDistance returns the maximum source-to-sink distance over all
// routed bits and sinks of the group — the base of the paper's 50 %
// threshold rule. Driver entries read 0 or -1, so scanning whole rows
// gives the sinks' maximum.
func groupMaxDistance(dist [][]int) int {
	maxDst := 0
	for _, row := range dist {
		for _, d := range row {
			maxDst = max(maxDst, d)
		}
	}
	return maxDst
}

// violation identifies one under-distance pin: the group's bit and pin
// index plus the distance it should be brought up to.
type violation struct {
	group, bit, pin int
	current, target int
}

// findViolations detects the source-to-sink deviation violations of a
// routing: for every solution object with a pin correspondence, each
// mapped sink class whose distance spread exceeds threshold = DistFrac *
// (group max initial distance) flags its short pins. Returned slice is
// sorted deterministically; walks counts the distance walks made.
func findViolations(d *signal.Design, r *route.Routing, opt Options) (vios []violation, walks int) {
	opt = opt.withDefaults()
	for gi := range d.Groups {
		var w int
		vios, w = appendGroupViolations(vios, d, r, gi, opt)
		walks += w
	}
	sort.Slice(vios, func(i, j int) bool {
		a, b := vios[i], vios[j]
		if a.group != b.group {
			return a.group < b.group
		}
		if a.bit != b.bit {
			return a.bit < b.bit
		}
		return a.pin < b.pin
	})
	return vios, walks
}

// appendGroupViolations appends group gi's violations to out, in object,
// representative-sink, class order. A group's verdict reads only its own
// bits' trees and objects. The distance table is built only when some
// object has a pin correspondence over two or more bits, since no other
// group can violate.
func appendGroupViolations(out []violation, d *signal.Design, r *route.Routing, gi int, opt Options) ([]violation, int) {
	g := &d.Groups[gi]
	objs := r.Objects[gi]
	if !slices.ContainsFunc(objs, classed) {
		return out, 0
	}
	dist, walks := groupDistances(g, r.Bits[gi])
	threshold := int(opt.DistFrac * float64(groupMaxDistance(dist)))
	if threshold <= 0 {
		return out, walks
	}
	for _, so := range objs {
		if !classed(so) {
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
		for repSink := range rep.Pins {
			if repSink == rep.Driver {
				continue
			}
			// The mapped pin class: pin PinMap[k][objPin] of each bit k.
			objPin := mapToObjectPin(so.PinMap[repK], repSink)
			maxDst := -1
			for k, bi := range so.BitIdx {
				maxDst = max(maxDst, pinDist(dist, bi, so.PinMap[k][objPin]))
			}
			for k, bi := range so.BitIdx {
				pin := so.PinMap[k][objPin]
				if dst := pinDist(dist, bi, pin); dst >= 0 && maxDst-dst > threshold {
					out = append(out, violation{gi, bi, pin, dst, maxDst - threshold})
				}
			}
		}
	}
	return out, walks
}

// classed reports whether the object has a pin correspondence over two or
// more bits, the only objects whose sink classes can violate.
func classed(so route.SolutionObject) bool {
	return so.PinMap != nil && len(so.BitIdx) >= 2
}

// mapToObjectPin inverts a representative pin map entry: given the map
// from object-representative pins to cluster-representative pins, find the
// object pin whose image is repPin. PinMap rows are permutations, so the
// inverse exists.
func mapToObjectPin(repMap []int, repPin int) int {
	for objPin, p := range repMap {
		if p == repPin {
			return objPin
		}
	}
	return repPin
}

// violatedGroups counts the distinct groups of a group-sorted violation
// list.
func violatedGroups(vios []violation) int {
	n := 0
	for i, v := range vios {
		if i == 0 || vios[i-1].group != v.group {
			n++
		}
	}
	return n
}

// CountViolatedGroups returns the paper's Vio(dst) metric: the number of
// groups with at least one source-to-sink deviation violation.
func CountViolatedGroups(d *signal.Design, r *route.Routing, opt Options) int {
	return CountViolatedGroupsCtx(context.Background(), d, r, opt)
}

// CountViolatedGroupsCtx is CountViolatedGroups recording its distance
// walks on the context's recorder.
func CountViolatedGroupsCtx(ctx context.Context, d *signal.Design, r *route.Routing, opt Options) int {
	vios, walks := findViolations(d, r, opt)
	if rec := obs.FromContext(ctx); rec != nil {
		rec.Add(obs.CounterVioWalks, int64(walks))
	}
	return violatedGroups(vios)
}

// RefineStats summarizes a refinement pass.
type RefineStats struct {
	// GroupsBefore and GroupsAfter count violated groups before and after.
	GroupsBefore, GroupsAfter int
	// PinsFixed counts violating pins whose detour succeeded.
	PinsFixed int
	// PinsLeft counts violating pins that could not be fixed (capacity or
	// boundary constraints).
	PinsLeft int
	// AddedWL is the total detour wirelength added.
	AddedWL int
}

// Refine runs Algorithm 4: for every violating pin it extracts the RC
// incident to the pin and tries perpendicular U-shaped shifts (Fig. 10) in
// both directions, checking multilayer capacity before committing. The
// routing and usage are updated in place.
func Refine(p *route.Problem, r *route.Routing, u *grid.Usage, opt Options) RefineStats {
	stats, _ := RefineCtx(context.Background(), p, r, u, opt)
	return stats
}

// RefineCtx is Refine honoring the context: cancellation is checked before
// every detour, so the call returns promptly with ctx's error. Detours
// already committed stay in place — each one is individually legal.
//
// Vio(dst) is evaluated once: the pre-pass gives both GroupsBefore and the
// work list. A detour changes only its own bit's tree, and a group's
// verdict reads only its own bits, so GroupsAfter re-evaluates just the
// groups in which a detour was committed and keeps every other group's
// pre-pass verdict.
func RefineCtx(ctx context.Context, p *route.Problem, r *route.Routing, u *grid.Usage, opt Options) (RefineStats, error) {
	opt = opt.withDefaults()
	var stats RefineStats
	var walks, attempts int
	err := obs.Do(ctx, obs.StageRefine, 0, func(ctx context.Context) error {
		vios, w := findViolations(p.Design, r, opt)
		walks += w
		stats.GroupsBefore = violatedGroups(vios)
		// Groups with a committed detour, ascending: vios is group-sorted.
		var touched []int
		after := func() {
			stats.GroupsAfter = stats.GroupsBefore - len(touched)
			for _, gi := range touched {
				vs, w := appendGroupViolations(nil, p.Design, r, gi, opt)
				walks += w
				if len(vs) > 0 {
					stats.GroupsAfter++
				}
			}
		}
		for _, v := range vios {
			if err := ctx.Err(); err != nil {
				after()
				return fmt.Errorf("postopt: refine: %w", err)
			}
			fixed, added, tries := detourPin(p.Design, r, u, v)
			attempts += tries
			if fixed {
				stats.PinsFixed++
				stats.AddedWL += added
				if n := len(touched); n == 0 || touched[n-1] != v.group {
					touched = append(touched, v.group)
				}
			} else {
				stats.PinsLeft++
			}
		}
		after()
		return nil
	})
	if rec := obs.FromContext(ctx); rec != nil {
		rec.Add(obs.CounterRefinePinsFixed, int64(stats.PinsFixed))
		rec.Add(obs.CounterRefinePinsLeft, int64(stats.PinsLeft))
		rec.Add(obs.CounterRefineAddedWL, int64(stats.AddedWL))
		rec.Add(obs.CounterRefineDetourTries, int64(attempts))
		rec.Add(obs.CounterVioWalks, int64(walks))
	}
	return stats, err
}

// detourPin lengthens the connection to the violating pin by a U-shaped
// twisting route so that its source-to-sink distance reaches the target.
// Returns whether the detour succeeded, the added wirelength and the number
// of shifted detours tried.
func detourPin(d *signal.Design, r *route.Routing, u *grid.Usage, v violation) (fixed bool, added, tries int) {
	g := d.Groups[v.group]
	bit := &g.Bits[v.bit]
	br := &r.Bits[v.group][v.bit]
	if !br.Routed {
		return false, 0, 0
	}
	pinLoc := bit.Pins[v.pin].Loc
	conn, rest, ok := leafConnection(br.Tree, bit.PinLocs(), pinLoc)
	if !ok {
		return false, 0, 0
	}
	need := v.target - v.current
	if need <= 0 {
		return false, 0, 0
	}
	k := (need + 1) / 2 // each U adds 2k length

	gr := u.Grid()
	try := func(detour []geom.Seg) bool {
		tries++
		// The replacement must fit the residual capacity once the old
		// connection is released.
		route.AddTreeUsage(u, geom.NewTree(conn), br.HLayer, br.VLayer, -1)
		newTree := geom.Tree{Segs: append(append([]geom.Seg{}, rest...), detour...)}
		if !treeInBounds(gr, newTree) || !route.TreeFits(u, geom.NewTree(detour...), br.HLayer, br.VLayer) {
			route.AddTreeUsage(u, geom.NewTree(conn), br.HLayer, br.VLayer, 1)
			return false
		}
		if !newTree.Connected(bit.PinLocs()) {
			route.AddTreeUsage(u, geom.NewTree(conn), br.HLayer, br.VLayer, 1)
			return false
		}
		route.AddTreeUsage(u, geom.NewTree(detour...), br.HLayer, br.VLayer, 1)
		br.Tree = newTree
		return true
	}

	n := conn.Norm()
	sp := n.A
	if sp == pinLoc {
		sp = n.B
	}
	if conn.Horizontal() {
		// Vertical shifting (upper and lower, Fig. 10 rotated).
		for _, dy := range []int{k, -k} {
			detour := uShape(sp, pinLoc, geom.Pt(0, dy))
			if try(detour) {
				return true, 2 * k, tries
			}
		}
	} else {
		// Horizontal shifting (left and right, Fig. 10).
		for _, dx := range []int{k, -k} {
			detour := uShape(sp, pinLoc, geom.Pt(dx, 0))
			if try(detour) {
				return true, 2 * k, tries
			}
		}
	}
	return false, 0, tries
}

// uShape returns the three-segment detour replacing the straight
// connection sp -> pin: jog perpendicular by d, run parallel, jog back.
func uShape(sp, pin, d geom.Point) []geom.Seg {
	a := sp.Add(d)
	b := pin.Add(d)
	return []geom.Seg{geom.S(sp, a), geom.S(a, b), geom.S(b, pin)}
}

// leafConnection extracts the canonical RC incident to pin, requiring the
// pin to be a leaf (degree 1) so the detour disturbs no other connection
// (§IV-C keeps the other pins' connections intact). It returns the
// connection, the remaining segments, and ok.
func leafConnection(t geom.Tree, pins []geom.Point, pin geom.Point) (geom.Seg, []geom.Seg, bool) {
	segs := splitAt(t.Canon().Segs, pins)
	deg := 0
	var conn geom.Seg
	var rest []geom.Seg
	for _, s := range segs {
		if s.A == pin || s.B == pin {
			deg++
			conn = s
		} else {
			rest = append(rest, s)
		}
	}
	if deg != 1 {
		return geom.Seg{}, nil, false
	}
	return conn, rest, true
}

// splitAt cuts segments at any of the given points lying in their
// interiors.
func splitAt(segs []geom.Seg, pts []geom.Point) []geom.Seg {
	var out []geom.Seg
	for _, s := range segs {
		n := s.Norm()
		cuts := []geom.Point{n.A, n.B}
		for _, p := range pts {
			if n.Contains(p) && p != n.A && p != n.B {
				cuts = append(cuts, p)
			}
		}
		sort.Slice(cuts, func(i, j int) bool { return cuts[i].Less(cuts[j]) })
		for i := 0; i+1 < len(cuts); i++ {
			if cuts[i] != cuts[i+1] {
				out = append(out, geom.Seg{A: cuts[i], B: cuts[i+1]})
			}
		}
	}
	return out
}

// treeInBounds reports whether every segment endpoint lies on the grid.
func treeInBounds(g *grid.Grid, t geom.Tree) bool {
	for _, s := range t.Segs {
		if !g.InBounds(s.A.X, s.A.Y) || !g.InBounds(s.B.X, s.B.Y) {
			return false
		}
	}
	return true
}
