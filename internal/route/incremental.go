package route

import (
	"context"
	"fmt"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/ident"
	"repro/internal/signal"
	"repro/internal/topo"
)

// Delta is a structured design edit: the regions whose capacity or pin
// geometry changed, plus the groups whose pins moved. DiffDesigns produces
// it; Problem.RebuildCtx consumes it to decide which objects keep their
// committed candidate lists and which must regenerate.
type Delta struct {
	// DirtyRects are the edited regions in inclusive cell coordinates:
	// every added or removed blockage rectangle, and the old and new pin
	// bounding boxes of every moved group.
	DirtyRects []geom.Rect
	// ChangedGroups lists the indices of groups whose pin geometry (pin
	// locations or driver location, names ignored) differs between the two
	// designs. Their objects are always re-partitioned and regenerated.
	ChangedGroups []int
}

// Empty reports whether the delta describes no change at all.
func (d Delta) Empty() bool {
	return len(d.DirtyRects) == 0 && len(d.ChangedGroups) == 0
}

// intersects reports whether r overlaps any dirty rect (inclusive bounds).
func (d Delta) intersects(r geom.Rect) bool {
	for _, q := range d.DirtyRects {
		if r.Lo.X <= q.Hi.X && q.Lo.X <= r.Hi.X && r.Lo.Y <= q.Hi.Y && q.Lo.Y <= r.Hi.Y {
			return true
		}
	}
	return false
}

// DiffDesigns compares two designs and returns the structured delta from
// old to new. ok is false when the designs are not delta-compatible — the
// grid shape (dimensions, layer count, base capacity, pitch) or the group
// count differs — in which case an incremental rebuild is meaningless and
// the caller must do a full cold build. Design and group names are ignored:
// they do not affect routing.
func DiffDesigns(old, new *signal.Design) (Delta, bool) {
	var delta Delta
	if old.Grid.W != new.Grid.W || old.Grid.H != new.Grid.H ||
		old.Grid.NumLayers != new.Grid.NumLayers ||
		old.Grid.EdgeCap != new.Grid.EdgeCap ||
		old.Grid.Pitch != new.Grid.Pitch ||
		len(old.Groups) != len(new.Groups) {
		return delta, false
	}
	// Blockage edits: multiset difference, so reordering the blockage list
	// yields an empty delta while any add/remove dirties its rectangle.
	blks := make(map[signal.Blockage]int)
	for _, b := range old.Grid.Blockages {
		blks[b]++
	}
	for _, b := range new.Grid.Blockages {
		blks[b]--
	}
	for b, n := range blks {
		if n != 0 {
			delta.DirtyRects = append(delta.DirtyRects, b.Rect)
		}
	}
	// Group edits: any pin-geometry difference marks the group changed and
	// dirties the union of its old and new pin bounding boxes, so neighbor
	// objects overlapping the edited area are invalidated too.
	for gi := range old.Groups {
		if groupGeometryEqual(&old.Groups[gi], &new.Groups[gi]) {
			continue
		}
		delta.ChangedGroups = append(delta.ChangedGroups, gi)
		if r, ok := groupPinBBox(&old.Groups[gi]); ok {
			delta.DirtyRects = append(delta.DirtyRects, r)
		}
		if r, ok := groupPinBBox(&new.Groups[gi]); ok {
			delta.DirtyRects = append(delta.DirtyRects, r)
		}
	}
	return delta, true
}

// groupGeometryEqual reports whether two groups have identical routing
// geometry: same bit count, and per bit the same driver location and the
// same pin-location sequence. Names are irrelevant to routing and ignored.
func groupGeometryEqual(a, b *signal.Group) bool {
	if len(a.Bits) != len(b.Bits) {
		return false
	}
	for i := range a.Bits {
		ab, bb := &a.Bits[i], &b.Bits[i]
		if len(ab.Pins) != len(bb.Pins) || ab.DriverLoc() != bb.DriverLoc() {
			return false
		}
		for pi := range ab.Pins {
			if ab.Pins[pi].Loc != bb.Pins[pi].Loc {
				return false
			}
		}
	}
	return true
}

// groupPinBBox returns the bounding box of every pin in the group; ok is
// false for a group with no pins.
func groupPinBBox(g *signal.Group) (geom.Rect, bool) {
	var pts []geom.Point
	for i := range g.Bits {
		pts = append(pts, g.Bits[i].PinLocs()...)
	}
	if len(pts) == 0 {
		return geom.Rect{}, false
	}
	return geom.BBox(pts), true
}

// RebuildStats reports what an incremental rebuild reused versus redid.
type RebuildStats struct {
	// KeptObjects counts objects whose candidate lists were carried over
	// from the base problem unchanged.
	KeptObjects int
	// Regenerated counts objects whose candidates were generated afresh —
	// members of changed groups plus objects whose candidate footprint
	// intersects a dirty rect.
	Regenerated int
}

// RebuildCtx builds the selection problem for design d by patching the
// receiver, the problem of a previously solved base design, with the
// structured delta between the two designs (from DiffDesigns). Objects of
// unchanged groups whose candidate footprints avoid every dirty rect keep
// their committed candidate lists (the expensive artifact: topology
// generation plus 3-D expansion); everything else — changed groups, and
// any object overlapping the edited area — is re-partitioned and
// regenerated exactly as BuildCtx would. The pair-cost kernel is rebuilt
// for the patched candidate set, and selection then runs from scratch over
// the freed capacity, so the returned problem yields results identical to
// a full cold build of d.
//
// Candidate 3-D expansion depends only on the grid shape and the group's
// pin geometry — never on edge capacities — so carried-over candidate
// lists are provably identical to what a cold build would generate; the
// footprint-vs-dirty-rect invalidation is a conservative guard on top of
// that. Kept candidate slices are shared with the base problem (they are
// read-only after build).
//
// d must be delta-compatible with the base design (same grid shape and
// group count; see DiffDesigns).
func (p *Problem) RebuildCtx(ctx context.Context, d *signal.Design, delta Delta) (*Problem, RebuildStats, error) {
	var stats RebuildStats
	if err := d.Validate(); err != nil {
		return nil, stats, err
	}
	if len(d.Groups) != len(p.Design.Groups) {
		return nil, stats, fmt.Errorf("route: rebuild across group counts (%d -> %d); need a full build",
			len(p.Design.Groups), len(d.Groups))
	}
	changed := make(map[int]bool, len(delta.ChangedGroups))
	for _, gi := range delta.ChangedGroups {
		changed[gi] = true
	}
	np := &Problem{
		Design:    d,
		Grid:      NewGrid(d),
		Opt:       p.Opt, // already defaulted by the base build
		GroupObjs: make([][]int, len(d.Groups)),
	}
	// np.Cands grows in lockstep with np.Objects: survivors get the base
	// problem's candidate slice, regen slots get nil and are filled by the
	// fan-out below.
	var regen []int // indices into np.Objects needing candidate generation
	for gi := range d.Groups {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		if changed[gi] {
			for _, o := range ident.Partition(gi, &d.Groups[gi]) {
				idx := len(np.Objects)
				np.Objects = append(np.Objects, o)
				np.Cands = append(np.Cands, nil)
				np.GroupObjs[gi] = append(np.GroupObjs[gi], idx)
				regen = append(regen, idx)
			}
			continue
		}
		for _, oi := range p.GroupObjs[gi] {
			idx := len(np.Objects)
			np.Objects = append(np.Objects, p.Objects[oi])
			np.GroupObjs[gi] = append(np.GroupObjs[gi], idx)
			if delta.intersects(p.candFootprint(oi)) {
				np.Cands = append(np.Cands, nil)
				regen = append(regen, idx)
			} else {
				np.Cands = append(np.Cands, p.Cands[oi])
				stats.KeptObjects++
			}
		}
	}
	stats.Regenerated = len(regen)
	workers := np.Opt.WorkerCount()
	err := parallelFor(ctx, workers, len(regen), func(i int) {
		idx := regen[i]
		obj := &np.Objects[idx]
		np.Cands[idx] = genCandidates(np.Grid, &d.Groups[obj.GroupIdx], obj, np.Opt)
	})
	if err != nil {
		return nil, stats, fmt.Errorf("route: %w", err)
	}
	np.indexBits()
	np.indexPartners()
	if err := np.buildKernel(ctx, workers); err != nil {
		return nil, stats, fmt.Errorf("route: %w", err)
	}
	return np, stats, nil
}

// genCandidates generates the candidate list for one object the same way
// BuildCtx does: 2-D topology generation, 3-D layer expansion, and the
// diversity-preserving trim. opt must already carry defaults.
func genCandidates(gr *grid.Grid, g *signal.Group, obj *ident.Object, opt Options) []topo.Candidate {
	ots := topo.ObjectTopologies(g, obj, opt.Topo)
	return trimDiverse(topo.Expand3D(gr, ots, opt.Topo), opt.MaxCandidates)
}

// candFootprint returns the bounding box, in cell coordinates, of every
// cell any candidate of object oi touches; objects with no candidates fall
// back to the object's pin bounding box. This is the region an edit must
// intersect for the object's committed candidates to be invalidated.
func (p *Problem) candFootprint(oi int) geom.Rect {
	var r geom.Rect
	have := false
	add := func(x, y int) {
		if !have {
			r = geom.Rect{Lo: geom.Point{X: x, Y: y}, Hi: geom.Point{X: x, Y: y}}
			have = true
			return
		}
		if x < r.Lo.X {
			r.Lo.X = x
		}
		if y < r.Lo.Y {
			r.Lo.Y = y
		}
		if x > r.Hi.X {
			r.Hi.X = x
		}
		if y > r.Hi.Y {
			r.Hi.Y = y
		}
	}
	for ci := range p.Cands[oi] {
		for _, e := range p.Cands[oi][ci].Edges {
			x, y := p.Grid.EdgeCell(int(e.Layer), int(e.Idx))
			add(x, y)
			if p.Grid.Layers[e.Layer].Dir == grid.Horizontal {
				add(x+1, y)
			} else {
				add(x, y+1)
			}
		}
	}
	if !have {
		obj := &p.Objects[oi]
		g := &p.Design.Groups[obj.GroupIdx]
		for _, bi := range obj.BitIdx {
			for _, pt := range g.Bits[bi].PinLocs() {
				add(pt.X, pt.Y)
			}
		}
	}
	return r
}
