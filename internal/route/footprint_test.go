package route

import (
	"testing"

	"repro/internal/benchgen"
	"repro/internal/geom"
	"repro/internal/grid"
)

// refCandFootprint is the per-edge candFootprint the topology-based one
// replaced, kept as the differential reference: the box of both end cells
// of every edge of every candidate, else the pin box.
func refCandFootprint(p *Problem, oi int) geom.Rect {
	var r geom.Rect
	have := false
	add := func(x, y int) {
		if !have {
			r = geom.Rect{Lo: geom.Point{X: x, Y: y}, Hi: geom.Point{X: x, Y: y}}
			have = true
			return
		}
		r.Lo.X, r.Lo.Y = min(r.Lo.X, x), min(r.Lo.Y, y)
		r.Hi.X, r.Hi.Y = max(r.Hi.X, x), max(r.Hi.Y, y)
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

func TestCandFootprintMatchesPerEdgeRect(t *testing.T) {
	scales := []float64{0.1, 0.3}
	if testing.Short() {
		scales = scales[:1]
	}
	objects := 0
	for _, scale := range scales {
		for n := 1; n <= 7; n++ {
			p, err := Build(benchgen.Scale(benchgen.Industry(n), scale).Generate(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			for oi := range p.Objects {
				objects++
				if got, want := p.candFootprint(oi), refCandFootprint(p, oi); got != want {
					t.Fatalf("Industry%d@%g object %d: candFootprint %v, want %v", n, scale, oi, got, want)
				}
			}
		}
	}
	t.Logf("%d objects", objects)
}
