// Multipin groups with source-to-sink distance refinement: the Fig. 4(b) /
// Fig. 9 scenario. One group carries bits whose mapped sinks sit at very
// different distances from their drivers; the refinement stage inserts
// twisting detours for the short pins so arrival times match. Run with:
//
//	go run ./examples/multipin
package main

import (
	"fmt"
	"log"

	streak "repro"

	"repro/internal/geom"
)

func main() {
	design := &streak.Design{
		Name: "skewed",
		Grid: streak.GridSpec{W: 40, H: 40, NumLayers: 4, EdgeCap: 6, Pitch: 1},
	}

	// Three-pin bits: driver, a far east sink, and a mid sink. The last
	// bit's east sink is much closer, creating a distance-deviation
	// violation within the group.
	var g streak.Group
	g.Name = "skew"
	for b := 0; b < 4; b++ {
		east := 30
		if b == 3 {
			east = 10 // the short bit
		}
		g.Bits = append(g.Bits, streak.Bit{
			Name:   fmt.Sprintf("skew[%d]", b),
			Driver: 0,
			Pins: []streak.Pin{
				{Loc: geom.Pt(4, 10+b)},
				{Loc: geom.Pt(east, 10+b)},
			},
		})
	}
	design.Groups = append(design.Groups, g)

	// Route twice: refinement off, then on.
	off := streak.DefaultOptions()
	off.Refinement = false
	resOff, err := streak.Route(design, off)
	if err != nil {
		log.Fatal(err)
	}
	resOn, err := streak.Route(design, streak.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("refinement off: Vio(dst)=%d  WL=%d\n", resOff.Metrics.VioDst, int(resOff.Metrics.WL))
	fmt.Printf("refinement on:  Vio(dst)=%d  WL=%d  (pins fixed: %d, detour WL: +%d)\n",
		resOn.Metrics.VioDst, int(resOn.Metrics.WL), resOn.Refine.PinsFixed, resOn.Refine.AddedWL)

	// Show the per-bit source-to-sink distances before/after.
	show := func(label string, res *streak.Result) {
		fmt.Printf("\n%s source-to-sink distances:\n", label)
		for bi, bit := range design.Groups[0].Bits {
			br := res.Routing.Bits[0][bi]
			if !br.Routed {
				fmt.Printf("  %-8s unrouted\n", bit.Name)
				continue
			}
			d := br.Tree.Distances(bit.Pins[0].Loc, []geom.Point{bit.Pins[1].Loc})[0]
			fmt.Printf("  %-8s dist=%-3d  %s\n", bit.Name, d, br.Tree)
		}
	}
	show("before refinement", resOff)
	show("after refinement", resOn)
}
