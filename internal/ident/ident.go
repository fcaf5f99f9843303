// Package ident implements Streak's identification stage (§III-A): it
// partitions each signal group into routing objects such that every bit in
// an object has the same similarity vector for every pin, which guarantees
// an equivalent topology exists for all of them. The partition is
// hierarchical, as in Fig. 5(b): bits are first split by driver SV (cheap),
// then by the SVs of the remaining pins, so dissimilar bits are separated
// early without computing every pin's vector against every other bit.
package ident

import (
	"bytes"
	"slices"
	"sort"
	"strconv"

	"repro/internal/geom"
	"repro/internal/signal"
)

// Object is one routing object: a maximal set of bits of a group that can
// share an equivalent topology. Pins of every member bit map 1:1 onto the
// pins of the representative bit.
type Object struct {
	// GroupIdx is the index of the owning group in the design.
	GroupIdx int
	// BitIdx lists the member bits as indices into the group's Bits.
	BitIdx []int
	// Rep is the position inside BitIdx of the representative bit (the one
	// whose driver is closest to the object's pin bounding-box center, per
	// §III-B1 "a bit in the center region").
	Rep int
	// PinMap[k][i] gives, for member k, the pin index in that bit which
	// corresponds to pin i of the representative bit.
	PinMap [][]int
}

// RepBit returns the representative bit of the object within the group.
func (o *Object) RepBit(g *signal.Group) *signal.Bit {
	return &g.Bits[o.BitIdx[o.Rep]]
}

// Bits returns the member bits of the object in order.
func (o *Object) Bits(g *signal.Group) []*signal.Bit {
	out := make([]*signal.Bit, len(o.BitIdx))
	for i, bi := range o.BitIdx {
		out[i] = &g.Bits[bi]
	}
	return out
}

// keyScratch holds the reused buffers behind the identification keys, so
// keying a group's bits renders into the same bytes instead of building a
// string per pin. A zero keyScratch is ready to use.
type keyScratch struct {
	key   []byte
	field []byte // rendered per-pin fields, back to back
	ends  []int  // ends[i] is the end offset of field i
	order []int
}

// fieldAt returns field i of the last render.
func (sc *keyScratch) fieldAt(i int) []byte {
	lo := 0
	if i > 0 {
		lo = sc.ends[i-1]
	}
	return sc.field[lo:sc.ends[i]]
}

// signature renders the canonical isomorphism key of a bit: its pin count,
// the driver SV, and the sorted SVs of all pins, as
// "n<count>|d<driver SV>|<SV>;<SV>;...". Bits are topologically equivalent
// candidates iff their signatures match. The result aliases the scratch
// and is valid until its next use.
func (sc *keyScratch) signature(b *signal.Bit) []byte {
	k := append(sc.key[:0], 'n')
	k = strconv.AppendInt(k, int64(len(b.Pins)), 10)
	k = append(k, "|d"...)
	k = b.DriverSV().AppendTo(k)
	k = append(k, '|')
	sc.field, sc.ends, sc.order = sc.field[:0], sc.ends[:0], sc.order[:0]
	for i := range b.Pins {
		sc.field = b.PinSV(i).AppendTo(sc.field)
		sc.ends = append(sc.ends, len(sc.field))
		sc.order = append(sc.order, i)
	}
	// Equal fields are equal bytes, so the sort's tie order cannot show.
	slices.SortFunc(sc.order, func(x, y int) int { return bytes.Compare(sc.fieldAt(x), sc.fieldAt(y)) })
	for j, i := range sc.order {
		if j > 0 {
			k = append(k, ';')
		}
		k = append(k, sc.fieldAt(i)...)
	}
	sc.key = k
	return k
}

// Partition splits the group into routing objects. Bits with identical
// per-pin similarity vectors land in the same object; each object carries a
// representative bit and per-bit pin mappings. The order of objects is
// deterministic (by first member bit index).
func Partition(groupIdx int, g *signal.Group) []Object {
	// Level 1: split by driver SV (the middle, blue nodes of Fig. 5(b)).
	byDriver := make(map[signal.SV][]int)
	for bi := range g.Bits {
		sv := g.Bits[bi].DriverSV()
		byDriver[sv] = append(byDriver[sv], bi)
	}
	// Level 2: within a driver class, split by the full pin-SV signature
	// (the gray leaf nodes). Only bits that already share a driver SV reach
	// this more expensive comparison.
	// classes[sigIdx[sig]] lists the bits with signature sig.
	var sc keyScratch
	sigIdx := make(map[string]int)
	var classes [][]int
	for _, members := range byDriver {
		for _, bi := range members {
			sig := sc.signature(&g.Bits[bi])
			if c, ok := sigIdx[string(sig)]; ok {
				classes[c] = append(classes[c], bi)
			} else {
				sigIdx[string(sig)] = len(classes)
				classes = append(classes, []int{bi})
			}
		}
	}
	for _, members := range classes {
		sort.Ints(members)
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i][0] < classes[j][0] })

	var out []Object
	for _, members := range classes {
		o := Object{GroupIdx: groupIdx, BitIdx: members}
		o.Rep = centerRep(g, members)
		o.PinMap = buildPinMaps(g, members, o.Rep, &sc)
		out = append(out, o)
	}
	return out
}

// PartitionDesign partitions every group of the design and returns the
// objects in group order.
func PartitionDesign(d *signal.Design) []Object {
	var out []Object
	for gi := range d.Groups {
		out = append(out, Partition(gi, &d.Groups[gi])...)
	}
	return out
}

// centerRep picks the member whose driver is closest to the center of the
// object's pin bounding box.
func centerRep(g *signal.Group, members []int) int {
	var pts []geom.Point
	for _, bi := range members {
		pts = append(pts, g.Bits[bi].PinLocs()...)
	}
	c := geom.BBox(pts).Center()
	best, bestDist := 0, int(^uint(0)>>1)
	for k, bi := range members {
		if d := geom.Dist(g.Bits[bi].DriverLoc(), c); d < bestDist {
			best, bestDist = k, d
		}
	}
	return best
}

// canonicalPinOrder returns the bit's pin indices sorted by the key
// "<SV>|<dx>|<dy>": the pin's SV, then its offset from the driver, each
// axis biased by 2^20 and zero-padded to eight characters (fmt's %08d).
// Pins with equal SVs are disambiguated by their relative offset, making
// cross-bit mapping deterministic and consistent.
func canonicalPinOrder(b *signal.Bit, sc *keyScratch) []int {
	idx := make([]int, len(b.Pins))
	sc.field, sc.ends = sc.field[:0], sc.ends[:0]
	drv := b.DriverLoc()
	for i := range idx {
		idx[i] = i
		off := b.Pins[i].Loc.Sub(drv)
		sc.field = b.PinSV(i).AppendTo(sc.field)
		sc.field = appendPad8(append(sc.field, '|'), off.X+1<<20)
		sc.field = appendPad8(append(sc.field, '|'), off.Y+1<<20)
		sc.ends = append(sc.ends, len(sc.field))
	}
	sort.Slice(idx, func(a, c int) bool { return bytes.Compare(sc.fieldAt(idx[a]), sc.fieldAt(idx[c])) < 0 })
	return idx
}

// appendPad8 appends v as fmt's %08d renders it: zero-padded to eight
// characters, a minus sign counting toward the width.
func appendPad8(dst []byte, v int) []byte {
	var tmp [24]byte
	digits := strconv.AppendInt(tmp[:0], int64(v), 10)
	width := 8
	if v < 0 {
		dst = append(dst, '-')
		digits, width = digits[1:], 7
	}
	for n := len(digits); n < width; n++ {
		dst = append(dst, '0')
	}
	return append(dst, digits...)
}

// buildPinMaps maps each member bit's pins onto the representative's pins.
// Because all members share the same SV signature, sorting both pin lists
// by canonical order aligns corresponding pins positionally.
func buildPinMaps(g *signal.Group, members []int, rep int, sc *keyScratch) [][]int {
	repOrder := canonicalPinOrder(&g.Bits[members[rep]], sc)
	maps := make([][]int, len(members))
	for k, bi := range members {
		order := canonicalPinOrder(&g.Bits[bi], sc)
		m := make([]int, len(order))
		for pos, repPin := range repOrder {
			m[repPin] = order[pos]
		}
		maps[k] = m
	}
	return maps
}
