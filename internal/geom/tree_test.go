package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// cross builds a + shaped tree centered at (2,2).
func crossTree() Tree {
	return NewTree(
		S(Pt(0, 2), Pt(4, 2)),
		S(Pt(2, 0), Pt(2, 4)),
	)
}

func TestWireLengthOverlap(t *testing.T) {
	// Two overlapping horizontal segments count once.
	tr := NewTree(S(Pt(0, 0), Pt(5, 0)), S(Pt(3, 0), Pt(8, 0)))
	if got := tr.WireLength(); got != 8 {
		t.Errorf("WireLength = %d, want 8", got)
	}
	// Duplicate segment.
	tr2 := NewTree(S(Pt(0, 0), Pt(5, 0)), S(Pt(0, 0), Pt(5, 0)))
	if got := tr2.WireLength(); got != 5 {
		t.Errorf("WireLength = %d, want 5", got)
	}
}

func TestCanonSplitsAtJunctions(t *testing.T) {
	tr := crossTree()
	c := tr.Canon()
	if len(c.Segs) != 4 {
		t.Fatalf("Canon segs = %d, want 4 (%v)", len(c.Segs), c.Segs)
	}
	nodes := tr.Nodes()
	if len(nodes) != 5 {
		t.Fatalf("Nodes = %d, want 5", len(nodes))
	}
}

func TestBends(t *testing.T) {
	l := NewTree(LShape(Pt(0, 0), Pt(3, 4))...)
	if got := l.Bends(); got != 1 {
		t.Errorf("L bends = %d, want 1", got)
	}
	// Z shape: two bends.
	z := NewTree(
		S(Pt(0, 0), Pt(2, 0)),
		S(Pt(2, 0), Pt(2, 3)),
		S(Pt(2, 3), Pt(5, 3)),
	)
	if got := z.Bends(); got != 2 {
		t.Errorf("Z bends = %d, want 2", got)
	}
	// Straight line: no bends. Cross: center is degree 4, not a bend.
	if got := NewTree(S(Pt(0, 0), Pt(9, 0))).Bends(); got != 0 {
		t.Errorf("line bends = %d", got)
	}
	if got := crossTree().Bends(); got != 0 {
		t.Errorf("cross bends = %d", got)
	}
}

func TestBendPoints(t *testing.T) {
	z := NewTree(
		S(Pt(0, 0), Pt(2, 0)),
		S(Pt(2, 0), Pt(2, 3)),
		S(Pt(2, 3), Pt(5, 3)),
	)
	bp := z.BendPoints()
	if len(bp) != 2 || bp[0] != Pt(2, 0) || bp[1] != Pt(2, 3) {
		t.Errorf("BendPoints = %v", bp)
	}
	// T junction has both orientations: it is a bend point (junction).
	tj := NewTree(S(Pt(0, 0), Pt(4, 0)), S(Pt(2, 0), Pt(2, 3)))
	if got := tj.BendPoints(); len(got) != 1 || got[0] != Pt(2, 0) {
		t.Errorf("T BendPoints = %v", got)
	}
}

func TestConnected(t *testing.T) {
	tr := crossTree()
	if !tr.Connected([]Point{Pt(0, 2), Pt(4, 2), Pt(2, 0), Pt(2, 4)}) {
		t.Error("cross should be connected to its tips")
	}
	if tr.Connected([]Point{Pt(5, 5)}) {
		t.Error("cross should not contain (5,5)")
	}
	// Disjoint segments are not connected.
	dis := NewTree(S(Pt(0, 0), Pt(1, 0)), S(Pt(3, 3), Pt(4, 3)))
	if dis.Connected(nil) {
		t.Error("disjoint tree reported connected")
	}
}

func TestIsTree(t *testing.T) {
	if !crossTree().IsTree() {
		t.Error("cross should be a tree")
	}
	// A rectangle loop has a cycle.
	loop := NewTree(
		S(Pt(0, 0), Pt(3, 0)),
		S(Pt(3, 0), Pt(3, 3)),
		S(Pt(3, 3), Pt(0, 3)),
		S(Pt(0, 3), Pt(0, 0)),
	)
	if loop.IsTree() {
		t.Error("loop reported as tree")
	}
}

// TestPathLength pins Distances, and the PathLength reference it replaced,
// on a Z-shaped tree.
func TestPathLength(t *testing.T) {
	z := NewTree(
		S(Pt(0, 0), Pt(2, 0)),
		S(Pt(2, 0), Pt(2, 3)),
		S(Pt(2, 3), Pt(5, 3)),
	)
	cases := []struct {
		a, b Point
		want int
	}{
		{Pt(0, 0), Pt(5, 3), 8},
		{Pt(0, 0), Pt(2, 0), 2},
		{Pt(1, 0), Pt(2, 2), 3}, // interior points
		{Pt(0, 0), Pt(0, 0), 0},
		{Pt(0, 0), Pt(9, 9), -1}, // off tree
	}
	for _, c := range cases {
		if got := z.Distances(c.a, []Point{c.b})[0]; got != c.want {
			t.Errorf("Distances(%v,{%v}) = %d, want %d", c.a, c.b, got, c.want)
		}
		if ref := z.PathLength(c.a, c.b); ref != c.want {
			t.Errorf("reference PathLength(%v,%v) = %d, want %d", c.a, c.b, ref, c.want)
		}
	}
}

func TestTranslate(t *testing.T) {
	tr := crossTree()
	moved := tr.Translate(Pt(10, -3))
	if moved.WireLength() != tr.WireLength() {
		t.Error("translation changed wirelength")
	}
	if !moved.OnTree(Pt(12, -1)) {
		t.Error("translated center missing")
	}
}

// randomSpanTree builds a random connected rectilinear tree by L-connecting
// each point to a previously added one.
func randomSpanTree(r *rand.Rand, n int) (Tree, []Point) {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Pt(r.Intn(20), r.Intn(20))
	}
	var tr Tree
	for i := 1; i < n; i++ {
		tr.Append(LShape(pts[r.Intn(i)], pts[i])...)
	}
	return tr, pts
}

func TestRandomTreesConnectedAndCanonInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		tr, pts := randomSpanTree(r, 2+r.Intn(8))
		if !tr.Connected(pts) {
			t.Fatalf("trial %d: random span tree disconnected", trial)
		}
		if tr.Canon().WireLength() != tr.WireLength() {
			t.Fatalf("trial %d: Canon changed wirelength", trial)
		}
		// Canon is idempotent.
		c := tr.Canon()
		if len(c.Canon().Segs) != len(c.Segs) {
			t.Fatalf("trial %d: Canon not idempotent", trial)
		}
	}
}

func TestWireLengthTranslationInvariant(t *testing.T) {
	f := func(dx, dy int8) bool {
		tr := crossTree()
		return tr.Translate(Pt(int(dx), int(dy))).WireLength() == tr.WireLength()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHananGrid(t *testing.T) {
	pins := []Point{Pt(0, 0), Pt(3, 5), Pt(7, 2)}
	grid := HananGrid(pins)
	if len(grid) != 9 {
		t.Fatalf("Hanan grid size = %d, want 9", len(grid))
	}
	cands := HananCandidates(pins)
	if len(cands) != 6 {
		t.Fatalf("Hanan candidates = %d, want 6", len(cands))
	}
	seen := map[Point]bool{}
	for _, p := range cands {
		seen[p] = true
	}
	for _, p := range pins {
		if seen[p] {
			t.Errorf("candidate set contains pin %v", p)
		}
	}
}

func TestDedupPoints(t *testing.T) {
	pts := []Point{Pt(1, 1), Pt(0, 0), Pt(1, 1), Pt(0, 0), Pt(2, 0)}
	out := DedupPoints(pts)
	if len(out) != 3 || out[0] != Pt(0, 0) || out[1] != Pt(1, 1) || out[2] != Pt(2, 0) {
		t.Errorf("DedupPoints = %v", out)
	}
}
