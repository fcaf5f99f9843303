package route

import (
	"bytes"
	"strings"
	"testing"
)

func TestRoutedJSONRoundTrip(t *testing.T) {
	p, err := Build(smallDesign(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := p.NewAssignment()
	for i := range a.Choice {
		a.Choice[i] = 0
	}
	r := p.ExtractRouting(a)

	var buf bytes.Buffer
	if err := p.WriteRoutedJSON(&buf, r); err != nil {
		t.Fatalf("WriteRoutedJSON: %v", err)
	}
	trees, err := ReadRoutedJSON(&buf)
	if err != nil {
		t.Fatalf("ReadRoutedJSON: %v", err)
	}
	routed := 0
	for gi := range r.Bits {
		for _, br := range r.Bits[gi] {
			if br.Routed {
				routed++
			}
		}
	}
	if len(trees) != routed {
		t.Fatalf("exported %d trees, want %d", len(trees), routed)
	}
	for key, tree := range trees {
		if tree.WireLength() == 0 {
			t.Errorf("%s exported empty tree", key)
		}
	}
}

func TestRoutedJSONUnroutedBitsMarked(t *testing.T) {
	p, err := Build(smallDesign(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := p.NewRouting() // nothing routed
	var buf bytes.Buffer
	if err := p.WriteRoutedJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"routed": false`) {
		t.Error("unrouted bits not marked")
	}
	trees, err := ReadRoutedJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 0 {
		t.Errorf("expected no trees, got %d", len(trees))
	}
}

func TestReadRoutedJSONRejectsBrokenRoutes(t *testing.T) {
	// Disconnected route: segments don't touch the second pin.
	bad := `{"design":"x","bits":[{"group":"g","bit":"b","routed":true,
	 "pins":[[0,0],[9,0]],"driver":0,"segs":[[0,0,4,0]]}]}`
	if _, err := ReadRoutedJSON(strings.NewReader(bad)); err == nil {
		t.Error("disconnected route accepted")
	}
	diag := `{"design":"x","bits":[{"group":"g","bit":"b","routed":true,
	 "pins":[[0,0],[3,3]],"driver":0,"segs":[[0,0,3,3]]}]}`
	if _, err := ReadRoutedJSON(strings.NewReader(diag)); err == nil {
		t.Error("diagonal segment accepted")
	}
	if _, err := ReadRoutedJSON(strings.NewReader("nope")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestReadRoutedJSONDegenerateBits(t *testing.T) {
	for _, tc := range []struct {
		name, doc string
		ok        bool
	}{
		{"routed bit without pins", `{"bits":[{"routed":true,"pins":[]}]}`, false},
		{"routed bit with null pins", `{"bits":[{"routed":true}]}`, false},
		{"unrouted bit without pins", `{"bits":[{"routed":false,"pins":[]}]}`, true},
		{"single pin, no segments", `{"bits":[{"routed":true,"pins":[[2,3]]}]}`, true},
		{"coincident pins, zero-length segment", `{"bits":[{"routed":true,"pins":[[2,3],[2,3]],"segs":[[2,3,2,3]]}]}`, true},
		{"distinct pins, zero-length segment", `{"bits":[{"routed":true,"pins":[[2,3],[4,3]],"segs":[[2,3,2,3]]}]}`, false},
		{"wide coordinates", `{"bits":[{"routed":true,"pins":[[0,0],[4000000000,0]],"segs":[[0,0,4000000000,0]]}]}`, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadRoutedJSON(strings.NewReader(tc.doc))
			if (err == nil) != tc.ok {
				t.Errorf("ReadRoutedJSON error = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

// FuzzReadRoutedJSON proves ReadRoutedJSON never panics: whatever bytes
// arrive, it returns either trees that connect their pins or an error.
func FuzzReadRoutedJSON(f *testing.F) {
	f.Add([]byte(`{"routed":true,"pins":[]}`))
	f.Add([]byte(`{"bits":[{"routed":true,"pins":[]}]}`))
	f.Add([]byte(`{"bits":[{"routed":true,"pins":[[1,1],[5,5]],"segs":[[1,1,1,1]]}]}`))
	f.Add([]byte(`{"design":"x","bits":[{"group":"g","bit":"b","routed":true,"pins":[[0,0],[9,0],[4,3]],"driver":0,"segs":[[0,0,9,0],[4,0,4,3]]}]}`))
	f.Add([]byte(`{"bits":[{"routed":true,"pins":[[0,0],[4000000000,0]],"segs":[[0,0,4000000000,0]]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		trees, err := ReadRoutedJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		for key, tr := range trees {
			if !tr.Connected(nil) {
				t.Errorf("%s: accepted a disconnected tree %v", key, tr)
			}
		}
	})
}
