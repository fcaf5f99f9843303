package ident

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/geom"
	"repro/internal/signal"
)

// refSignature and refCanonicalPinOrder are the fmt renderings the
// byte-buffer key builders replaced, kept as the differential reference.
func refSignature(b *signal.Bit) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "n%d|d%s|", len(b.Pins), refSV(b.DriverSV()))
	svs := make([]string, 0, len(b.Pins))
	for i := range b.Pins {
		svs = append(svs, refSV(b.PinSV(i)))
	}
	sort.Strings(svs)
	sb.WriteString(strings.Join(svs, ";"))
	return sb.String()
}

func refCanonicalPinOrder(b *signal.Bit) []int {
	idx := make([]int, len(b.Pins))
	keys := make([]string, len(b.Pins))
	drv := b.DriverLoc()
	for i := range idx {
		idx[i] = i
		off := b.Pins[i].Loc.Sub(drv)
		keys[i] = fmt.Sprintf("%s|%08d|%08d", refSV(b.PinSV(i)), off.X+1<<20, off.Y+1<<20)
	}
	sort.Slice(idx, func(a, c int) bool { return keys[idx[a]] < keys[idx[c]] })
	return idx
}

// refSV is the fmt rendering SV.String replaced.
func refSV(v signal.SV) string {
	parts := make([]string, signal.NumDirs)
	for i, n := range v {
		parts[i] = fmt.Sprint(n)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// randomBit draws a bit with 1-7 pins on a spread that reaches offsets
// beyond ±2^20 (negative and wider-than-eight-digit padded offsets) and
// repeats locations (equal keys).
func randomBit(rng *rand.Rand) signal.Bit {
	spans := []int{4, 50, 1 << 21, 1 << 30}
	span := spans[rng.Intn(len(spans))]
	n := 1 + rng.Intn(7)
	b := signal.Bit{Driver: rng.Intn(n)}
	for i := 0; i < n; i++ {
		p := geom.Pt(rng.Intn(2*span+1)-span, rng.Intn(2*span+1)-span)
		if i > 0 && rng.Intn(5) == 0 {
			p = b.Pins[rng.Intn(i)].Loc
		}
		b.Pins = append(b.Pins, signal.Pin{Loc: p})
	}
	return b
}

func TestKeysMatchFmtRendering(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var sc keyScratch
	for trial := 0; trial < 3000; trial++ {
		b := randomBit(rng)
		if got, want := string(sc.signature(&b)), refSignature(&b); got != want {
			t.Fatalf("trial %d: signature %q, want %q", trial, got, want)
		}
		if got, want := canonicalPinOrder(&b, &sc), refCanonicalPinOrder(&b); !slices.Equal(got, want) {
			t.Fatalf("trial %d: canonicalPinOrder %v, want %v (pins %v)", trial, got, want, b.Pins)
		}
	}
	for _, v := range []int{0, 7, -7, 1 << 20, -(1 << 20), 99999999, 123456789, -9999999, -12345678, -(1 << 40)} {
		if got, want := string(appendPad8(nil, v)), fmt.Sprintf("%08d", v); got != want {
			t.Errorf("appendPad8(%d) = %q, want %q", v, got, want)
		}
	}
}

// TestPartitionKeysOnIndustry checks the keys on every bit of the Industry
// presets, where the objects and their PinMaps depend on them.
func TestPartitionKeysOnIndustry(t *testing.T) {
	var sc keyScratch
	for n := 1; n <= 7; n++ {
		d := benchgen.Scale(benchgen.Industry(n), 0.1).Generate()
		for gi := range d.Groups {
			for bi := range d.Groups[gi].Bits {
				b := &d.Groups[gi].Bits[bi]
				if got, want := string(sc.signature(b)), refSignature(b); got != want {
					t.Fatalf("Industry%d bit %d/%d: signature %q, want %q", n, gi, bi, got, want)
				}
				if got, want := canonicalPinOrder(b, &sc), refCanonicalPinOrder(b); !slices.Equal(got, want) {
					t.Fatalf("Industry%d bit %d/%d: canonicalPinOrder %v, want %v", n, gi, bi, got, want)
				}
			}
		}
	}
}
