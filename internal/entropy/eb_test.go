package entropy

import (
	"math"
	"math/rand"
	"testing"

	"github.com/evolvefd/evolvefd/internal/bitset"
	"github.com/evolvefd/evolvefd/internal/core"
	"github.com/evolvefd/evolvefd/internal/datasets"
	"github.com/evolvefd/evolvefd/internal/pli"
)

func TestEBExtendByOneOnPlacesF1(t *testing.T) {
	// §5: the EB method must also identify Municipal as the best extension
	// of F1 — homogeneous (exact) and complete (VI = 0).
	r := datasets.Places()
	x, _ := r.Schema().IndexSet("District", "Region")
	y, _ := r.Schema().IndexSet("AreaCode")

	cands := ExtendByOne(pli.NewPLICounter(r), x, y)
	if len(cands) != 6 {
		t.Fatalf("candidates = %d, want 6", len(cands))
	}
	best := cands[0]
	if name := r.Schema().Column(best.Attr).Name; name != "Municipal" {
		t.Fatalf("EB best = %s, want Municipal", name)
	}
	if !best.Exact() || best.VI != 0 {
		t.Fatalf("Municipal must be homogeneous and complete: %+v", best)
	}
	// PhNo is exact too (homogeneity 0) but not complete → ranked second.
	second := cands[1]
	if name := r.Schema().Column(second.Attr).Name; name != "PhNo" {
		t.Fatalf("EB second = %s, want PhNo", name)
	}
	if !second.Exact() || second.Completeness <= 0 {
		t.Fatalf("PhNo must be exact but incomplete: %+v", second)
	}
	// Candidates must be sorted by (homogeneity, completeness).
	for i := 1; i < len(cands); i++ {
		a, b := cands[i-1], cands[i]
		if a.Homogeneity > b.Homogeneity ||
			(a.Homogeneity == b.Homogeneity && a.Completeness > b.Completeness) {
			t.Fatalf("EB candidates out of order at %d", i)
		}
	}
}

func TestEBAgreesWithCBOnPlaces(t *testing.T) {
	// §5's thesis: CB and EB pick the same best candidates with far simpler
	// computations. Verify agreement of the top choice for F1 and F4.
	r := datasets.Places()
	counter := pli.NewPLICounter(r)
	for _, spec := range []struct{ lhs, rhs string }{
		{"District,Region", "AreaCode"},
		{"District", "PhNo"},
	} {
		fd, err := core.ParseFD(r.Schema(), "F", spec.lhs+" -> "+spec.rhs)
		if err != nil {
			t.Fatal(err)
		}
		cb := core.ExtendByOne(counter, fd, core.CandidateOptions{})
		eb := ExtendByOne(counter, fd.X, fd.Y)
		if cb[0].Attr != eb[0].Attr {
			t.Fatalf("%s: CB best %d ≠ EB best %d", spec.lhs,
				cb[0].Attr, eb[0].Attr)
		}
		// Exactness must coincide across the whole candidate list.
		cbExact := map[int]bool{}
		for _, c := range cb {
			cbExact[c.Attr] = c.Measures.Exact()
		}
		for _, c := range eb {
			if cbExact[c.Attr] != c.Exact() {
				t.Fatalf("attr %d: CB exact=%v, EB exact=%v", c.Attr, cbExact[c.Attr], c.Exact())
			}
		}
	}
}

// TestQuickTheorem1OneDirection checks the direction of Theorem 1 that does
// hold: ε_CB = 0 implies ε_VI = 0, on random relations, for both the general
// and the extension form of ε_VI as printed in the paper.
func TestQuickTheorem1OneDirection(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	zeros := 0
	for iter := 0; iter < 300; iter++ {
		r := randomRelation(rng, 1+rng.Intn(25), 4, 2+rng.Intn(3))
		counter := pli.NewPLICounter(r)
		x, y := bitset.New(rng.Intn(4)), bitset.New(rng.Intn(4))
		if x.Intersects(y) {
			continue
		}
		fd, err := core.NewFD("F", x, y)
		if err != nil {
			t.Fatal(err)
		}
		if core.Compute(counter, fd).EpsilonCB() == 0 {
			zeros++
			if eVI := EpsilonVI(counter, x, y); eVI > 1e-12 {
				t.Fatalf("iter %d: ε_CB=0 but ε_VI=%v", iter, eVI)
			}
		}
		var z bitset.Set
		for c := 0; c < 4; c++ {
			if !x.Contains(c) && !y.Contains(c) && rng.Intn(2) == 0 {
				z.Add(c)
			}
		}
		if z.IsEmpty() {
			continue
		}
		fz := fd.WithExtendedAntecedent(z)
		if core.Compute(counter, fz).EpsilonCB() == 0 {
			zeros++
			if eVIz := EpsilonVIExtension(counter, x, y, z); eVIz > 1e-12 {
				t.Fatalf("iter %d: extension: ε_CB=0 but ε_VI=%v", iter, eVIz)
			}
		}
	}
	if zeros < 10 {
		t.Fatalf("too few ε_CB=0 cases exercised: %d", zeros)
	}
}

// TestTheorem1ConverseCounterexample pins the reproduction finding that the
// converse direction of Theorem 1 is false as printed: a concrete instance
// where ε_VI = 0 (both forms) but ε_CB > 0. The instance makes Y → X exact
// while X → Y is violated, so C_XY = C_Y ≠ C_X.
func TestTheorem1ConverseCounterexample(t *testing.T) {
	r := buildRelation(t, []string{"x", "y"}, [][]string{
		{"a", "y1"}, {"a", "y2"}, {"b", "y3"},
	})
	x, y := bitset.New(0), bitset.New(1)
	counter := pli.NewPLICounter(r)
	fd, err := core.NewFD("F", x, y)
	if err != nil {
		t.Fatal(err)
	}
	m := core.Compute(counter, fd)
	if m.Exact() {
		t.Fatal("x→y must be violated (a maps to y1 and y2)")
	}
	if eCB := m.EpsilonCB(); eCB <= 0 {
		t.Fatalf("ε_CB = %v, want > 0", eCB)
	}
	if eVI := EpsilonVI(counter, x, y); eVI != 0 {
		t.Fatalf("ε_VI = %v, want 0 (C_XY = C_Y here)", eVI)
	}
	// The corrected measure detects the violation.
	if eFix := EpsilonVIEquivalent(counter, x, y, bitset.Set{}); eFix <= 0 {
		t.Fatalf("corrected ε_VI = %v, want > 0", eFix)
	}
}

// TestQuickTheorem1CorrectedEquivalence: the corrected measure
// VI(C_XZ, C_Y) has exactly the same null set as ε_CB, in both directions,
// on random relations — the statement Theorem 1 intended.
func TestQuickTheorem1CorrectedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	zeros, nonzeros := 0, 0
	for iter := 0; iter < 300; iter++ {
		r := randomRelation(rng, 1+rng.Intn(25), 4, 2+rng.Intn(3))
		counter := pli.NewPLICounter(r)
		x, y := bitset.New(rng.Intn(4)), bitset.New(rng.Intn(4))
		if x.Intersects(y) {
			continue
		}
		var z bitset.Set
		for c := 0; c < 4; c++ {
			if !x.Contains(c) && !y.Contains(c) && rng.Intn(3) == 0 {
				z.Add(c)
			}
		}
		fd, err := core.NewFD("F", x, y)
		if err != nil {
			t.Fatal(err)
		}
		fz := fd
		if !z.IsEmpty() {
			fz = fd.WithExtendedAntecedent(z)
		}
		eCB := core.Compute(counter, fz).EpsilonCB()
		eFix := EpsilonVIEquivalent(counter, x, y, z)
		if (eCB == 0) != (eFix < 1e-12) {
			t.Fatalf("iter %d: ε_CB=%v but corrected ε_VI=%v (x=%v y=%v z=%v)",
				iter, eCB, eFix, x, y, z)
		}
		if eCB == 0 {
			zeros++
		} else {
			nonzeros++
		}
	}
	if zeros < 10 || nonzeros < 10 {
		t.Fatalf("coverage too thin: %d zeros, %d nonzeros", zeros, nonzeros)
	}
}

// TestQuickHomogeneityEntropyMatchesExactness: H(C_XY|C_XA) = 0 ⟺ XA→Y
// exact, the bridge §5 builds between the EB primary key and FD semantics.
func TestQuickHomogeneityEntropyMatchesExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for iter := 0; iter < 100; iter++ {
		r := randomRelation(rng, 2+rng.Intn(20), 3, 2+rng.Intn(3))
		x, y := bitset.New(0), bitset.New(1)
		cands := ExtendByOne(pli.NewPLICounter(r), x, y)
		for _, c := range cands {
			exact := r.SatisfiesFD(x.With(c.Attr), y)
			if c.Exact() != exact {
				t.Fatalf("iter %d attr %d: entropy exact=%v, FD exact=%v",
					iter, c.Attr, c.Exact(), exact)
			}
		}
	}
}

// TestQuickEBAndCBAgreeOnExactCandidates: on random instances, the set of
// candidates each method declares exact must coincide (they are different
// measures with the same null sets — the practical content of Theorem 1).
func TestQuickEBAndCBAgreeOnExactCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for iter := 0; iter < 60; iter++ {
		r := randomRelation(rng, 2+rng.Intn(25), 4, 2+rng.Intn(3))
		counter := pli.NewPLICounter(r)
		fd, err := core.NewFD("F", bitset.New(0), bitset.New(1))
		if err != nil {
			t.Fatal(err)
		}
		cb := core.ExtendByOne(counter, fd, core.CandidateOptions{})
		eb := ExtendByOne(counter, fd.X, fd.Y)
		cbExact := map[int]bool{}
		for _, c := range cb {
			cbExact[c.Attr] = c.Measures.Exact()
		}
		for _, c := range eb {
			if cbExact[c.Attr] != c.Exact() {
				t.Fatalf("iter %d: disagreement on attr %d", iter, c.Attr)
			}
		}
	}
}

func TestEpsilonVIZeroCases(t *testing.T) {
	// On Places, F1+Municipal is exact with goodness 0 → both epsilons 0.
	r := datasets.Places()
	x, _ := r.Schema().IndexSet("District", "Region", "Municipal")
	y, _ := r.Schema().IndexSet("AreaCode")
	counter := pli.NewPLICounter(r)
	if got := EpsilonVI(counter, x, y); got != 0 {
		t.Fatalf("ε_VI(F1+Municipal) = %v, want 0", got)
	}
	// F1+PhNo is exact but goodness 3 → ε_VI > 0.
	x2, _ := r.Schema().IndexSet("District", "Region", "PhNo")
	if got := EpsilonVI(counter, x2, y); got <= 0 {
		t.Fatalf("ε_VI(F1+PhNo) = %v, want > 0", got)
	}
	if math.IsNaN(EpsilonVI(counter, x2, y)) {
		t.Fatal("ε_VI must not be NaN")
	}
}
