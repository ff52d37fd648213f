package entropy

import (
	"math"
	"math/rand"
	"testing"

	"github.com/evolvefd/evolvefd/internal/bitset"
	"github.com/evolvefd/evolvefd/internal/pli"
	"github.com/evolvefd/evolvefd/internal/relation"
)

func buildRelation(t testing.TB, cols []string, rows [][]string) *relation.Relation {
	t.Helper()
	schema, err := relation.SchemaOf(cols...)
	if err != nil {
		t.Fatal(err)
	}
	r := relation.New("t", schema)
	for _, row := range rows {
		if err := r.AppendStrings(row...); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func randomRelation(rng *rand.Rand, rows, cols, domain int) *relation.Relation {
	names := make([]string, cols)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	schema, _ := relation.SchemaOf(names...)
	r := relation.New("rand", schema)
	row := make([]relation.Value, cols)
	for i := 0; i < rows; i++ {
		for c := range row {
			row[c] = relation.String(string(rune('A' + rng.Intn(domain))))
		}
		r.MustAppend(row...)
	}
	return r
}

func TestEntropyBasics(t *testing.T) {
	// Uniform 4-class clustering over 4 rows: H = log2(4) = 2 bits.
	r := buildRelation(t, []string{"a"}, [][]string{{"1"}, {"2"}, {"3"}, {"4"}})
	if got := entropyOf(pli.NewPLICounter(r).Partition(bitset.New(0))); math.Abs(got-2) > 1e-12 {
		t.Fatalf("H = %v, want 2", got)
	}
	// Single class: H = 0.
	r1 := buildRelation(t, []string{"a"}, [][]string{{"x"}, {"x"}, {"x"}})
	if got := entropyOf(pli.NewPLICounter(r1).Partition(bitset.New(0))); got != 0 {
		t.Fatalf("H single class = %v, want 0", got)
	}
	// Empty relation: H = 0.
	schema, _ := relation.SchemaOf("a")
	if got := entropyOf(pli.NewPLICounter(relation.New("e", schema)).Partition(bitset.New(0))); got != 0 {
		t.Fatalf("H empty = %v, want 0", got)
	}
}

func TestConditionalEntropyZeroOnRefinement(t *testing.T) {
	// b refines a (each b-value maps into one a-value): H(C_a | C_b) = 0,
	// but H(C_b | C_a) > 0.
	r := buildRelation(t, []string{"a", "b"}, [][]string{
		{"x", "1"}, {"x", "2"}, {"y", "3"}, {"y", "3"},
	})
	c := pli.NewPLICounter(r)
	a, b := bitset.New(0), bitset.New(1)
	if got := ConditionalEntropy(c, a, b); got != 0 {
		t.Fatalf("H(a|b) = %v, want 0", got)
	}
	if got := ConditionalEntropy(c, b, a); got <= 0 {
		t.Fatalf("H(b|a) = %v, want > 0", got)
	}
}

func TestConditionalEntropySelfIsZero(t *testing.T) {
	r := buildRelation(t, []string{"a"}, [][]string{{"1"}, {"2"}, {"1"}})
	c, a := pli.NewPLICounter(r), bitset.New(0)
	if got := ConditionalEntropy(c, a, a); got != 0 {
		t.Fatalf("H(C|C) = %v, want 0", got)
	}
	if got := VariationOfInformation(c, a, a); got != 0 {
		t.Fatalf("VI(C,C) = %v, want 0", got)
	}
}

// mutualInformation returns I(C_A; C_B) = H(C_A) − H(C_A|C_B).
func mutualInformation(c pli.SearchCounter, a, b bitset.Set) float64 {
	return entropyOf(c.Partition(a)) - ConditionalEntropy(c, a, b)
}

func TestConditionalEntropyKnownValue(t *testing.T) {
	// 4 rows; C_a = {{0,1},{2,3}}, C_b = {{0,2},{1,3}} (independent fair
	// coins): H(a|b) = 1 bit.
	r := buildRelation(t, []string{"a", "b"}, [][]string{
		{"x", "p"}, {"x", "q"}, {"y", "p"}, {"y", "q"},
	})
	c := pli.NewPLICounter(r)
	a, b := bitset.New(0), bitset.New(1)
	if got := ConditionalEntropy(c, a, b); math.Abs(got-1) > 1e-12 {
		t.Fatalf("H(a|b) = %v, want 1", got)
	}
	if got := VariationOfInformation(c, a, b); math.Abs(got-2) > 1e-12 {
		t.Fatalf("VI = %v, want 2", got)
	}
	if got := mutualInformation(c, a, b); got != 0 {
		t.Fatalf("I = %v, want 0 for independent clusterings", got)
	}
}

// TestQuickVIIsAMetric checks symmetry, non-negativity, identity and the
// triangle inequality of VI on random clusterings ([19] proves VI is a true
// metric on partitions).
func TestQuickVIIsAMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 80; iter++ {
		r := randomRelation(rng, 2+rng.Intn(30), 3, 2+rng.Intn(4))
		c := pli.NewPLICounter(r)
		a, b, cc := bitset.New(0), bitset.New(1), bitset.New(2)

		dab := VariationOfInformation(c, a, b)
		dba := VariationOfInformation(c, b, a)
		if math.Abs(dab-dba) > 1e-9 {
			t.Fatalf("iter %d: VI not symmetric: %v vs %v", iter, dab, dba)
		}
		if dab < 0 {
			t.Fatalf("iter %d: VI negative: %v", iter, dab)
		}
		// C_a = C_b exactly when each attribute determines the other.
		equal := r.SatisfiesFD(a, b) && r.SatisfiesFD(b, a)
		if equal != (dab < 1e-9) {
			t.Fatalf("iter %d: VI zero ⟺ equal violated (VI=%v, equal=%v)", iter, dab, equal)
		}
		dac := VariationOfInformation(c, a, cc)
		dcb := VariationOfInformation(c, cc, b)
		if dab > dac+dcb+1e-9 {
			t.Fatalf("iter %d: triangle inequality violated: %v > %v + %v", iter, dab, dac, dcb)
		}
	}
}

// TestQuickConditionalEntropyBounds: 0 ≤ H(C|C′) ≤ H(C).
func TestQuickConditionalEntropyBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for iter := 0; iter < 80; iter++ {
		r := randomRelation(rng, 2+rng.Intn(40), 2, 2+rng.Intn(5))
		c := pli.NewPLICounter(r)
		a, b := bitset.New(0), bitset.New(1)
		h := ConditionalEntropy(c, a, b)
		if h < 0 {
			t.Fatalf("iter %d: H(C|C') negative: %v", iter, h)
		}
		if h > entropyOf(c.Partition(a))+1e-9 {
			t.Fatalf("iter %d: H(C|C')=%v exceeds H(C)=%v", iter, h, entropyOf(c.Partition(a)))
		}
	}
}

// TestQuickMutualInformationSymmetric: I(C;C') = I(C';C).
func TestQuickMutualInformationSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for iter := 0; iter < 60; iter++ {
		r := randomRelation(rng, 2+rng.Intn(30), 2, 2+rng.Intn(4))
		c := pli.NewPLICounter(r)
		a, b := bitset.New(0), bitset.New(1)
		if math.Abs(mutualInformation(c, a, b)-mutualInformation(c, b, a)) > 1e-9 {
			t.Fatalf("iter %d: MI not symmetric", iter)
		}
	}
}

// TestQuickConditionalEntropyZeroMatchesFD: H(C_Y|C_X) = 0 ⟺ r ⊨ X→Y,
// i.e. C_X is homogeneous w.r.t. C_Y exactly when the FD holds.
func TestQuickConditionalEntropyZeroMatchesFD(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 100; iter++ {
		r := randomRelation(rng, 1+rng.Intn(30), 2, 3)
		x, y := bitset.New(0), bitset.New(1)
		hom := ConditionalEntropy(pli.NewPLICounter(r), y, x) == 0
		if sat := r.SatisfiesFD(x, y); hom != sat {
			t.Fatalf("iter %d: homogeneous=%v but satisfies=%v", iter, hom, sat)
		}
	}
}
