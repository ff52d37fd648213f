package entropy

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/evolvefd/evolvefd/internal/bitset"
	"github.com/evolvefd/evolvefd/internal/pli"
	"github.com/evolvefd/evolvefd/internal/relation"
)

// naiveConditionalEntropy is the textbook H(C_A | C_G) =
// −Σ P(k,k′)·log₂ P(k|k′) over the joint contingency table of the two
// clusterings, built row by row from the live rows' codes. A term is exactly
// 0 when its cell holds the whole of its G-class, so the result is exactly
// 0 when G → A holds.
func naiveConditionalEntropy(r *relation.Relation, a, given bitset.Set) float64 {
	key := func(row int, s bitset.Set) string {
		var b strings.Builder
		for _, col := range s.Members() {
			fmt.Fprintf(&b, "%d,", r.ColumnCodes(col)[row])
		}
		return b.String()
	}
	joint := map[[2]string]int{}
	marginal := map[string]int{}
	n := 0
	for row := 0; row < r.NumRows(); row++ {
		if r.IsDeleted(row) {
			continue
		}
		kg := key(row, given)
		joint[[2]string{key(row, a), kg}]++
		marginal[kg]++
		n++
	}
	h := 0.0
	for k, cnt := range joint {
		h -= float64(cnt) / float64(n) * math.Log2(float64(cnt)/float64(marginal[k[1]]))
	}
	return h
}

func naiveVI(r *relation.Relation, a, b bitset.Set) float64 {
	return naiveConditionalEntropy(r, a, b) + naiveConditionalEntropy(r, b, a)
}

// TestQuickEBMatchesNaiveReference checks every EB quantity computed from
// partition entropies against the joint-count reference on random relations
// with deleted rows: within 1e-9 bits, and zero exactly when the reference
// is zero.
func TestQuickEBMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	zeros, nonzeros := 0, 0
	check := func(iter int, what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 || (got == 0) != (want == 0) {
			t.Fatalf("iter %d: %s = %v, reference %v", iter, what, got, want)
		}
		if want == 0 {
			zeros++
		} else {
			nonzeros++
		}
	}
	for iter := 0; iter < 300; iter++ {
		r := randomRelation(rng, 1+rng.Intn(30), 5, 2+rng.Intn(3))
		var dead []int
		for row := 0; row < r.NumRows(); row++ {
			if rng.Intn(4) == 0 {
				dead = append(dead, row)
			}
		}
		if err := r.Delete(dead...); err != nil {
			t.Fatal(err)
		}
		c := pli.NewPLICounter(r)
		x, y, z := bitset.New(0), bitset.New(1), bitset.New(2+rng.Intn(3))
		if rng.Intn(2) == 0 {
			x.Add(2 + rng.Intn(3))
		}
		if x.Contains(z.Min()) {
			z = bitset.Set{}
		}
		xy, xz := x.Union(y), x.Union(z)

		check(iter, "H(X)", entropyOf(c.Partition(x)), naiveConditionalEntropy(r, x, bitset.Set{}))
		for _, cand := range ExtendByOne(c, x, y) {
			xa := x.With(cand.Attr)
			check(iter, "homogeneity", cand.Homogeneity, naiveConditionalEntropy(r, xy, xa))
			check(iter, "completeness", cand.Completeness, naiveConditionalEntropy(r, bitset.New(cand.Attr), xy))
			check(iter, "VI", cand.VI, naiveVI(r, xy, xa))
		}
		check(iter, "ε_VI", EpsilonVI(c, x, y), naiveVI(r, xy, y))
		check(iter, "ε_VI extension", EpsilonVIExtension(c, x, y, z), naiveVI(r, xy, xz))
		check(iter, "ε_VI equivalent", EpsilonVIEquivalent(c, x, y, z), naiveVI(r, xz, y))
	}
	if zeros < 100 || nonzeros < 100 {
		t.Fatalf("coverage too thin: %d zeros, %d nonzeros", zeros, nonzeros)
	}
}

// TestEBRankingDeterministic: repeated ExtendByOne calls give one candidate
// order, and keys within 1e-9 bits of each other are ties — mathematically
// tied homogeneity keys fall through to completeness and then to schema
// position, whatever their last bits.
func TestEBRankingDeterministic(t *testing.T) {
	order := func(cs []Candidate) []int {
		out := make([]int, len(cs))
		for i, cand := range cs {
			out[i] = cand.Attr
		}
		return out
	}
	rng := rand.New(rand.NewSource(79))
	tiedHom, tiedBoth := 0, 0
	for iter := 0; iter < 400; iter++ {
		r := randomRelation(rng, 2+rng.Intn(25), 5, 2+rng.Intn(3))
		c := pli.NewPLICounter(r)
		x, y := bitset.New(0), bitset.New(1)
		cands := ExtendByOne(c, x, y)
		for i := 1; i < len(cands); i++ {
			a, b := cands[i-1], cands[i]
			switch {
			case math.Abs(a.Homogeneity-b.Homogeneity) > 1e-9:
				if a.Homogeneity > b.Homogeneity {
					t.Fatalf("iter %d: homogeneity out of order: %+v before %+v", iter, a, b)
				}
			case math.Abs(a.Completeness-b.Completeness) > 1e-9:
				if a.Completeness > b.Completeness {
					t.Fatalf("iter %d: tied homogeneity must fall to completeness: %+v before %+v", iter, a, b)
				}
				if a.Homogeneity > 0 {
					tiedHom++
				}
			default:
				if a.Attr > b.Attr {
					t.Fatalf("iter %d: tied keys must fall to schema position: %+v before %+v", iter, a, b)
				}
				if a.Homogeneity > 0 {
					tiedBoth++
				}
			}
		}
		want := order(cands)
		for call := 0; call < 20; call++ {
			if got := order(ExtendByOne(c, x, y)); !slices.Equal(got, want) {
				t.Fatalf("iter %d call %d: order %v, first call gave %v", iter, call, got, want)
			}
		}
	}
	if tiedHom < 10 || tiedBoth < 10 {
		t.Fatalf("too few non-zero ties exercised: %d on homogeneity, %d on both keys", tiedHom, tiedBoth)
	}
}
