package entropy

import (
	"math"
	"sort"

	"github.com/evolvefd/evolvefd/internal/bitset"
	"github.com/evolvefd/evolvefd/internal/pli"
)

// Candidate is one attribute A evaluated by the EB method as an extension of
// a violated FD X → Y.
type Candidate struct {
	// Attr is the schema position of the candidate attribute A.
	Attr int
	// Homogeneity is H(C_XY | C_XA): zero when C_XA is homogeneous w.r.t.
	// C_XY, i.e. when XA → Y is exact. This is the EB primary sort key.
	Homogeneity float64
	// Completeness is H(C_A | C_XY): zero when every ground-truth class is
	// contained in one C_A class. This is the EB tie-break key.
	Completeness float64
	// VI is the symmetric variation of information VI(C_XY, C_XA), the
	// "slight variation … based on the original definition" used for the
	// ε_VI measure. It equals Homogeneity + Completeness.
	VI float64
}

// Exact reports whether adding the candidate attribute yields an exact FD
// (homogeneity entropy zero).
func (c Candidate) Exact() bool { return c.Homogeneity == 0 }

// ExtendByOne evaluates every attribute of the counter's relation outside XY
// (and NULL-free, matching the CB method's candidate pool) with the EB
// ranking of §5: the ground truth is the clustering C_XY; candidates are
// ordered by ascending H(C_XY|C_XA), ties by ascending H(C_A|C_XY), final
// deterministic tie-break on schema position. Keys within 1e-9 bits of each
// other are ties.
func ExtendByOne(c pli.SearchCounter, x, y bitset.Set) []Candidate {
	r := c.Relation()
	xy := x.Union(y)
	var out []Candidate
	for col := 0; col < r.NumCols(); col++ {
		if xy.Contains(col) || r.HasNulls(col) {
			continue
		}
		hom := ConditionalEntropy(c, xy, x.With(col))
		comp := ConditionalEntropy(c, bitset.New(col), xy)
		out = append(out, Candidate{Attr: col, Homogeneity: hom, Completeness: comp, VI: hom + comp})
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if math.Abs(a.Homogeneity-b.Homogeneity) > tie {
			return a.Homogeneity < b.Homogeneity
		}
		if math.Abs(a.Completeness-b.Completeness) > tie {
			return a.Completeness < b.Completeness
		}
		return a.Attr < b.Attr
	})
	return out
}

// EpsilonVI returns ε_VI for a dependency X → Y in its general form as
// printed in §5: VI(C_XY, C_Y) = H(π_XY) − H(π_Y).
//
// Reproduction finding (see EXPERIMENTS.md): Theorem 1 claims ε_VI and ε_CB
// are equivalent (same null sets). Only one direction holds: ε_CB = 0
// implies ε_VI = 0, but the converse fails whenever C_XY = C_Y while
// C_X ≠ C_XY — i.e. when Y → X is exact but X → Y is not. Concretely, rows
// {(a,y1), (a,y2), (b,y3)} give ε_VI = 0 (every y value determines its
// tuple group) yet confidence 2/3 < 1, so ε_CB > 0. The proof's step
// "∀y ∃!(x,z)" silently assumes the functional direction it is trying to
// establish. EpsilonVIEquivalent is the corrected form for which the
// theorem's statement does hold.
func EpsilonVI(c pli.SearchCounter, x, y bitset.Set) float64 {
	return VariationOfInformation(c, x.Union(y), y)
}

// EpsilonVIExtension returns ε_VI for an extension FZ : XZ → Y of F : X → Y
// as printed in Theorem 1: VI(C_XY, C_XZ) = 2H(π_XYZ) − H(π_XY) − H(π_XZ).
// The same one-directional caveat as EpsilonVI applies: ε_CB(FZ) = 0 forces
// this to zero, but VI(C_XY, C_XZ) = 0 only forces exactness, not goodness 0
// (the gap is g = |C_XY| − |C_Y|, which vanishes only when Y determines X).
func EpsilonVIExtension(c pli.SearchCounter, x, y, z bitset.Set) float64 {
	return VariationOfInformation(c, x.Union(y), x.Union(z))
}

// EpsilonVIEquivalent returns VI(C_XZ, C_Y) = 2H(π_XYZ) − H(π_XZ) − H(π_Y),
// the corrected entropy measure that is genuinely equivalent to ε_CB(FZ)
// for FZ : XZ → Y (pass an empty z for F itself):
//
//	VI(C_XZ, C_Y) = 0 ⟺ C_XZ = C_Y ⟺ exact ∧ goodness = 0 ⟺ ε_CB = 0.
//
// Both directions are machine-checked in the property tests.
func EpsilonVIEquivalent(c pli.SearchCounter, x, y, z bitset.Set) float64 {
	return VariationOfInformation(c, x.Union(z), y)
}
