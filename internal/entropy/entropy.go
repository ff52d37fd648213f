package entropy

import (
	"math"

	"github.com/evolvefd/evolvefd/internal/cluster"
)

// Entropy returns H(C) = −Σ_k P(k)·log₂ P(k), the Shannon entropy of the
// clustering's class-size distribution in bits.
func Entropy(c *cluster.Clustering) float64 {
	n := float64(c.NumRows())
	if n == 0 {
		return 0
	}
	h := 0.0
	for _, class := range c.Classes() {
		p := float64(class.Size()) / n
		h -= p * math.Log2(p)
	}
	return h
}

// ConditionalEntropy returns H(C|C′) = −Σ_{k,k′} P(k,k′)·log₂ P(k|k′):
// the remaining uncertainty about C's class once C′'s class is known. It is
// zero exactly when C′ refines C (every class of C′ inside one class of C).
func ConditionalEntropy(c, given *cluster.Clustering) float64 {
	n := float64(c.NumRows())
	if n == 0 {
		return 0
	}
	joint := c.JointCounts(given)
	marginal := make(map[int]float64, given.NumClasses())
	for key, cnt := range joint {
		marginal[key[1]] += float64(cnt)
	}
	h := 0.0
	for key, cnt := range joint {
		pJoint := float64(cnt) / n
		pCond := float64(cnt) / marginal[key[1]]
		h -= pJoint * math.Log2(pCond)
	}
	// Clamp the tiny negative residue floating-point summation can leave.
	if h < 0 && h > -1e-12 {
		h = 0
	}
	return h
}

// VariationOfInformation returns VI(C, C′) = H(C|C′) + H(C′|C), the
// clustering metric of [19]. It is symmetric, non-negative, satisfies the
// triangle inequality, and is zero exactly when the clusterings are equal.
func VariationOfInformation(a, b *cluster.Clustering) float64 {
	return ConditionalEntropy(a, b) + ConditionalEntropy(b, a)
}

// MutualInformation returns I(C; C′) = H(C) − H(C|C′) ≥ 0.
func MutualInformation(a, b *cluster.Clustering) float64 {
	mi := Entropy(a) - ConditionalEntropy(a, b)
	if mi < 0 && mi > -1e-12 {
		mi = 0
	}
	return mi
}
