package entropy

import (
	"math"
	"slices"

	"github.com/evolvefd/evolvefd/internal/bitset"
	"github.com/evolvefd/evolvefd/internal/pli"
)

// tie is the distance in bits below which two EB sort keys count as equal:
// keys that are mathematically equal but summed over different partitions
// may differ in their last bits.
const tie = 1e-9

// entropyOf returns H(π) = −Σ_k P(k)·log₂ P(k) in bits, computed as
// log₂ n − Σ|c|·log₂|c| / n over the stored classes (singletons add
// nothing). Class sizes are summed in ascending order, so the result does
// not depend on the order the partition stores its classes in.
func entropyOf(p *pli.Partition) float64 {
	n := p.NumRows()
	if n == 0 {
		return 0
	}
	var sizes []int
	p.ForEachClass(func(members []int32) bool {
		sizes = append(sizes, len(members))
		return true
	})
	slices.Sort(sizes)
	sum := 0.0
	for _, s := range sizes {
		sum += float64(s) * math.Log2(float64(s))
	}
	return math.Log2(float64(n)) - sum/float64(n)
}

// ConditionalEntropy returns H(C_X | C_G) = H(π_XG) − H(π_G): the remaining
// uncertainty about a tuple's X-class once its G-class is known. π_XG
// refines π_G, so the two are equal exactly when they have as many classes;
// the result is then exactly 0, decided by the counts rather than by float
// rounding. It is zero exactly when G → X holds.
func ConditionalEntropy(c pli.SearchCounter, x, given bitset.Set) float64 {
	joint, cond := c.Partition(x.Union(given)), c.Partition(given)
	if joint.NumClasses() == cond.NumClasses() {
		return 0
	}
	return entropyOf(joint) - entropyOf(cond)
}

// VariationOfInformation returns VI(C_A, C_B) = H(C_A|C_B) + H(C_B|C_A), the
// clustering metric of [19]. It is symmetric, non-negative, satisfies the
// triangle inequality, and is zero exactly when the clusterings are equal.
func VariationOfInformation(c pli.SearchCounter, a, b bitset.Set) float64 {
	return ConditionalEntropy(c, a, b) + ConditionalEntropy(c, b, a)
}
