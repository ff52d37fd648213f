// Package discovery implements levelwise discovery of minimal exact
// functional dependencies (TANE-style, over the PLI substrate).
//
// It exists as the baseline the paper's §2 argues against: to update stale
// constraints one could "first discover all the possible constraints from
// data, then relax the constraints … that do not hold on the current
// instance" (the approach of Chu, Ilyas & Papotti's denial-constraint
// discovery [16]). The paper deems this "rather impractical when the FDs,
// though obsolete, have been originally defined by a designer" — for
// efficiency, and because "the inferred constraints not always include
// extensions of the ones specified by the designer". With this package and
// internal/core in one repository, both claims become measurable (see the
// discover-vs-repair experiment in internal/bench).
package discovery

import (
	"sort"

	"github.com/evolvefd/evolvefd/internal/bitset"
	"github.com/evolvefd/evolvefd/internal/core"
	"github.com/evolvefd/evolvefd/internal/pli"
)

// Options bounds the discovery search.
type Options struct {
	// MaxLHS bounds antecedent size; 0 means 2. Discovery is exponential in
	// this bound (the levelwise lattice has C(|R|, k) nodes per level).
	MaxLHS int
	// MaxResults stops discovery after this many minimal FDs; 0 = no bound.
	MaxResults int
	// Consequents restricts the searched consequent attributes; nil means
	// every NULL-free attribute.
	Consequents []int
}

// Stats reports discovery effort.
type Stats struct {
	// Checked counts exactness tests performed.
	Checked int
	// Pruned counts lattice nodes skipped because a subset already
	// determined the consequent.
	Pruned int
}

// MinimalFDs finds every minimal exact FD X → A with |X| ≤ MaxLHS over the
// NULL-free attributes of the instance: X → A holds and no proper subset of
// X determines A. Results are sorted by consequent, then antecedent size,
// then attribute order, so output is deterministic.
func MinimalFDs(counter pli.Counter, opts Options) ([]core.FD, Stats) {
	r := counter.Relation()
	maxLHS := opts.MaxLHS
	if maxLHS <= 0 {
		maxLHS = 2
	}
	var stats Stats

	var pool []int
	for c := 0; c < r.NumCols(); c++ {
		if !r.HasNulls(c) {
			pool = append(pool, c)
		}
	}
	consequents := opts.Consequents
	if consequents == nil {
		consequents = pool
	}

	// A counter that hands out partitions answers validity by the refinement
	// probe — X → A holds iff π_X refines π_A — which exits at the first
	// split instead of building and counting the full X∪A product. When both
	// partitions are all-dense (bitmap-backed classes only) the word-parallel
	// count-only product answers the same question by pure AND/popcount with
	// zero allocation, which beats the per-row probe walk. Counters without
	// partition handles (hash, sort, SQL) keep the count equality.
	partitions, _ := counter.(pli.SearchCounter)
	valid := func(x, ySet bitset.Set) bool {
		if partitions != nil {
			px, py := partitions.Partition(x), partitions.Partition(ySet)
			if px.AllDense() && py.AllDense() && px.NumStrippedClasses() > 0 {
				// X → A iff π_{XA} does not split π_X, i.e. the product count
				// equals |π_X|.
				return px.ProductCount(py, nil) == px.NumClasses()
			}
			return px.RefinesOrEquals(py)
		}
		return counter.Count(x) == counter.Count(x.Union(ySet))
	}

	var out []core.FD
	for _, y := range consequents {
		if y < 0 || y >= r.NumCols() || r.HasNulls(y) {
			continue
		}
		lhsPool := make([]int, 0, len(pool))
		for _, c := range pool {
			if c != y {
				lhsPool = append(lhsPool, c)
			}
		}
		// minimal holds the found minimal antecedents for y; any superset
		// of one is pruned.
		var minimal []bitset.Set
		ySet := bitset.New(y)
		for size := 1; size <= maxLHS; size++ {
			forEachSubset(lhsPool, size, func(attrs []int) bool {
				x := bitset.New(attrs...)
				for _, m := range minimal {
					if m.SubsetOf(x) {
						stats.Pruned++
						return true
					}
				}
				stats.Checked++
				if valid(x, ySet) {
					minimal = append(minimal, x)
					out = append(out, core.MustFD("", x, ySet))
				}
				return opts.MaxResults == 0 || len(out) < opts.MaxResults
			})
			if opts.MaxResults > 0 && len(out) >= opts.MaxResults {
				break
			}
		}
		if opts.MaxResults > 0 && len(out) >= opts.MaxResults {
			break
		}
	}
	sortFDs(out)
	return out, stats
}

// forEachSubset enumerates size-k subsets of pool in lexicographic order,
// calling fn with a reused slice; fn returning false stops the enumeration.
func forEachSubset(pool []int, k int, fn func(attrs []int) bool) {
	if k > len(pool) || k <= 0 {
		return
	}
	idx := make([]int, k)
	attrs := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		for i, p := range idx {
			attrs[i] = pool[p]
		}
		if !fn(attrs) {
			return
		}
		// Advance the combination.
		i := k - 1
		for i >= 0 && idx[i] == len(pool)-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

func sortFDs(fds []core.FD) {
	sort.Slice(fds, func(i, j int) bool {
		yi, yj := fds[i].Y.Min(), fds[j].Y.Min()
		if yi != yj {
			return yi < yj
		}
		if fds[i].X.Len() != fds[j].X.Len() {
			return fds[i].X.Len() < fds[j].X.Len()
		}
		a, b := fds[i].X.Members(), fds[j].X.Members()
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// ExtensionsOf filters discovered FDs down to those that evolve a designer
// FD: same consequent, antecedent a proper superset of the designer's. This
// is the "relax the obsolete constraint" step of the §2 alternative — and
// on many instances it comes back empty, the paper's second criticism.
func ExtensionsOf(discovered []core.FD, designer core.FD) []core.FD {
	var out []core.FD
	for _, fd := range discovered {
		if fd.Y.Equal(designer.Y) && designer.X.ProperSubsetOf(fd.X) {
			out = append(out, fd)
		}
	}
	return out
}
