// Package discovery implements levelwise discovery of minimal exact
// functional dependencies (TANE-style, over the PLI substrate), one-shot
// (MinimalFDs) and maintained across DML (IncrementalDiscoverer). Both seed
// through one lattice walk, and every validity test is one witness scan of
// π_X (pli's Partition.Witness, shared with the repair search): X → A holds
// iff each class of π_X is constant on A's codes, and the first class that
// is not yields a violating row pair.
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
	"github.com/evolvefd/evolvefd/internal/relation"
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
func MinimalFDs(counter pli.SearchCounter, opts Options) ([]core.FD, Stats) {
	var stats Stats
	var out []core.FD
	maxLHS := maxLHSOf(opts)
	for _, st := range lattice(counter.Relation(), opts.Consequents) {
		more := walk(counter, st, maxLHS, &stats, func(x bitset.Set) bool {
			out = append(out, core.MustFD("", x, st.ySet))
			return opts.MaxResults == 0 || len(out) < opts.MaxResults
		}, func(bitset.Set, int, int) {})
		if !more {
			break
		}
	}
	sortFDs(out)
	return out, stats
}

// maxLHSOf normalises the antecedent bound: 0 (or less) means 2.
func maxLHSOf(opts Options) int {
	if opts.MaxLHS <= 0 {
		return 2
	}
	return opts.MaxLHS
}

// lattice is the one definition of the searched lattice: a state per
// requested consequent (every NULL-free column when consequents is nil;
// out-of-range and NULL-bearing ones are skipped), each with its antecedent
// pool — the NULL-free columns other than the consequent.
func lattice(r *relation.Relation, consequents []int) []*consequentState {
	pool := r.NullFreeColumns().Members()
	if consequents == nil {
		consequents = pool
	}
	var states []*consequentState
	for _, y := range consequents {
		if y < 0 || y >= r.NumCols() || r.HasNulls(y) {
			continue
		}
		st := &consequentState{y: y, ySet: bitset.New(y)}
		for _, c := range pool {
			if c != y {
				st.pool = append(st.pool, c)
			}
		}
		states = append(states, st)
	}
	return states
}

// walk is the levelwise search for one consequent: it enumerates the
// antecedents in st.pool by size up to maxLHS, skips every superset of a
// minimal antecedent already found (counted in stats.Pruned), and tests the
// rest with one witness scan each (counted in stats.Checked). valid receives
// each minimal valid antecedent and returns false to stop the walk; invalid
// receives each invalid one with its violating pair. walk reports whether it
// ran to completion.
func walk(counter pli.SearchCounter, st *consequentState, maxLHS int, stats *Stats,
	valid func(x bitset.Set) bool, invalid func(x bitset.Set, w1, w2 int)) bool {
	r := counter.Relation()
	codes := r.ColumnCodes(st.y)
	var minimal []bitset.Set
	more := true
	for size := 1; size <= maxLHS && more; size++ {
		forEachSubset(st.pool, size, func(attrs []int) bool {
			x := bitset.New(attrs...)
			for _, m := range minimal {
				if m.SubsetOf(x) {
					stats.Pruned++
					return true
				}
			}
			stats.Checked++
			if w1, w2, _ := counter.Partition(x).Witness(r, -1, codes); w1 >= 0 {
				invalid(x, w1, w2)
				return true
			}
			minimal = append(minimal, x)
			more = valid(x)
			return more
		})
	}
	return more
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
