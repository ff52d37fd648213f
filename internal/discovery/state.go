package discovery

import (
	"fmt"
	"slices"

	"github.com/evolvefd/evolvefd/internal/bitset"
	"github.com/evolvefd/evolvefd/internal/pli"
)

// BorderSnapshot is the durable form of an IncrementalDiscoverer's maintained
// state: the positive border (minimal cover, attribute sets only — generation
// stamps are session-local and re-established on restore) and the negative
// border with its witness row pairs. It is plain data so the wal package can
// serialize it without importing discovery internals.
type BorderSnapshot struct {
	// MaxLHS is the normalized antecedent bound the borders were built under.
	MaxLHS int
	// Eligible lists the NULL-free columns at snapshot time, sorted; restore
	// fails if the relation disagrees, because the borders would then
	// describe a different lattice.
	Eligible []int
	// States holds one entry per maintained consequent, in state order.
	States []ConsequentSnapshot
}

// ConsequentSnapshot is the durable border state for one consequent.
type ConsequentSnapshot struct {
	// Y is the consequent column.
	Y int
	// Valid holds the antecedent sets of the minimal cover, each a sorted
	// column list.
	Valid [][]int
	// Invalid holds the witnessed negative border.
	Invalid []WitnessSnapshot
}

// WitnessSnapshot is one negative-border FD: an invalid antecedent set and
// the two live rows that prove the violation.
type WitnessSnapshot struct {
	// X is the antecedent set, a sorted column list.
	X []int
	// W1 and W2 are the witness rows: they agree on X and differ on Y.
	W1, W2 int
}

// ExportBorders captures the discoverer's maintained borders as plain data.
// The caller must have Sync()ed (evolvefd.Session snapshots right after a
// compaction, which syncs), so every witness refers to a live current-epoch
// row.
func (d *IncrementalDiscoverer) ExportBorders() *BorderSnapshot {
	snap := &BorderSnapshot{
		MaxLHS:   d.maxLHS,
		Eligible: append([]int(nil), d.eligible.Members()...),
	}
	for _, st := range d.states {
		cs := ConsequentSnapshot{Y: st.y}
		for _, f := range st.valid {
			cs.Valid = append(cs.Valid, f.x.Members())
		}
		for _, b := range st.invalid {
			cs.Invalid = append(cs.Invalid, WitnessSnapshot{X: b.x.Members(), W1: b.w1, W2: b.w2})
		}
		snap.States = append(snap.States, cs)
	}
	return snap
}

// RestoreDiscoverer rebuilds an IncrementalDiscoverer from a BorderSnapshot
// over a counter whose relation matches the instance the snapshot was taken
// against. The snapshot must describe the lattice opts does — the same
// bound, eligible columns and consequents — and every imported fact is
// re-validated against the live instance: cover FDs by re-counting (which
// also mints fresh generation stamps), border FDs by checking their witness
// pair. A snapshot that does not describe this instance is rejected with an
// error, never trusted. The cost is O(border size) count probes instead of
// the O(lattice) levelwise reseed NewIncrementalDiscoverer pays, which is
// the recovery speedup.
func RestoreDiscoverer(counter *pli.IncrementalCounter, opts Options, snap *BorderSnapshot) (*IncrementalDiscoverer, error) {
	d := &IncrementalDiscoverer{counter: counter, opts: opts, maxLHS: maxLHSOf(opts)}
	if snap.MaxLHS != d.maxLHS {
		return nil, fmt.Errorf("discovery: snapshot built with MaxLHS %d, session wants %d", snap.MaxLHS, d.maxLHS)
	}
	d.reset()
	if got := d.eligible.Members(); !slices.Equal(got, snap.Eligible) {
		return nil, fmt.Errorf("discovery: snapshot eligible columns %v, relation has %v", snap.Eligible, got)
	}
	var got, want []int
	for _, cs := range snap.States {
		got = append(got, cs.Y)
	}
	for _, st := range d.states {
		want = append(want, st.y)
	}
	if !slices.Equal(got, want) {
		return nil, fmt.Errorf("discovery: snapshot consequents %v, options describe %v", got, want)
	}

	r := counter.Relation()
	// antecedent parses one snapshot antecedent of st: non-empty, within the
	// size bound, strictly ascending and drawn from st's pool.
	antecedent := func(st *consequentState, attrs []int) (bitset.Set, error) {
		if len(attrs) == 0 || len(attrs) > d.maxLHS {
			return bitset.Set{}, fmt.Errorf("discovery: snapshot antecedent %v outside size bound %d", attrs, d.maxLHS)
		}
		pool := bitset.New(st.pool...)
		for i, a := range attrs {
			if i > 0 && attrs[i-1] >= a {
				return bitset.Set{}, fmt.Errorf("discovery: snapshot antecedent %v not strictly ascending", attrs)
			}
			if !pool.Contains(a) {
				return bitset.Set{}, fmt.Errorf("discovery: snapshot antecedent %v names column %d outside the lattice of consequent %d", attrs, a, st.y)
			}
		}
		return bitset.New(attrs...), nil
	}
	var coverSets []bitset.Set
	for i, cs := range snap.States {
		st := d.states[i]
		for _, attrs := range cs.Valid {
			x, err := antecedent(st, attrs)
			if err != nil {
				return nil, err
			}
			f := &coverFD{x: x, xa: x.Union(st.ySet)}
			st.valid = append(st.valid, f)
			coverSets = append(coverSets, f.x, f.xa)
		}
		for _, w := range cs.Invalid {
			x, err := antecedent(st, w.X)
			if err != nil {
				return nil, err
			}
			if w.W1 < 0 || w.W1 >= r.NumRows() || w.W2 < 0 || w.W2 >= r.NumRows() || w.W1 == w.W2 {
				return nil, fmt.Errorf("discovery: snapshot witness (%d,%d) of %v -> %d out of range", w.W1, w.W2, w.X, cs.Y)
			}
			b := &borderFD{x: x, cols: x.Members(), w1: w.W1, w2: w.W2}
			if !d.witnessIntact(st, b) {
				return nil, fmt.Errorf("discovery: snapshot witness (%d,%d) of %v -> %d does not violate on the instance", w.W1, w.W2, w.X, cs.Y)
			}
			st.invalid = append(st.invalid, b)
		}
	}
	// Re-register every cover antecedent (and its Y-extension) in one
	// parallel sweep: each is a full fold over the instance, and folding them
	// one CountWithGen at a time is what would dominate recovery time. The
	// stamps below then come from the already-built indexes in O(1) per FD.
	counter.TrackBatch(coverSets)
	for _, st := range d.states {
		for _, f := range st.valid {
			var cntX, cntXA int
			cntX, f.genX = counter.CountWithGen(f.x)
			cntXA, f.genXA = counter.CountWithGen(f.xa)
			if cntX != cntXA {
				return nil, fmt.Errorf("discovery: snapshot cover FD %v -> %d does not hold on the instance", f.x.Members(), st.y)
			}
		}
	}
	d.ensureCapacity()
	return d, nil
}
