package pli

import (
	"math/rand"
	"testing"

	"github.com/evolvefd/evolvefd/internal/bitset"
	"github.com/evolvefd/evolvefd/internal/relation"
)

// randomSet draws a non-deterministic attribute subset (possibly empty).
func randomSet(rng *rand.Rand, cols int) bitset.Set {
	var x bitset.Set
	for c := 0; c < cols; c++ {
		if rng.Intn(2) == 0 {
			x.Add(c)
		}
	}
	return x
}

// TestQuickFlatLegacyDMLDifferential drives random DML + Compact
// interleavings through an IncrementalCounter and checks, at every step
// boundary, that the flat arena+bitmap partitions (both the tracked-index
// path and the scratch FromColumn/FromSet builds) induce exactly the
// clusterings the map oracle (oracle_test.go) reads off the same relation
// state. This is the property pinning the columnar layout: no mutation
// sequence, tombstone pattern, or epoch boundary may change any clustering.
func TestQuickFlatLegacyDMLDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 40; iter++ {
		cols := 2 + rng.Intn(4)
		domain := 2 + rng.Intn(4)
		r := randomRelation(rng, 10+rng.Intn(50), cols, domain)
		counter := NewIncrementalCounter(r)
		tracked := make([]bitset.Set, 0, 3)
		for len(tracked) < 3 {
			x := randomSet(rng, cols)
			if !x.IsEmpty() {
				tracked = append(tracked, x)
				counter.Track(x)
			}
		}
		row := make([]relation.Value, cols)
		for step := 0; step < 12; step++ {
			var live []int
			for id := 0; id < r.NumRows(); id++ {
				if !r.IsDeleted(id) {
					live = append(live, id)
				}
			}
			switch op := rng.Intn(10); {
			case op < 4: // append a fresh tuple
				for c := range row {
					row[c] = relation.String(string(rune('A' + rng.Intn(domain))))
				}
				r.MustAppend(row...)
			case op < 6 && len(live) > 0: // delete a live row
				if err := counter.Delete(live[rng.Intn(len(live))]); err != nil {
					t.Fatalf("iter %d step %d: delete: %v", iter, step, err)
				}
			case op < 8 && len(live) > 0: // rewrite a live row in place
				for c := range row {
					row[c] = relation.String(string(rune('A' + rng.Intn(domain))))
				}
				if err := counter.Update(live[rng.Intn(len(live))], row...); err != nil {
					t.Fatalf("iter %d step %d: update: %v", iter, step, err)
				}
			default: // squeeze tombstones out across an epoch boundary
				counter.Compact()
			}
			for _, x := range tracked {
				if !matchesOracle(r, x, counter.Partition(x)) {
					t.Fatalf("iter %d step %d: tracked Partition(%v) diverged from the oracle", iter, step, x)
				}
				if !matchesOracle(r, x, FromSet(r, x)) {
					t.Fatalf("iter %d step %d: FromSet(%v) diverged from the oracle", iter, step, x)
				}
			}
			col := rng.Intn(cols)
			if !matchesOracle(r, bitset.New(col), FromColumn(r, col)) {
				t.Fatalf("iter %d step %d: FromColumn(%d) diverged from the oracle", iter, step, col)
			}
		}
	}
}

// TestProductPooledScratchAllocs pins the sync.Pool plumbing: a nil-scratch
// Product must borrow its probe and accumulator tables from the shared pool
// instead of allocating the O(rows) probe per call. The steady-state
// allocation count is the output partition's own storage (struct, arena,
// offsets) — a handful of allocations, not one per row.
func TestProductPooledScratchAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := randomRelation(rng, 20_000, 3, 4)
	p := FromColumn(r, 0)
	q := FromColumn(r, 1)
	p.Product(q, nil) // warm the pool
	allocs := testing.AllocsPerRun(50, func() {
		p.Product(q, nil)
	})
	// The probe table alone would be one allocation of 80KB per call; the
	// pooled path's footprint is the output partition (≈ a dozen appends).
	if allocs > 24 {
		t.Fatalf("nil-scratch Product allocates %.0f objects/run; pool regressed", allocs)
	}
}
