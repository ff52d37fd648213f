package pli

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/evolvefd/evolvefd/internal/bitset"
	"github.com/evolvefd/evolvefd/internal/relation"
)

// appendRandomRows appends n random rows (cardinality ≤ 4 per column, some
// NULLs) to r — the low cardinality makes appended batches keep hitting
// existing clusters and keep creating new ones.
func appendRandomRows(t testing.TB, rng *rand.Rand, r *relation.Relation, n int) {
	t.Helper()
	cells := make([]string, r.NumCols())
	for i := 0; i < n; i++ {
		for c := range cells {
			if rng.Intn(10) == 0 {
				cells[c] = "" // NULL
			} else {
				cells[c] = fmt.Sprintf("v%d", rng.Intn(4))
			}
		}
		if err := r.AppendStrings(cells...); err != nil {
			t.Fatal(err)
		}
	}
}

// randomSets enumerates some attribute sets of every size up to 3.
func randomSets(rng *rand.Rand, ncols, count int) []bitset.Set {
	out := []bitset.Set{{}}
	for i := 0; i < ncols; i++ {
		out = append(out, bitset.New(i))
	}
	for len(out) < count {
		var s bitset.Set
		for s.Len() < 2+rng.Intn(2) {
			s.Add(rng.Intn(ncols))
		}
		out = append(out, s)
	}
	return out
}

// TestIncrementalDifferential is the core correctness proof of the
// incremental counter: after every randomized append batch, every tracked
// and untracked count — and every tracked partition — must equal what a
// from-scratch computation over the grown relation produces.
func TestIncrementalDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const ncols = 5
	r := randomRelation(rng, 30, ncols, 4)
	inc := NewIncrementalCounter(r)
	sets := randomSets(rng, ncols, 12)

	// Track roughly half the sets; the rest exercise the embedded partition cache.
	for i, s := range sets {
		if i%2 == 0 {
			inc.Track(s)
		}
	}
	for batch := 0; batch < 8; batch++ {
		appendRandomRows(t, rng, r, rng.Intn(25)) // occasionally empty batches
		fresh := NewPLICounter(r)
		for _, s := range sets {
			want := fresh.Count(s)
			if got := inc.Count(s); got != want {
				t.Fatalf("batch %d: Count(%v) = %d, want %d", batch, s, got, want)
			}
			got, _ := inc.CountWithGen(s)
			if got != want {
				t.Fatalf("batch %d: CountWithGen(%v) = %d, want %d", batch, s, got, want)
			}
			if s.IsEmpty() {
				continue
			}
			if p, q := inc.Partition(s), FromSet(r, s); !p.EqualPartition(q) {
				t.Fatalf("batch %d: Partition(%v) diverged from scratch", batch, s)
			}
		}
	}
}

func TestIncrementalGenerationStamps(t *testing.T) {
	r := buildRelation(t, []string{"a", "b"}, [][]string{
		{"x", "1"}, {"x", "2"}, {"y", "1"},
	})
	inc := NewIncrementalCounter(r)
	a := bitset.New(0)
	n0, g0 := inc.CountWithGen(a)
	if n0 != 2 {
		t.Fatalf("count(a) = %d, want 2", n0)
	}
	// Appending a duplicate 'a' value must not advance the count stamp.
	if err := r.AppendStrings("x", "3"); err != nil {
		t.Fatal(err)
	}
	n1, g1 := inc.CountWithGen(a)
	if n1 != 2 || g1 != g0 {
		t.Fatalf("after duplicate append: count %d gen %d, want count 2 gen %d", n1, g1, g0)
	}
	// A fresh 'a' value must advance it.
	if err := r.AppendStrings("z", "3"); err != nil {
		t.Fatal(err)
	}
	n2, g2 := inc.CountWithGen(a)
	if n2 != 3 || g2 <= g1 {
		t.Fatalf("after new value: count %d gen %d, want count 3 and gen > %d", n2, g2, g1)
	}
	if inc.Generation() < g2 {
		t.Fatal("counter generation must dominate index stamps")
	}
}

func TestIncrementalEmptyAndGrowingRelation(t *testing.T) {
	schema, err := relation.SchemaOf("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	r := relation.New("t", schema)
	inc := NewIncrementalCounter(r)
	ab := bitset.New(0, 1)
	if got := inc.Count(ab); got != 0 {
		t.Fatalf("empty-instance count = %d, want 0", got)
	}
	if got, _ := inc.CountWithGen(ab); got != 0 {
		t.Fatalf("empty-instance CountWithGen = %d, want 0", got)
	}
	if got, _ := inc.CountWithGen(bitset.Set{}); got != 0 {
		t.Fatalf("empty-set count on empty instance = %d, want 0", got)
	}
	if err := r.AppendStrings("x", "1"); err != nil {
		t.Fatal(err)
	}
	if got := inc.Count(ab); got != 1 {
		t.Fatalf("count after first row = %d, want 1", got)
	}
	if got := inc.Count(bitset.Set{}); got != 1 {
		t.Fatalf("empty-set count = %d, want 1", got)
	}
	if got, _ := inc.CountWithGen(bitset.Set{}); got != 1 {
		t.Fatalf("empty-set CountWithGen = %d, want 1", got)
	}
}

func TestIncrementalTrackedEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := randomRelation(rng, 40, 6, 4)
	inc := NewIncrementalCounterSize(r, 4)
	var sets []bitset.Set
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			sets = append(sets, bitset.New(i, j))
		}
	}
	for _, s := range sets {
		inc.Track(s)
	}
	if got := inc.TrackedSets(); got != 4 {
		t.Fatalf("tracked sets = %d, want eviction down to 4", got)
	}
	// Evicted sets must still answer correctly (via re-track or the embedded cache).
	fresh := NewPLICounter(r)
	for _, s := range sets {
		if got, want := inc.Count(s), fresh.Count(s); got != want {
			t.Fatalf("Count(%v) after eviction = %d, want %d", s, got, want)
		}
	}
}

func TestIncrementalDelegateInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	r := randomRelation(rng, 25, 4, 4)
	inc := NewIncrementalCounter(r)
	s := bitset.New(0, 1, 2) // never tracked: exercises the embedded PLICounter
	before := inc.Count(s)
	if want := NewPLICounter(r).Count(s); before != want {
		t.Fatalf("untracked count = %d, want %d", before, want)
	}
	appendRandomRows(t, rng, r, 30)
	after := inc.Count(s)
	if want := NewPLICounter(r).Count(s); after != want {
		t.Fatalf("untracked count after growth = %d, want %d (stale partition cache?)", after, want)
	}
}

func TestIncrementalPreexistingRows(t *testing.T) {
	// A counter built over a non-empty relation must fold the existing rows
	// exactly once.
	r := buildRelation(t, []string{"a"}, [][]string{{"x"}, {"y"}, {"x"}})
	inc := NewIncrementalCounter(r)
	if got, _ := inc.CountWithGen(bitset.New(0)); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
	if err := r.AppendStrings("z"); err != nil {
		t.Fatal(err)
	}
	if got := inc.Count(bitset.New(0)); got != 3 {
		t.Fatalf("count after append = %d, want 3", got)
	}
}
