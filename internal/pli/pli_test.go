package pli

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/evolvefd/evolvefd/internal/bitset"
	"github.com/evolvefd/evolvefd/internal/relation"
)

// buildRelation makes a relation with the given string columns.
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

func TestFromColumn(t *testing.T) {
	r := buildRelation(t, []string{"a"}, [][]string{{"x"}, {"y"}, {"x"}, {"z"}, {"x"}})
	p := FromColumn(r, 0)
	if p.NumRows() != 5 {
		t.Fatalf("NumRows = %d", p.NumRows())
	}
	if p.NumClasses() != 3 { // x, y, z
		t.Fatalf("NumClasses = %d, want 3", p.NumClasses())
	}
	if p.NumStrippedClasses() != 1 { // only {0,2,4}
		t.Fatalf("stripped = %d, want 1", p.NumStrippedClasses())
	}
	if got := p.Classes()[0]; len(got) != 3 {
		t.Fatalf("class = %v", got)
	}
}

func TestFromColumnWithNulls(t *testing.T) {
	r := buildRelation(t, []string{"a"}, [][]string{{"x"}, {""}, {""}, {"x"}})
	p := FromColumn(r, 0)
	// Classes: {x rows}, {null rows} → 2 classes.
	if p.NumClasses() != 2 {
		t.Fatalf("NumClasses = %d, want 2 (NULLs group together)", p.NumClasses())
	}
}

func TestUniversalPartition(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5} {
		p := universal(n)
		want := 1
		if n == 0 {
			want = 0
		}
		if p.NumClasses() != want {
			t.Errorf("universal(%d).NumClasses = %d, want %d", n, p.NumClasses(), want)
		}
	}
}

func TestProductMatchesFromSet(t *testing.T) {
	r := buildRelation(t, []string{"a", "b", "c"}, [][]string{
		{"1", "x", "p"}, {"1", "y", "p"}, {"2", "x", "q"},
		{"1", "x", "q"}, {"2", "x", "p"}, {"1", "y", "q"},
	})
	pa, pb := FromColumn(r, 0), FromColumn(r, 1)
	prod := pa.Product(pb, nil)
	direct := FromSet(r, bitset.New(0, 1))
	if !prod.EqualPartition(direct) {
		t.Fatal("product ≠ direct partition for {a,b}")
	}
	if prod.NumClasses() != r.DistinctCount([]int{0, 1}) {
		t.Fatalf("product classes %d ≠ distinct %d", prod.NumClasses(), r.DistinctCount([]int{0, 1}))
	}
}

func TestProductWithScratchReuse(t *testing.T) {
	r := buildRelation(t, []string{"a", "b"}, [][]string{
		{"1", "x"}, {"1", "y"}, {"2", "x"}, {"1", "x"}, {"2", "x"},
	})
	pa, pb := FromColumn(r, 0), FromColumn(r, 1)
	scratch := NewScratch(r.NumRows())
	p1 := pa.Product(pb, scratch)
	p2 := pa.Product(pb, scratch) // reuse must give identical results
	if !p1.EqualPartition(p2) {
		t.Fatal("scratch reuse changed the product")
	}
	if p1.NumClasses() != r.DistinctCount([]int{0, 1}) {
		t.Fatal("scratch product wrong")
	}
}

func TestPartitionError(t *testing.T) {
	r := buildRelation(t, []string{"a"}, [][]string{{"x"}, {"x"}, {"y"}, {"z"}})
	p := FromColumn(r, 0)
	// 4 rows, 3 classes → error = (4-3)/4 = 0.25
	if got := p.Error(); got != 0.25 {
		t.Fatalf("Error = %v, want 0.25", got)
	}
	if universal(0).Error() != 0 {
		t.Fatal("empty partition error must be 0")
	}
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

// TestQuickAllStrategiesAgree cross-checks pli, hash, and sort counters
// against the relation.DistinctCount oracle over random relations and
// attribute sets.
func TestQuickAllStrategiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 120; iter++ {
		r := randomRelation(rng, 1+rng.Intn(60), 2+rng.Intn(5), 2+rng.Intn(5))
		counters := []Counter{NewPLICounter(r), NewHashCounter(r), NewSortCounter(r)}
		for trial := 0; trial < 8; trial++ {
			var x bitset.Set
			for c := 0; c < r.NumCols(); c++ {
				if rng.Intn(2) == 0 {
					x.Add(c)
				}
			}
			want := r.DistinctCountSet(x)
			for _, c := range counters {
				if got := c.Count(x); got != want {
					t.Fatalf("iter %d: %T.Count(%v) = %d, want %d", iter, c, x, got, want)
				}
			}
		}
	}
}

// strategies are the three in-memory counter constructions of the §4.4
// ablation.
var strategies = []struct {
	name string
	make func(r *relation.Relation) Counter
}{
	{"pli", func(r *relation.Relation) Counter { return NewPLICounter(r) }},
	{"hash", func(r *relation.Relation) Counter { return NewHashCounter(r) }},
	{"sort", func(r *relation.Relation) Counter { return NewSortCounter(r) }},
}

func TestCountEmptyRelationAndEmptySet(t *testing.T) {
	schema, _ := relation.SchemaOf("a", "b")
	empty := relation.New("e", schema)
	full := buildRelation(t, []string{"a", "b"}, [][]string{{"1", "2"}})
	for _, s := range strategies {
		if got := s.make(empty).Count(bitset.New(0)); got != 0 {
			t.Errorf("%s: count on empty relation = %d, want 0", s.name, got)
		}
		if got := s.make(empty).Count(bitset.Set{}); got != 0 {
			t.Errorf("%s: count(∅) on empty relation = %d, want 0", s.name, got)
		}
		if got := s.make(full).Count(bitset.Set{}); got != 1 {
			t.Errorf("%s: count(∅) on non-empty relation = %d, want 1", s.name, got)
		}
		if s.make(full).Relation() != full {
			t.Errorf("%s: Relation() must return the bound instance", s.name)
		}
	}
}

func TestPLICacheGrowsAndHits(t *testing.T) {
	r := buildRelation(t, []string{"a", "b", "c"}, [][]string{
		{"1", "x", "p"}, {"1", "y", "q"}, {"2", "x", "p"},
	})
	c := NewPLICounter(r)
	x := bitset.New(0, 1)
	first := c.Count(x)
	sizeAfterFirst := c.CacheSize()
	second := c.Count(x)
	if first != second {
		t.Fatal("memoised count differs")
	}
	if c.CacheSize() != sizeAfterFirst {
		t.Fatal("second Count should hit the cache, not grow it")
	}
	// Superset reuses the cached subset partition.
	c.Count(x.With(2))
	if c.CacheSize() <= sizeAfterFirst {
		t.Fatal("superset count should add cache entries")
	}
}

// TestQuickProductCommutes: partition product must be commutative in class
// structure.
func TestQuickProductCommutes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 80; iter++ {
		r := randomRelation(rng, 2+rng.Intn(40), 2, 2+rng.Intn(4))
		pa, pb := FromColumn(r, 0), FromColumn(r, 1)
		ab := pa.Product(pb, nil)
		ba := pb.Product(pa, nil)
		if !ab.EqualPartition(ba) {
			t.Fatalf("iter %d: product not commutative", iter)
		}
	}
}

// TestQuickProductRefines: |π_XA| ≥ max(|π_X|, |π_A|) — the refinement
// monotonicity the repair search relies on (§3: C_XY is finer than C_X).
func TestQuickProductRefines(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 80; iter++ {
		r := randomRelation(rng, 2+rng.Intn(50), 3, 2+rng.Intn(5))
		pa, pb := FromColumn(r, 0), FromColumn(r, 1)
		prod := pa.Product(pb, nil)
		if prod.NumClasses() < pa.NumClasses() || prod.NumClasses() < pb.NumClasses() {
			t.Fatalf("iter %d: refinement monotonicity violated", iter)
		}
	}
}

func BenchmarkProduct(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	r := randomRelation(rng, 10000, 2, 50)
	pa, pb := FromColumn(r, 0), FromColumn(r, 1)
	scratch := NewScratch(r.NumRows())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pa.Product(pb, scratch)
	}
}

func BenchmarkCountStrategies(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	r := randomRelation(rng, 20000, 4, 40)
	x := bitset.New(0, 1, 2)
	for _, s := range strategies {
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := s.make(r) // fresh counter: no cross-iteration memoisation
				_ = c.Count(x)
			}
		})
	}
}

func TestPLICacheEvictionBound(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	r := randomRelation(rng, 50, 8, 3)
	c := NewPLICounterSize(r, 16)
	// Touch many distinct multi-column sets; the cache must stay bounded.
	for a := 0; a < 8; a++ {
		for b := a + 1; b < 8; b++ {
			for d := b + 1; d < 8; d++ {
				c.Count(bitset.New(a, b, d))
			}
		}
	}
	// Pinned singletons (8) + empty + at most 16 multi-column entries.
	if got := c.CacheSize(); got > 16+9 {
		t.Fatalf("cache grew past bound: %d", got)
	}
	// Counts remain correct after eviction.
	x := bitset.New(0, 1, 2)
	if got, want := c.Count(x), r.DistinctCountSet(x); got != want {
		t.Fatalf("post-eviction count = %d, want %d", got, want)
	}
}

// TestPLICounterSeesMutations pins the partition cache's one validity rule
// and its lifetime.
func TestPLICounterSeesMutations(t *testing.T) {
	// A single long-lived PLICounter answers every query for the relation's
	// current state — after appends, deletes, updates and compactions applied
	// behind its back — exactly like a fresh HashCounter and the map oracle.
	t.Run("every state", func(t *testing.T) {
		rng := rand.New(rand.NewSource(14))
		const cols, domain = 4, 3
		r := randomRelation(rng, 40, cols, domain)
		c := NewPLICounter(r)
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		steps := []func(){
			func() {},
			func() { must(r.AppendStrings("fresh", "A", "B", "C")) },
			func() { must(r.Delete(0, 7)) },
			func() { must(r.UpdateStrings(3, "other", "A", "A", "A")) },
			func() {
				if r.Compact() == nil {
					t.Fatal("nothing to compact")
				}
			},
		}
		for i := 0; i < 40; i++ {
			steps = append(steps, func() { mutate(t, rng, r, domain) })
		}
		sets := randomSets(rng, cols, 10)
		for i, step := range steps {
			step()
			hash := NewHashCounter(r)
			// The first queries after a mutation arrive together: exactly one
			// resets the cache, none sees the state before it.
			var wg sync.WaitGroup
			for _, x := range sets {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if got, want := c.Count(x), hash.Count(x); got != want {
						t.Errorf("step %d: concurrent Count(%v) = %d, want %d", i, x, got, want)
					}
				}()
			}
			wg.Wait()
			for _, x := range sets {
				if got, want := c.Count(x), hash.Count(x); got != want {
					t.Fatalf("step %d: Count(%v) = %d, want %d", i, x, got, want)
				}
				p := c.Partition(x)
				if !matchesOracle(r, x, p) {
					t.Fatalf("step %d: Partition(%v) diverged from the oracle", i, x)
				}
				for attr := 0; attr < cols; attr++ {
					child := x.With(attr)
					if got, want := c.ChildCount(x, p, attr), hash.Count(child); got != want {
						t.Fatalf("step %d: ChildCount(%v+%d) = %d, want %d", i, x, attr, got, want)
					}
					if !matchesOracle(r, child, c.ChildPartition(x, p, attr)) {
						t.Fatalf("step %d: ChildPartition(%v+%d) diverged from the oracle", i, x, attr)
					}
				}
			}
		}
	})
	// The incremental counter's partition cache is one object for the whole
	// session: its build counter accumulates across generations instead of
	// restarting with each.
	t.Run("one cache per session", func(t *testing.T) {
		rng := rand.New(rand.NewSource(15))
		r := randomRelation(rng, 50, 4, 3)
		c := NewIncrementalCounter(r)
		x := bitset.New(0, 1, 2)
		var last uint64
		for gen := 0; gen < 5; gen++ {
			appendRandomRows(t, rng, r, 3)
			if got, want := c.Count(x), r.DistinctCountSet(x); got != want {
				t.Fatalf("generation %d: Count = %d, want %d", gen, got, want)
			}
			builds := c.MultiColumnBuilds()
			if builds <= last {
				t.Fatalf("generation %d: MultiColumnBuilds went %d → %d", gen, last, builds)
			}
			last = builds
		}
	})
}
