package core

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/evolvefd/evolvefd/internal/bitset"
	"github.com/evolvefd/evolvefd/internal/pli"
	"github.com/evolvefd/evolvefd/internal/relation"
	"github.com/evolvefd/evolvefd/internal/tpch"
)

func mustIndexSet(t testing.TB, r *relation.Relation, names ...string) bitset.Set {
	t.Helper()
	s, err := r.Schema().IndexSet(names...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

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

func TestFindRepairsExactFDNoWork(t *testing.T) {
	r := buildRelation(t, []string{"a", "b"}, [][]string{{"1", "x"}, {"2", "y"}})
	counter := pli.NewPLICounter(r)
	fd := MustFD("F", bitset.New(0), bitset.New(1))
	res := FindRepairs(counter, fd, RepairOptions{})
	if len(res.Repairs) != 0 {
		t.Fatal("exact FD needs no repairs")
	}
	if !res.Initial.Exact() || !res.Stats.Exhausted {
		t.Fatal("exact FD result flags wrong")
	}
	if res.Stats.Evaluated != 0 {
		t.Fatal("exact FD should not evaluate candidates")
	}
}

func TestFindRepairsNoRepairPossible(t *testing.T) {
	// Two identical rows except for b: a→b cannot be repaired by any
	// extension because the rows agree on every other attribute.
	r := buildRelation(t, []string{"a", "b", "c"}, [][]string{
		{"1", "x", "p"}, {"1", "y", "p"},
	})
	counter := pli.NewPLICounter(r)
	fd := MustFD("F", bitset.New(0), bitset.New(1))
	res := FindRepairs(counter, fd, RepairOptions{})
	if len(res.Repairs) != 0 {
		t.Fatal("no repair should exist")
	}
	if !res.Stats.Exhausted {
		t.Fatal("search space should be exhausted")
	}
	if _, _, ok := FindFirstRepair(counter, fd, RepairOptions{}); ok {
		t.Fatal("FindFirstRepair must report no repair")
	}
}

func TestFindFirstRepairIsMinimal(t *testing.T) {
	counter := pli.NewPLICounter(buildRelation(t,
		[]string{"a", "b", "u", "c", "d"},
		[][]string{
			// a→b violated; u is a key (repairs alone); c,d repair together.
			{"1", "x", "k1", "p", "q"},
			{"1", "y", "k2", "p", "r"},
			{"2", "x", "k3", "s", "q"},
		}))
	fd := MustFD("F", bitset.New(0), bitset.New(1))
	rep, stats, ok := FindFirstRepair(counter, fd, RepairOptions{})
	if !ok {
		t.Fatal("repair must exist")
	}
	if rep.Added.Len() != 1 {
		t.Fatalf("first repair size = %d, want 1 (minimal)", rep.Added.Len())
	}
	if stats.Evaluated == 0 || stats.Elapsed < 0 {
		t.Fatal("stats not recorded")
	}
}

func TestGoodnessThresholdPrefersNonUniqueRepair(t *testing.T) {
	// §4.4's drawback scenario: a UNIQUE attribute u is the only
	// single-attribute repair, so minimality alone picks it; b and c repair
	// together with goodness 0. With a goodness threshold the designer gets
	// the two-attribute repair instead.
	rows := [][]string{
		// x | y | u    | b   | c
		{"1", "p", "k1", "b1", "c1"},
		{"1", "q", "k2", "b1", "c2"},
		{"1", "r", "k3", "b2", "c1"},
		{"1", "s", "k4", "b2", "c2"},
		{"1", "p", "k5", "b1", "c1"},
		{"1", "q", "k6", "b1", "c2"},
		{"1", "r", "k7", "b2", "c1"},
	}
	counter := pli.NewPLICounter(buildRelation(t, []string{"x", "y", "u", "b", "c"}, rows))
	fd := MustFD("F", bitset.New(0), bitset.New(1))

	// Without threshold: u alone is the minimal repair (g = 7−4 = 3).
	rep, _, ok := FindFirstRepair(counter, fd, RepairOptions{})
	if !ok || !rep.Added.Equal(bitset.New(2)) {
		t.Fatalf("unthresholded first repair = %v, want {u}", rep.Added)
	}
	if rep.Measures.Goodness != 3 {
		t.Fatalf("goodness of UNIQUE repair = %d, want 3", rep.Measures.Goodness)
	}
	// Cap |g| at 2: u is filtered; {b,c} (g = 4−4 = 0) is found instead.
	maxG := 2
	opts := RepairOptions{Candidates: CandidateOptions{MaxGoodness: &maxG}}
	rep, _, ok = FindFirstRepair(counter, fd, opts)
	if !ok {
		t.Fatal("thresholded repair must exist")
	}
	if rep.Added.Contains(2) {
		t.Fatalf("thresholded repair %v must avoid the UNIQUE attribute", rep.Added)
	}
	if !rep.Added.Equal(bitset.New(3, 4)) {
		t.Fatalf("thresholded repair = %v, want {b,c}", rep.Added)
	}
	if !rep.Measures.Exact() || rep.Measures.Goodness != 0 {
		t.Fatalf("thresholded repair must be exact with g=0, got %v", rep.Measures)
	}
}

func TestPruneNonMinimal(t *testing.T) {
	// c repairs alone; {b,d} repairs too. A superset of {c} like {b,c} can
	// be discovered through the non-exact prefix {b}; pruning removes it.
	rows := [][]string{
		{"1", "x", "b1", "c1", "d1"},
		{"1", "y", "b1", "c2", "d2"},
		{"2", "x", "b2", "c3", "d1"},
	}
	counter := pli.NewPLICounter(buildRelation(t, []string{"a", "y", "b", "c", "d"}, rows))
	fd := MustFD("F", bitset.New(0), bitset.New(1))

	all := FindRepairs(counter, fd, RepairOptions{})
	pruned := FindRepairs(counter, fd, RepairOptions{PruneNonMinimal: true})
	if len(pruned.Repairs) >= len(all.Repairs) {
		t.Fatalf("pruning should reduce %d repairs, got %d", len(all.Repairs), len(pruned.Repairs))
	}
	for _, a := range pruned.Repairs {
		for _, b := range pruned.Repairs {
			if a.Added.ProperSubsetOf(b.Added) {
				t.Fatalf("pruned set still contains superset pair %v ⊂ %v", a.Added, b.Added)
			}
		}
	}
}

func TestMaxAddedBound(t *testing.T) {
	counter := placesCounter(t)
	fd := placesFD(t, counter.Relation(), "F4", "District -> PhNo")
	// F4 needs 2 attributes; with MaxAdded 1 nothing is found.
	res := FindRepairs(counter, fd, RepairOptions{MaxAdded: 1})
	if len(res.Repairs) != 0 {
		t.Fatalf("MaxAdded=1 should find nothing for F4, got %d", len(res.Repairs))
	}
	if !res.Stats.Exhausted {
		t.Fatal("bounded space should still be exhausted")
	}
}

func TestMaxEvaluatedBudget(t *testing.T) {
	counter := placesCounter(t)
	fd := placesFD(t, counter.Relation(), "F4", "District -> PhNo")
	res := FindRepairs(counter, fd, RepairOptions{MaxEvaluated: 8})
	if res.Stats.Evaluated > 8 {
		t.Fatalf("budget exceeded: %d > 8", res.Stats.Evaluated)
	}
	if res.Stats.Exhausted {
		t.Fatal("tripped budget must clear Exhausted")
	}
}

func TestRepairsRespectNullColumns(t *testing.T) {
	// Column n has NULLs and must never appear in a repair even though it
	// would fix the FD.
	rows := [][]string{
		{"1", "x", "n1", "c1"},
		{"1", "y", "", "c2"},
		{"2", "x", "n3", "c3"},
	}
	counter := pli.NewPLICounter(buildRelation(t, []string{"a", "b", "n", "c"}, rows))
	fd := MustFD("F", bitset.New(0), bitset.New(1))
	res := FindRepairs(counter, fd, RepairOptions{})
	for _, rep := range res.Repairs {
		if rep.Added.Contains(2) {
			t.Fatalf("repair %v uses NULL column", rep.Added)
		}
	}
	if len(res.Repairs) == 0 {
		t.Fatal("c should still repair")
	}
}

func TestFindAllEnumeratesEachSetOnce(t *testing.T) {
	counter := placesCounter(t)
	fd := placesFD(t, counter.Relation(), "F4", "District -> PhNo")
	res := FindRepairs(counter, fd, RepairOptions{})
	seen := map[string]bool{}
	for _, rep := range res.Repairs {
		k := rep.Added.Key()
		if seen[k] {
			t.Fatalf("duplicate repair %v", rep.Added)
		}
		seen[k] = true
	}
}

// TestQuickFirstRepairMatchesBruteForce cross-validates minimality: the
// first repair's size must equal the smallest subset size that makes the FD
// exact, found by brute-force enumeration.
func TestQuickFirstRepairMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for iter := 0; iter < 60; iter++ {
		cols := []string{"x", "y", "a", "b", "c", "d"}
		nRows := 4 + rng.Intn(20)
		rows := make([][]string, nRows)
		for i := range rows {
			rows[i] = []string{
				string(rune('A' + rng.Intn(3))),
				string(rune('A' + rng.Intn(3))),
				string(rune('A' + rng.Intn(4))),
				string(rune('A' + rng.Intn(4))),
				string(rune('A' + rng.Intn(3))),
				string(rune('A' + rng.Intn(nRows))), // high-cardinality column
			}
		}
		r := buildRelation(t, cols, rows)
		counter := pli.NewPLICounter(r)
		fd := MustFD("F", bitset.New(0), bitset.New(1))
		if Compute(counter, fd).Exact() {
			continue
		}

		rep, _, ok := FindFirstRepair(counter, fd, RepairOptions{})
		want, wantOK := bruteForceMinRepair(r, fd)
		if ok != wantOK {
			t.Fatalf("iter %d: found=%v bruteforce=%v", iter, ok, wantOK)
		}
		if ok && rep.Added.Len() != want {
			t.Fatalf("iter %d: first repair size %d, brute force min %d", iter, rep.Added.Len(), want)
		}
	}
}

// bruteForceMinRepair enumerates all subsets of candidate attributes and
// returns the smallest size that yields an exact FD.
func bruteForceMinRepair(r *relation.Relation, fd FD) (int, bool) {
	var pool []int
	attrs := fd.Attrs()
	for c := 0; c < r.NumCols(); c++ {
		if !attrs.Contains(c) && !r.HasNulls(c) {
			pool = append(pool, c)
		}
	}
	best := -1
	for mask := 1; mask < 1<<len(pool); mask++ {
		var u bitset.Set
		for i, c := range pool {
			if mask&(1<<i) != 0 {
				u.Add(c)
			}
		}
		if r.SatisfiesFD(fd.X.Union(u), fd.Y) {
			if best < 0 || u.Len() < best {
				best = u.Len()
			}
		}
	}
	return best, best >= 0
}

// TestQuickFindAllAreAllExact: every returned repair must be exact and
// verified by the pairwise Definition 2 checker.
func TestQuickFindAllAreAllExact(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for iter := 0; iter < 40; iter++ {
		rows := make([][]string, 3+rng.Intn(15))
		for i := range rows {
			rows[i] = []string{
				string(rune('A' + rng.Intn(2))),
				string(rune('A' + rng.Intn(3))),
				string(rune('A' + rng.Intn(3))),
				string(rune('A' + rng.Intn(3))),
			}
		}
		r := buildRelation(t, []string{"x", "y", "a", "b"}, rows)
		counter := pli.NewPLICounter(r)
		fd := MustFD("F", bitset.New(0), bitset.New(1))
		res := FindRepairs(counter, fd, RepairOptions{})
		for _, rep := range res.Repairs {
			if !rep.Measures.Exact() {
				t.Fatalf("iter %d: non-exact repair returned", iter)
			}
			if !r.SatisfiesFDPairwise(rep.FD.X, rep.FD.Y) {
				t.Fatalf("iter %d: repair fails pairwise Definition 2", iter)
			}
			if rep.Added.Intersects(fd.Attrs()) {
				t.Fatalf("iter %d: repair reuses FD attributes", iter)
			}
		}
	}
}

// TestQuickRepairsDiscoveredSizeAscending: discovery order must never
// present a larger repair before a smaller one (queue invariant).
func TestQuickRepairsDiscoveredSizeAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for iter := 0; iter < 40; iter++ {
		rows := make([][]string, 3+rng.Intn(12))
		for i := range rows {
			rows[i] = []string{
				string(rune('A' + rng.Intn(2))),
				string(rune('A' + rng.Intn(4))),
				string(rune('A' + rng.Intn(3))),
				string(rune('A' + rng.Intn(3))),
				string(rune('A' + rng.Intn(4))),
			}
		}
		counter := pli.NewPLICounter(buildRelation(t, []string{"x", "y", "a", "b", "c"}, rows))
		fd := MustFD("F", bitset.New(0), bitset.New(1))
		res := FindRepairs(counter, fd, RepairOptions{})
		for i := 1; i < len(res.Repairs); i++ {
			if res.Repairs[i].Added.Len() < res.Repairs[i-1].Added.Len() {
				t.Fatalf("iter %d: repair %d smaller than repair %d", iter, i, i-1)
			}
		}
	}
}

func TestEvolveDatabaseRepairsInRankOrder(t *testing.T) {
	counter := placesCounter(t)
	r := counter.Relation()
	fds := []FD{
		placesFD(t, r, "F2", "Zip -> City, State"),
		placesFD(t, r, "F1", "District, Region -> AreaCode"),
	}
	results := EvolveDatabase(counter, fds, ScopeConsequentOnly, RepairOptions{FirstOnly: true})
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	// F1 (rank 0.25) outranks F2 (0.167) and must be processed first.
	if results[0].FD.Label != "F1" || results[1].FD.Label != "F2" {
		t.Fatalf("order = %s, %s; want F1, F2", results[0].FD.Label, results[1].FD.Label)
	}
	for _, res := range results {
		if len(res.Repairs) == 0 {
			t.Fatalf("%s should be repairable", res.FD.Label)
		}
	}
}

func TestPlacesF3IsUnrepairable(t *testing.T) {
	// Tuples t10 and t11 agree on every attribute except Street, so no
	// antecedent extension can separate them: F3 has no repair at all. This
	// is a genuine property of the running-example instance.
	counter := placesCounter(t)
	fd := placesFD(t, counter.Relation(), "F3", "PhNo, Zip -> Street")
	res := FindRepairs(counter, fd, RepairOptions{})
	if len(res.Repairs) != 0 {
		t.Fatalf("F3 should be unrepairable, got %d repairs", len(res.Repairs))
	}
	if !res.Stats.Exhausted {
		t.Fatal("the full search space should have been explored")
	}
}

// TestFindAllBoundedIsPrefixOfUnbounded: on the Table 5 lineitem FD
// l_partkey → l_suppkey, find-all with MaxAdded = 3 returns exactly the
// unbounded search's repairs with at most three added attributes, in the
// same order and with the same measures. Both searches walk sizes in
// ascending order and a size's nodes never depend on larger ones, so the
// bound only cuts the tail.
func TestFindAllBoundedIsPrefixOfUnbounded(t *testing.T) {
	r := tpch.GenerateTable("lineitem", 0.001, 1)
	fd, err := ParseFD(r.Schema(), "L", tpch.Table5FDs()["lineitem"])
	if err != nil {
		t.Fatal(err)
	}
	unbounded := FindRepairs(pli.NewPLICounter(r), fd, RepairOptions{})
	bounded := FindRepairs(pli.NewPLICounter(r), fd, RepairOptions{MaxAdded: 3})
	var want []Repair
	for _, rep := range unbounded.Repairs {
		if rep.Added.Len() <= 3 {
			want = append(want, rep)
		}
	}
	if len(want) == 0 || len(want) == len(unbounded.Repairs) {
		t.Fatalf("%d of %d unbounded repairs within the bound: the bound cuts nothing", len(want), len(unbounded.Repairs))
	}
	if !reflect.DeepEqual(bounded.Repairs, want) {
		t.Fatalf("MaxAdded = 3 found %d repairs, want the unbounded search's %d with ≤ 3 added attributes",
			len(bounded.Repairs), len(want))
	}
}
