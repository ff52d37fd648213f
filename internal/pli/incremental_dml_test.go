package pli

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/evolvefd/evolvefd/internal/bitset"
	"github.com/evolvefd/evolvefd/internal/relation"
)

// liveRowIDs returns the non-tombstoned row ids of r.
func liveRowIDs(r *relation.Relation) []int {
	out := make([]int, 0, r.LiveRows())
	for row := 0; row < r.NumRows(); row++ {
		if !r.IsDeleted(row) {
			out = append(out, row)
		}
	}
	return out
}

// TestIncrementalDMLDifferential is the full-DML analogue of
// TestIncrementalDifferential: after every randomized batch of mixed
// appends, deletes and in-place updates, every tracked and untracked count —
// and every tracked partition — must equal what from-scratch PLI and hash
// computations over the mutated relation produce.
func TestIncrementalDMLDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	const ncols = 5
	r := randomRelation(rng, 40, ncols, 4)
	inc := NewIncrementalCounter(r)
	sets := randomSets(rng, ncols, 12)
	for i, s := range sets {
		if i%2 == 0 {
			inc.Track(s)
		}
	}
	tuple := make([]relation.Value, ncols)
	for batch := 0; batch < 10; batch++ {
		for op := 0; op < 15; op++ {
			live := liveRowIDs(r)
			switch roll := rng.Intn(3); {
			case roll == 0 || len(live) < 2:
				appendRandomRows(t, rng, r, 1)
			case roll == 1:
				if err := inc.Delete(live[rng.Intn(len(live))]); err != nil {
					t.Fatal(err)
				}
			default:
				for c := range tuple {
					tuple[c] = relation.String(string(rune('A' + rng.Intn(4))))
				}
				if err := inc.Update(live[rng.Intn(len(live))], tuple...); err != nil {
					t.Fatal(err)
				}
			}
		}
		fresh, hash := NewPLICounter(r), NewHashCounter(r)
		for _, s := range sets {
			want := fresh.Count(s)
			if alt := hash.Count(s); alt != want {
				t.Fatalf("batch %d: scratch counters disagree on %v: pli %d, hash %d", batch, s, want, alt)
			}
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
	if !r.Mutated() || !r.HasTombstones() {
		t.Fatal("stream never deleted; test exercised nothing")
	}
}

// TestIncrementalDeleteGenerationStamps pins the shrink-aware stamp
// semantics: a delete that only shrinks a cluster (k ≥ 2 → k−1) leaves the
// set's count and stamp alone, while one that empties a cluster advances
// both — which is what invalidates the measure cache for exactly the FDs the
// delete disturbed.
func TestIncrementalDeleteGenerationStamps(t *testing.T) {
	r := buildRelation(t, []string{"a", "b"}, [][]string{
		{"x", "1"}, {"x", "2"}, {"y", "1"},
	})
	inc := NewIncrementalCounter(r)
	a := bitset.New(0)
	n0, g0 := inc.CountWithGen(a)
	if n0 != 2 {
		t.Fatalf("count(a) = %d, want 2", n0)
	}
	// Rows 0 and 1 share a's cluster "x": deleting row 1 shrinks it to one
	// member but empties nothing.
	if err := inc.Delete(1); err != nil {
		t.Fatal(err)
	}
	n1, g1 := inc.CountWithGen(a)
	if n1 != 2 || g1 != g0 {
		t.Fatalf("after shrinking delete: count %d gen %d, want count 2 gen %d", n1, g1, g0)
	}
	// Deleting row 0 empties "x": the count drops and the stamp advances.
	if err := inc.Delete(0); err != nil {
		t.Fatal(err)
	}
	n2, g2 := inc.CountWithGen(a)
	if n2 != 1 || g2 <= g1 {
		t.Fatalf("after emptying delete: count %d gen %d, want count 1 and gen > %d", n2, g2, g1)
	}
	if inc.Generation() < g2 {
		t.Fatal("counter generation must dominate index stamps")
	}
}

// TestIncrementalUpdateGenerationStamps pins the update analogue: a row
// moving between two surviving clusters — or from a dying cluster straight
// into a fresh one — leaves |π_X| and the stamp alone, while a move that
// only empties or only opens a cluster changes both.
func TestIncrementalUpdateGenerationStamps(t *testing.T) {
	r := buildRelation(t, []string{"a", "b"}, [][]string{
		{"x", "1"}, {"x", "2"}, {"y", "1"}, {"y", "2"},
	})
	inc := NewIncrementalCounter(r)
	a := bitset.New(0)
	if n, _ := inc.CountWithGen(a); n != 2 {
		t.Fatalf("count(a) = %d, want 2", n)
	}
	// Row 0 moves from cluster "x" (which survives via row 1) to cluster "y":
	// both clusters live on, count unchanged, stamp unchanged.
	_, g0 := inc.CountWithGen(a)
	if err := inc.Update(0, relation.String("y"), relation.String("1")); err != nil {
		t.Fatal(err)
	}
	if n, g := inc.CountWithGen(a); n != 2 || g != g0 {
		t.Fatalf("after re-route between survivors: count %d gen %d, want 2/%d", n, g, g0)
	}
	// Row 1 moves from "x" (emptying it) to the fresh cluster "z": −1 and +1
	// cancel, so the count — and the stamp — still must not move.
	if err := inc.Update(1, relation.String("z"), relation.String("2")); err != nil {
		t.Fatal(err)
	}
	if n, g := inc.CountWithGen(a); n != 2 || g != g0 {
		t.Fatalf("after emptying+opening move: count %d gen %d, want 2/%d", n, g, g0)
	}
	// Row 0 moves from "y" (still backed by rows 2 and 3) to fresh "w": the
	// count grows to 3 and the stamp advances.
	if err := inc.Update(0, relation.String("w"), relation.String("1")); err != nil {
		t.Fatal(err)
	}
	if n, g := inc.CountWithGen(a); n != 3 || g <= g0 {
		t.Fatalf("after opening move: count %d gen %d, want 3 and gen > %d", n, g, g0)
	}
}

// TestEmptySetGenerationFlips is the regression test for the empty-set
// stamping bug: the 0↔1 flips of |π_∅| across an empty → populated → empty
// lifecycle must each carry a fresh generation, so "same generation ⇒ same
// count" holds for the empty set too.
func TestEmptySetGenerationFlips(t *testing.T) {
	schema, err := relation.SchemaOf("a", "b")
	if err != nil {
		t.Fatal(err)
	}
	r := relation.New("t", schema)
	inc := NewIncrementalCounter(r)
	empty := bitset.Set{}
	n0, g0 := inc.CountWithGen(empty)
	if n0 != 0 {
		t.Fatalf("empty instance: count %d, want 0", n0)
	}
	// The first row flips the count to 1; the stamp must move with it.
	if err := r.AppendStrings("x", "1"); err != nil {
		t.Fatal(err)
	}
	n1, g1 := inc.CountWithGen(empty)
	if n1 != 1 {
		t.Fatalf("after first row: count %d, want 1", n1)
	}
	if g1 == g0 {
		t.Fatalf("0→1 flip kept generation %d: same generation would imply same count", g1)
	}
	// Further growth leaves the empty set's count — and stamp — alone.
	if err := r.AppendStrings("y", "2"); err != nil {
		t.Fatal(err)
	}
	if n, g := inc.CountWithGen(empty); n != 1 || g != g1 {
		t.Fatalf("after second row: count %d gen %d, want 1/%d", n, g, g1)
	}
	// Deleting everything flips back to 0 under a third, distinct stamp.
	if err := inc.Delete(0, 1); err != nil {
		t.Fatal(err)
	}
	n2, g2 := inc.CountWithGen(empty)
	if n2 != 0 || g2 == g1 || g2 == g0 {
		t.Fatalf("after emptying deletes: count %d gen %d, want 0 under a fresh generation (had %d, %d)",
			n2, g2, g0, g1)
	}
}

// TestTrackedLRUEviction is the regression test for FIFO eviction: a session
// whose live FDs keep touching their X/XY/Y indices must keep those indices
// resident while cold one-shot sets are evicted, even after maxTracked+1
// distinct sets have been seen.
func TestTrackedLRUEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := randomRelation(rng, 30, 6, 3)
	inc := NewIncrementalCounterSize(r, 4)
	hot := bitset.New(0, 1)
	cold := []bitset.Set{bitset.New(1, 2), bitset.New(2, 3), bitset.New(3, 4)}
	inc.Track(hot)
	for _, s := range cold {
		inc.Track(s)
	}
	// Four sets tracked, hot is the oldest by insertion. Touch it through the
	// read paths, then overflow the bound with a fifth set.
	inc.Count(hot)
	inc.CountWithGen(hot)
	inc.Track(bitset.New(4, 5))
	if got := inc.TrackedSets(); got != 4 {
		t.Fatalf("tracked sets = %d, want 4", got)
	}
	if !inc.isTracked(hot) {
		t.Fatal("most-recently-used set was evicted; eviction is FIFO, not LRU")
	}
	if inc.isTracked(cold[0]) {
		t.Fatal("least-recently-used set survived eviction")
	}
	// Correctness is unaffected either way.
	fresh := NewPLICounter(r)
	for _, s := range append(cold, hot) {
		if got, want := inc.Count(s), fresh.Count(s); got != want {
			t.Fatalf("Count(%v) = %d, want %d", s, got, want)
		}
	}
}

// TestTrackedIndexCompaction proves tracked-index memory is bounded under
// sustained churn: updating one row through a stream of thousands of
// distinct values must not accumulate an ids/rows slot per value ever seen,
// and compaction must not disturb counts or partitions.
func TestTrackedIndexCompaction(t *testing.T) {
	r := buildRelation(t, []string{"a"}, [][]string{{"v0"}, {"v0"}, {"w"}})
	inc := NewIncrementalCounter(r)
	a := bitset.New(0)
	inc.Track(a)
	for i := 1; i <= 2000; i++ {
		if err := inc.Update(0, relation.String(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	idx := inc.tracked[a.Key()]
	if idx == nil {
		t.Fatal("tracked index evicted")
	}
	if idx.ids.n > 256 || len(idx.ids.slots) > 512 || len(idx.head) > 256 {
		t.Fatalf("index grew to %d ids / %d table slots / %d cluster slots after 2000 distinct updates; compaction not working",
			idx.ids.n, len(idx.ids.slots), len(idx.head))
	}
	if got, want := inc.Count(a), NewHashCounter(r).Count(a); got != want {
		t.Fatalf("Count after churn = %d, want %d", got, want)
	}
	if p, q := inc.Partition(a), FromSet(r, a); !p.EqualPartition(q) {
		t.Fatal("Partition diverged after compaction")
	}
}

// TestIncrementalOutOfBandMutation proves the safety net: deleting or
// updating the relation directly (not through the counter) must be detected
// and answered with correct counts, at the cost of a rebuild.
func TestIncrementalOutOfBandMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	r := randomRelation(rng, 30, 4, 3)
	inc := NewIncrementalCounter(r)
	sets := randomSets(rng, 4, 8)
	for _, s := range sets {
		inc.Track(s)
	}
	gen := inc.Generation()
	if err := r.Delete(3, 7, 11); err != nil {
		t.Fatal(err)
	}
	if err := r.Update(0, relation.String("Z"), relation.String("Z"), relation.String("Z"), relation.String("Z")); err != nil {
		t.Fatal(err)
	}
	if g := inc.Generation(); g <= gen {
		t.Fatalf("generation %d did not advance past %d on out-of-band mutation", g, gen)
	}
	fresh := NewPLICounter(r)
	for _, s := range sets {
		if got, want := inc.Count(s), fresh.Count(s); got != want {
			t.Fatalf("Count(%v) after out-of-band mutation = %d, want %d", s, got, want)
		}
	}
}

// TestIncrementalDeleteErrors pins the atomic failure contract.
func TestIncrementalDeleteErrors(t *testing.T) {
	r := buildRelation(t, []string{"a"}, [][]string{{"x"}, {"y"}, {"z"}})
	inc := NewIncrementalCounter(r)
	if n := inc.Count(bitset.New(0)); n != 3 {
		t.Fatalf("count = %d, want 3", n)
	}
	// An empty batch is a no-op: it must not advance the generation.
	gen := inc.Generation()
	if err := inc.Delete(); err != nil {
		t.Fatal(err)
	}
	if g := inc.Generation(); g != gen {
		t.Fatalf("empty delete advanced generation %d → %d", gen, g)
	}
	if err := inc.Delete(1, 99); err == nil {
		t.Fatal("out-of-range delete must fail")
	}
	if r.IsDeleted(1) {
		t.Fatal("failed batch must not leave partial tombstones")
	}
	if err := inc.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := inc.Delete(1); err == nil {
		t.Fatal("double delete must fail")
	}
	if err := inc.Update(1, relation.String("q")); err == nil {
		t.Fatal("update of deleted row must fail")
	}
	if n := inc.Count(bitset.New(0)); n != 2 {
		t.Fatalf("count after delete = %d, want 2", n)
	}
}

// TestEnsureTrackedCapacity checks the capacity knob the incremental
// discoverer relies on: raising the bound keeps a working set larger than
// the construction-time maximum fully resident, and the bound never shrinks.
func TestEnsureTrackedCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	r := randomRelation(rng, 30, 8, 3)
	inc := NewIncrementalCounterSize(r, 4)
	inc.EnsureTrackedCapacity(8)
	var sets []bitset.Set
	for i := 0; i < 7; i++ {
		sets = append(sets, bitset.New(i, i+1))
	}
	for _, s := range sets {
		inc.Track(s)
	}
	if got := inc.TrackedSets(); got != 7 {
		t.Fatalf("tracked sets = %d, want all 7 under a capacity of 8", got)
	}
	for _, s := range sets {
		if !inc.isTracked(s) {
			t.Fatalf("set %v evicted despite raised capacity", s)
		}
	}
	// Lowering is a no-op: nothing gets evicted by the weaker request.
	inc.EnsureTrackedCapacity(2)
	inc.Track(bitset.New(0, 2))
	if got := inc.TrackedSets(); got != 8 {
		t.Fatalf("tracked sets = %d, want 8 (capacity must not shrink)", got)
	}
}

// TestTrackedDMLAllocatesNothing pins that folding DML into tracked indexes
// builds no keys: with a dozen tracked sets, deleting a live row and
// updating a row into clusters that already exist must not allocate.
func TestTrackedDMLAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	const ncols = 5
	r := randomRelation(rng, 2000, ncols, 4)
	inc := NewIncrementalCounter(r)
	for _, s := range randomSets(rng, ncols, 16) {
		inc.Track(s)
	}
	if n := inc.TrackedSets(); n < 10 {
		t.Fatalf("only %d tracked sets", n)
	}
	row := 0
	if a := testing.AllocsPerRun(100, func() {
		if err := inc.Delete(row); err != nil {
			t.Fatal(err)
		}
		row++
	}); a != 0 {
		t.Fatalf("Delete allocates %.1f times per row", a)
	}
	// Every code tuple of at most three columns over a 4-value domain has
	// dozens of rows, so both updates join clusters that already exist.
	tuples := [2][]relation.Value{
		{relation.String("A"), relation.String("B"), relation.String("C"), relation.String("D"), relation.String("A")},
		{relation.String("D"), relation.String("C"), relation.String("B"), relation.String("A"), relation.String("D")},
	}
	flip := 0
	if a := testing.AllocsPerRun(100, func() {
		if err := inc.Update(1999, tuples[flip%2]...); err != nil {
			t.Fatal(err)
		}
		flip++
	}); a != 0 {
		t.Fatalf("Update allocates %.1f times per row", a)
	}
	fresh := NewHashCounter(r)
	for _, s := range randomSets(rng, ncols, 16) {
		if got, want := inc.Count(s), fresh.Count(s); got != want {
			t.Fatalf("Count(%v) = %d, want %d", s, got, want)
		}
	}
}

// FuzzTrackedIndexDML turns a byte script into appends, deletes, updates
// and compactions on a tiny three-column relation whose every attribute set
// is tracked, and checks each tracked count against HashCounter after every
// op. A three-value domain plus NULL keeps clusters emptying, reviving and
// crossing the cluster tables' resizes.
func FuzzTrackedIndexDML(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 0, 0, 0, 1, 0, 2, 1, 4, 5, 6, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 3, 0, 1, 1, 1})
	f.Add([]byte{2, 0, 3, 3, 3, 2, 1, 0, 1, 2, 3, 1, 2, 0, 2, 2, 2})
	f.Add([]byte{0, 0, 0, 0, 1, 2, 0, 0, 0, 0}) // append, delete it, append again: revival
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 512 {
			script = script[:512]
		}
		r := buildRelation(t, []string{"a", "b", "c"}, [][]string{{"x", "y", "z"}, {"x", "y", "w"}})
		inc := NewIncrementalCounter(r)
		var sets []bitset.Set
		for mask := 0; mask < 8; mask++ {
			var s bitset.Set
			for col := 0; col < 3; col++ {
				if mask>>col&1 == 1 {
					s.Add(col)
				}
			}
			sets = append(sets, s)
			inc.Track(s)
		}
		next := func() byte {
			if len(script) == 0 {
				return 0
			}
			b := script[0]
			script = script[1:]
			return b
		}
		tuple := func() []relation.Value {
			tup := make([]relation.Value, 3)
			for i := range tup {
				if b := next() % 4; b < 3 {
					tup[i] = relation.String(string(rune('p' + b)))
				}
			}
			return tup
		}
		for step := 0; len(script) > 0; step++ {
			live := liveRowIDs(r)
			var err error
			switch op := next() % 4; {
			case op == 0 || len(live) == 0:
				err = r.Append(tuple()...)
			case op == 1:
				err = inc.Delete(live[int(next())%len(live)])
			case op == 2:
				err = inc.Update(live[int(next())%len(live)], tuple()...)
			default:
				inc.Compact()
			}
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			hash := NewHashCounter(r)
			for _, s := range sets {
				if got, want := inc.Count(s), hash.Count(s); got != want {
					t.Fatalf("step %d: Count(%v) = %d, want %d", step, s, got, want)
				}
			}
		}
		if n := inc.TrackedSets(); n != len(sets) {
			t.Fatalf("%d tracked sets, want %d", n, len(sets))
		}
	})
}
