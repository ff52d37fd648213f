package discovery

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/evolvefd/evolvefd/internal/core"
	"github.com/evolvefd/evolvefd/internal/pli"
	"github.com/evolvefd/evolvefd/internal/relation"
)

// assertCoversEqual fails unless the incrementally-maintained cover equals a
// fresh from-scratch discovery over the same instance and options.
func assertCoversEqual(t *testing.T, tag string, r *relation.Relation, d *IncrementalDiscoverer, opts Options) {
	t.Helper()
	got := d.Cover()
	want, _ := MinimalFDs(pli.NewPLICounter(r), opts)
	if len(got) != len(want) {
		t.Fatalf("%s: incremental cover has %d FDs, fresh discovery %d\n got: %v\nwant: %v",
			tag, len(got), len(want), got, want)
	}
	for i := range got {
		if !got[i].X.Equal(want[i].X) || !got[i].Y.Equal(want[i].Y) {
			t.Fatalf("%s: cover FD %d: incremental %v, fresh %v", tag, i, got[i], want[i])
		}
	}
}

// TestIncrementalDiscovererMixedDMLDifferential is the core correctness
// test: on small low-cardinality relations (so validity flips constantly),
// random append/delete/update streams must leave the maintained cover equal
// to a fresh levelwise discovery after every single batch.
func TestIncrementalDiscovererMixedDMLDifferential(t *testing.T) {
	cards := []int{3, 3, 2, 4}
	cols := []string{"a", "b", "c", "d"}
	opts := Options{MaxLHS: 3}
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(400 + seed))
		randCells := func() []string {
			cells := make([]string, len(cols))
			for i, card := range cards {
				cells[i] = string(rune('A' + rng.Intn(card)))
			}
			return cells
		}
		r := buildRelation(t, cols, nil)
		for i := 0; i < 16; i++ {
			if err := r.AppendStrings(randCells()...); err != nil {
				t.Fatal(err)
			}
		}
		counter := pli.NewIncrementalCounter(r)
		d := NewIncrementalDiscoverer(counter, opts)
		assertCoversEqual(t, fmt.Sprintf("seed %d: seed cover", seed), r, d, opts)

		live := make([]int, r.NumRows())
		for i := range live {
			live[i] = i
		}
		for batch := 0; batch < 25; batch++ {
			ops := 1 + rng.Intn(4)
			for op := 0; op < ops; op++ {
				switch roll := rng.Intn(10); {
				case roll < 4 || len(live) == 0:
					if err := r.AppendStrings(randCells()...); err != nil {
						t.Fatal(err)
					}
					live = append(live, r.NumRows()-1)
				case roll < 7:
					i := rng.Intn(len(live))
					if err := counter.Delete(live[i]); err != nil {
						t.Fatal(err)
					}
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				default:
					row := live[rng.Intn(len(live))]
					if err := counter.UpdateStrings(row, randCells()...); err != nil {
						t.Fatal(err)
					}
				}
			}
			assertCoversEqual(t, fmt.Sprintf("seed %d batch %d", seed, batch), r, d, opts)
		}
	}
}

// TestIncrementalDiscovererDeleteToEmpty drains the relation completely
// (every FD becomes vacuously valid, like a fresh discovery reports) and
// then refills it.
func TestIncrementalDiscovererDeleteToEmpty(t *testing.T) {
	opts := Options{MaxLHS: 2}
	r := buildRelation(t, []string{"a", "b", "c"}, [][]string{
		{"1", "x", "p"}, {"1", "y", "p"}, {"2", "x", "q"},
	})
	counter := pli.NewIncrementalCounter(r)
	d := NewIncrementalDiscoverer(counter, opts)
	for row := 0; row < 3; row++ {
		if err := counter.Delete(row); err != nil {
			t.Fatal(err)
		}
		assertCoversEqual(t, fmt.Sprintf("after delete %d", row), r, d, opts)
	}
	if err := r.AppendStrings("3", "z", "r"); err != nil {
		t.Fatal(err)
	}
	assertCoversEqual(t, "after refill", r, d, opts)
}

// TestIncrementalDiscovererNullTransitions exercises the reseed path: a
// NULL appearing in a column removes it from the discovery pool, and the
// last NULL leaving restores it — both must redraw the cover exactly like a
// fresh discovery does.
func TestIncrementalDiscovererNullTransitions(t *testing.T) {
	opts := Options{MaxLHS: 2}
	r := buildRelation(t, []string{"a", "b"}, [][]string{
		{"1", "x"}, {"2", "y"},
	})
	counter := pli.NewIncrementalCounter(r)
	d := NewIncrementalDiscoverer(counter, opts)

	if err := r.AppendStrings("3", ""); err != nil { // NULL: b leaves the pool
		t.Fatal(err)
	}
	assertCoversEqual(t, "after NULL append", r, d, opts)
	if got := d.Stats().Reseeds; got != 1 {
		t.Fatalf("NULL appearance should reseed once, got %d", got)
	}
	if err := counter.Delete(2); err != nil { // last NULL leaves: b returns
		t.Fatal(err)
	}
	assertCoversEqual(t, "after NULL delete", r, d, opts)
	if got := d.Stats().Reseeds; got != 2 {
		t.Fatalf("NULL disappearance should reseed again, got %d", got)
	}
}

// TestIncrementalDiscovererOutOfBandMutations applies deletes and updates
// directly to the relation, bypassing the incremental counter; the
// discoverer must detect them via relation.Mutations and stay correct.
func TestIncrementalDiscovererOutOfBandMutations(t *testing.T) {
	opts := Options{MaxLHS: 2}
	r := buildRelation(t, []string{"a", "b", "c"}, [][]string{
		{"1", "x", "p"}, {"1", "x", "q"}, {"2", "y", "p"}, {"3", "y", "q"},
	})
	counter := pli.NewIncrementalCounter(r)
	d := NewIncrementalDiscoverer(counter, opts)

	if err := r.Delete(1); err != nil { // not counter.Delete
		t.Fatal(err)
	}
	assertCoversEqual(t, "out-of-band delete", r, d, opts)
	if err := r.UpdateStrings(2, "1", "x", "r"); err != nil { // not counter.Update
		t.Fatal(err)
	}
	assertCoversEqual(t, "out-of-band update", r, d, opts)
}

// TestIncrementalDiscovererConsequentsOption restricts discovery to one
// consequent and checks parity with MinimalFDs under DML.
func TestIncrementalDiscovererConsequentsOption(t *testing.T) {
	opts := Options{MaxLHS: 2, Consequents: []int{1}}
	r := buildRelation(t, []string{"a", "b", "c"}, [][]string{
		{"1", "x", "p"}, {"2", "x", "q"}, {"3", "y", "p"},
	})
	counter := pli.NewIncrementalCounter(r)
	d := NewIncrementalDiscoverer(counter, opts)
	assertCoversEqual(t, "seed", r, d, opts)
	for _, fd := range d.Cover() {
		if fd.Y.Min() != 1 {
			t.Fatalf("consequent filter violated: %v", fd)
		}
	}
	if err := r.AppendStrings("1", "z", "p"); err != nil { // breaks a → b
		t.Fatal(err)
	}
	assertCoversEqual(t, "after break", r, d, opts)
	if err := counter.Delete(3); err != nil { // restores a → b
		t.Fatal(err)
	}
	assertCoversEqual(t, "after restore", r, d, opts)
}

// TestIncrementalDiscovererStats pins the O(affected region) observables: a
// batch that appends an exact duplicate tuple changes no projection count,
// so nothing is revalidated or probed; a batch that breaks a cover FD
// demotes it and expands only its frontier; a delete that restores the FD
// promotes it back via a witness break.
func TestIncrementalDiscovererStats(t *testing.T) {
	r := buildRelation(t, []string{"a", "b", "c"}, [][]string{
		{"1", "x", "p"}, {"2", "y", "q"},
	})
	counter := pli.NewIncrementalCounter(r)
	d := NewIncrementalDiscoverer(counter, Options{MaxLHS: 2})
	// The effort counters start at zero; the two sizes describe the seed.
	if got := d.Stats(); got != (IncStats{CoverSize: got.CoverSize, BorderSize: got.BorderSize}) {
		t.Fatalf("stats must start at zero, got %+v", got)
	}

	// Duplicate tuple: every projection keeps its cluster count.
	if err := r.AppendStrings("1", "x", "p"); err != nil {
		t.Fatal(err)
	}
	d.Sync()
	got := d.Stats()
	if got.Batches != 1 {
		t.Fatalf("batches = %d, want 1", got.Batches)
	}
	if got.Revalidated != 0 || got.Probes != 0 || got.Demoted != 0 || got.Promoted != 0 {
		t.Fatalf("duplicate append must disturb nothing, got %+v", got)
	}

	// Break a → b: row 3 shares a=1 with rows 0 and 2 but has b=z.
	if err := r.AppendStrings("1", "z", "p"); err != nil {
		t.Fatal(err)
	}
	d.Sync()
	got = d.Stats()
	if got.Demoted == 0 || got.FrontierExpanded == 0 {
		t.Fatalf("breaking append must demote and expand the frontier, got %+v", got)
	}
	assertCoversEqual(t, "after break", r, d, Options{MaxLHS: 2})

	// Delete the violating tuple: its witnesses break, a → b is promoted back.
	prev := got
	if err := counter.Delete(3); err != nil {
		t.Fatal(err)
	}
	d.Sync()
	got = d.Stats()
	if got.WitnessChecks == prev.WitnessChecks || got.WitnessBroken == prev.WitnessBroken {
		t.Fatalf("delete must check and break witnesses, got %+v (was %+v)", got, prev)
	}
	if got.Promoted == prev.Promoted {
		t.Fatalf("restoring delete must promote, got %+v (was %+v)", got, prev)
	}
	assertCoversEqual(t, "after restore", r, d, Options{MaxLHS: 2})
}

// TestIncrementalDiscovererAppendStream mirrors the streaming-appends
// workload at unit scale: batches of random appends with differential
// agreement at every step, and MaxLHS 1 to cover the no-expansion edge.
func TestIncrementalDiscovererAppendStream(t *testing.T) {
	for _, maxLHS := range []int{1, 2} {
		opts := Options{MaxLHS: maxLHS}
		rng := rand.New(rand.NewSource(7))
		r := buildRelation(t, []string{"a", "b", "c"}, [][]string{{"A", "A", "A"}})
		counter := pli.NewIncrementalCounter(r)
		d := NewIncrementalDiscoverer(counter, opts)
		for batch := 0; batch < 20; batch++ {
			for i := 0; i <= rng.Intn(3); i++ {
				cells := []string{
					string(rune('A' + rng.Intn(2))),
					string(rune('A' + rng.Intn(3))),
					string(rune('A' + rng.Intn(2))),
				}
				if err := r.AppendStrings(cells...); err != nil {
					t.Fatal(err)
				}
			}
			assertCoversEqual(t, fmt.Sprintf("maxLHS %d batch %d", maxLHS, batch), r, d, opts)
		}
	}
}

// TestIncrementalDiscovererCoverSorted checks the public Cover contract:
// sorted identically to MinimalFDs (consequent, antecedent size, attribute
// order), so covers can be diffed positionally.
func TestIncrementalDiscovererCoverSorted(t *testing.T) {
	r := buildRelation(t, []string{"a", "b", "c", "d"}, [][]string{
		{"1", "x", "p", "m"}, {"2", "x", "q", "m"}, {"3", "y", "p", "n"},
	})
	d := NewIncrementalDiscoverer(pli.NewIncrementalCounter(r), Options{MaxLHS: 2})
	cover := d.Cover()
	sorted := append([]core.FD(nil), cover...)
	sortFDs(sorted)
	for i := range cover {
		if !cover[i].X.Equal(sorted[i].X) || !cover[i].Y.Equal(sorted[i].Y) {
			t.Fatalf("cover not sorted at %d: %v", i, cover)
		}
	}
	if st := d.Stats(); st.CoverSize != len(cover) {
		t.Fatalf("CoverSize %d != len(Cover) %d", st.CoverSize, len(cover))
	}
	if d.Stats().BorderSize == 0 {
		t.Fatal("expected a non-empty invalid border on this instance")
	}
}

// TestIncrementalSeedBuildsNoProducts pins what seeding through the shared
// walk saves: validity is a witness scan of π_X, so no XA product is built.
// At MaxLHS 1 every antecedent is one column and the seed builds no
// multi-column partition at all; at MaxLHS 2 it builds at most one per
// antecedent pair, C(5,2) = 10.
func TestIncrementalSeedBuildsNoProducts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rows := make([][]string, 40)
	for i := range rows {
		rows[i] = make([]string, 5)
		for c := range rows[i] {
			rows[i][c] = string(rune('A' + rng.Intn(2+c)))
		}
	}
	r := buildRelation(t, []string{"a", "b", "c", "d", "e"}, rows)
	for _, tc := range []struct {
		maxLHS    int
		maxBuilds uint64
	}{{1, 0}, {2, 10}} {
		counter := pli.NewIncrementalCounter(r)
		d := NewIncrementalDiscoverer(counter, Options{MaxLHS: tc.maxLHS})
		if got := counter.MultiColumnBuilds(); got > tc.maxBuilds {
			t.Fatalf("MaxLHS %d: seeding built %d multi-column partitions, want ≤ %d", tc.maxLHS, got, tc.maxBuilds)
		}
		assertCoversEqual(t, fmt.Sprintf("MaxLHS %d seed", tc.maxLHS), r, d, Options{MaxLHS: tc.maxLHS})
	}
}
