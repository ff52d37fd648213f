package core

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/evolvefd/evolvefd/internal/bitset"
	"github.com/evolvefd/evolvefd/internal/pli"
	"github.com/evolvefd/evolvefd/internal/relation"
)

// normalizeResult strips the wall-clock field so results can be compared
// structurally across runs.
func normalizeResult(res RepairResult) RepairResult {
	res.Stats.Elapsed = 0
	return res
}

// randomSearchRelation builds a small random instance with a violated x → y
// and a handful of candidate columns of mixed cardinality.
func randomSearchRelation(t *testing.T, rng *rand.Rand) *relation.Relation {
	cols := []string{"x", "y", "a", "b", "c", "d", "e"}
	rows := make([][]string, 6+rng.Intn(30))
	for i := range rows {
		rows[i] = []string{
			string(rune('A' + rng.Intn(2))),
			string(rune('A' + rng.Intn(4))),
			string(rune('A' + rng.Intn(3))),
			string(rune('A' + rng.Intn(3))),
			string(rune('A' + rng.Intn(4))),
			string(rune('A' + rng.Intn(len(rows)))), // near-key column
			string(rune('A' + rng.Intn(2))),
		}
	}
	return buildRelation(t, cols, rows)
}

// plainCounter hides a counter's SearchCounter methods, so FindRepairs takes
// the generic Count path — the reference the partition-reuse path is held to.
type plainCounter struct{ pli.Counter }

// TestQuickFindRepairsParallelismInvariance is the determinism property the
// parallel frontier relies on: FindRepairs must return bit-identical results
// (repairs, measures, discovery order, and search stats) for any Parallelism
// and with the search-aware partition reuse on (a SearchCounter) or off (the
// same counter behind a plain pli.Counter), across randomized datasets and
// option mixes.
func TestQuickFindRepairsParallelismInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	maxG := 2
	optionMixes := []RepairOptions{
		{},
		{FirstOnly: true},
		{MaxAdded: 2},
		{Objective: ObjectiveBalanced},
		{Objective: ObjectiveBalanced, FirstOnly: true},
		{FirstOnly: true, Candidates: CandidateOptions{MaxGoodness: &maxG}},
		{MaxEvaluated: 9},
		{Objective: ObjectiveBalanced, FirstOnly: true, MaxEvaluated: 11},
		{PruneNonMinimal: true},
	}
	for iter := 0; iter < 20; iter++ {
		r := randomSearchRelation(t, rng)
		fd := MustFD("F", bitset.New(0), bitset.New(1))
		if Compute(pli.NewPLICounter(r), fd).Exact() {
			continue
		}
		for oi, base := range optionMixes {
			ref := base
			ref.Parallelism = 1
			want := normalizeResult(FindRepairs(plainCounter{pli.NewPLICounter(r)}, fd, ref))
			for _, workers := range []int{1, 2, 8} {
				for _, noReuse := range []bool{false, true} {
					opts := base
					opts.Parallelism = workers
					var counter pli.Counter = pli.NewPLICounter(r)
					if noReuse {
						counter = plainCounter{counter}
					}
					got := normalizeResult(FindRepairs(counter, fd, opts))
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("iter %d, options %d, workers %d, noReuse %v:\n got %+v\nwant %+v",
							iter, oi, workers, noReuse, got, want)
					}
				}
			}
		}
	}
}

// TestQuickParallelismInvarianceOnIncrementalCounter repeats the invariance
// check on the session counter (tracked sets + embedded PLI cache), which is
// the counter Session.Repair actually uses.
func TestQuickParallelismInvarianceOnIncrementalCounter(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for iter := 0; iter < 10; iter++ {
		r := randomSearchRelation(t, rng)
		fd := MustFD("F", bitset.New(0), bitset.New(1))
		ref := pli.NewIncrementalCounter(r)
		if Compute(ref, fd).Exact() {
			continue
		}
		want := normalizeResult(FindRepairs(plainCounter{ref}, fd, RepairOptions{Parallelism: 1}))
		for _, workers := range []int{2, 8} {
			counter := pli.NewIncrementalCounter(r)
			got := normalizeResult(FindRepairs(counter, fd, RepairOptions{Parallelism: workers}))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("iter %d, workers %d: incremental-counter search diverged:\n got %+v\nwant %+v",
					iter, workers, got, want)
			}
		}
	}
}

// TestEvolveDatabaseParallelMatchesSerial: repairing ranked FDs concurrently
// must preserve both the rank order and every per-FD result.
func TestEvolveDatabaseParallelMatchesSerial(t *testing.T) {
	counter := placesCounter(t)
	r := counter.Relation()
	fds := []FD{
		placesFD(t, r, "F2", "Zip -> City, State"),
		placesFD(t, r, "F1", "District, Region -> AreaCode"),
		placesFD(t, r, "F3", "PhNo, Zip -> Street"),
	}
	serial := EvolveDatabase(counter, fds, ScopeConsequentOnly, RepairOptions{Parallelism: 1})
	for _, workers := range []int{2, 8} {
		parallel := EvolveDatabase(placesCounter(t), fds, ScopeConsequentOnly,
			RepairOptions{Parallelism: workers})
		if len(parallel) != len(serial) {
			t.Fatalf("workers %d: %d results, want %d", workers, len(parallel), len(serial))
		}
		for i := range serial {
			if !reflect.DeepEqual(normalizeResult(parallel[i]), normalizeResult(serial[i])) {
				t.Fatalf("workers %d: result %d (%s) diverged", workers, i, serial[i].FD.Label)
			}
		}
	}
}
