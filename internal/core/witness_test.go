package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/evolvefd/evolvefd/internal/bitset"
	"github.com/evolvefd/evolvefd/internal/pli"
)

// TestQuickWitnessPathMatchesCountPath holds the witness path (an
// IncrementalCounter under the default mode) to the count path (a plain
// Counter) on every state of a random append/delete/update/Compact stream
// with NULL cells: repairs, their order, their measures and the search
// stats must be identical for a one-column and a two-column consequent,
// under FirstOnly on and off, MaxAdded 0–3, PruneNonMinimal on and off and
// Parallelism 1, 2 and 8.
func TestQuickWitnessPathMatchesCountPath(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cols := []string{"x", "y", "z", "a", "b", "c", "d", "e"}
	cell := func(col int) string {
		if (col <= 2 || col == 5) && rng.Intn(8) == 0 {
			return "" // NULL in X, Y and one candidate column
		}
		domain := []int{2, 4, 3, 3, 3, 4, 12, 2}[col]
		return fmt.Sprint(rng.Intn(domain))
	}
	row := func() []string {
		cells := make([]string, len(cols))
		for c := range cells {
			cells[c] = cell(c)
		}
		return cells
	}
	var rows [][]string
	for i := 0; i < 24; i++ {
		rows = append(rows, row())
	}
	r := buildRelation(t, cols, rows)
	inc := pli.NewIncrementalCounter(r)
	fds := []FD{
		MustFD("F1", bitset.New(0), bitset.New(1)),
		MustFD("F2", bitset.New(0), bitset.New(1, 2)),
	}
	violated, found, nullStates := 0, 0, 0
	for batch := 0; batch < 8; batch++ {
		for op := 0; op < 6; op++ {
			var live []int
			for row := 0; row < r.NumRows(); row++ {
				if !r.IsDeleted(row) {
					live = append(live, row)
				}
			}
			var err error
			switch roll := rng.Intn(4); {
			case roll == 0 || len(live) < 8:
				err = r.AppendStrings(row()...)
			case roll == 1:
				err = inc.Delete(live[rng.Intn(len(live))])
			default:
				err = inc.UpdateStrings(live[rng.Intn(len(live))], row()...)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if batch%3 == 2 {
			inc.Compact()
		}
		if r.HasNulls(0) || r.HasNulls(1) || r.HasNulls(2) {
			nullStates++
		}
		for _, fd := range fds {
			for _, first := range []bool{false, true} {
				for maxAdded := 0; maxAdded <= 3; maxAdded++ {
					for _, prune := range []bool{false, true} {
						opts := RepairOptions{FirstOnly: first, MaxAdded: maxAdded, PruneNonMinimal: prune, Parallelism: 1}
						want := normalizeResult(FindRepairs(plainCounter{pli.NewPLICounter(r)}, fd, opts))
						if !want.Initial.Exact() {
							violated++
						}
						found += len(want.Repairs)
						for _, workers := range []int{1, 2, 8} {
							opts.Parallelism = workers
							got := normalizeResult(FindRepairs(inc, fd, opts))
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("batch %d, %s, %+v:\n got %+v\nwant %+v", batch, fd.Label, opts, got, want)
							}
						}
					}
				}
			}
		}
	}
	if nullStates == 0 || violated < 64 || found < 64 {
		t.Fatalf("stream too tame: %d states with NULLs in X or Y, %d violated searches, %d repairs",
			nullStates, violated, found)
	}
}

// TestWitnessPathLeavesInexactNodesUnmeasured pins the path split: under
// the default mode a SearchCounter's inexact children carry no measures
// (measured false) and are ordered behind the exact nodes of their size,
// while an option that reads inexact measures keeps every child measured.
func TestWitnessPathLeavesInexactNodesUnmeasured(t *testing.T) {
	r := buildRelation(t, []string{"x", "y", "a", "b"}, [][]string{
		{"1", "p", "u", "k"}, {"1", "q", "v", "k"}, {"1", "q", "v", "l"}, {"2", "p", "u", "l"},
	})
	counter := pli.NewPLICounter(r)
	fd := MustFD("F", bitset.New(0), bitset.New(1))
	root := expandTask{extX: fd.X, extXY: fd.Attrs(), extY: fd.Y, pX: counter.Partition(fd.X)}
	numY := counter.Count(fd.Y)
	labels := rowLabelsOf(counter, fd.Y, 1)
	exactA, inexactB := root, root
	exactA.attr, inexactB.attr = 2, 3
	computeChild(counter, &exactA, labels, numY)
	computeChild(counter, &inexactB, labels, numY)
	if !exactA.measured || !exactA.m.Exact() || exactA.m != NewMeasures(3, 3, 2) {
		t.Fatalf("x,a -> y: measured %v, %+v; want exact 3/3", exactA.measured, exactA.m)
	}
	if inexactB.measured || inexactB.m != (Measures{}) {
		t.Fatalf("x,b -> y: measured %v, %+v; want unmeasured zero", inexactB.measured, inexactB.m)
	}
	q := &nodeQueue{nodes: []*node{
		{addedKey: []int{3}},
		{addedKey: []int{2}, measures: exactA.m, measured: true},
	}}
	if !q.Less(1, 0) || q.Less(0, 1) || (q.nodes[0]).exact() {
		t.Fatal("an unmeasured node must sort behind a measured node of its size and never count as exact")
	}

	inexactB.pXY = counter.Partition(fd.Attrs())
	computeChild(counter, &inexactB, nil, numY)
	if !inexactB.measured || inexactB.m != NewMeasures(3, 4, 2) {
		t.Fatalf("count path: measured %v, %+v; want 3/4", inexactB.measured, inexactB.m)
	}
}

// TestRowLabelsOfMultiColumnY: for a two-column Y the witness labels rows by
// π_Y's classes, so two rows share a label iff they agree on every Y column.
func TestRowLabelsOfMultiColumnY(t *testing.T) {
	r := buildRelation(t, []string{"y", "z"}, [][]string{{"1", "p"}, {"1", "q"}, {"1", "p"}, {"2", "p"}})
	labels := rowLabelsOf(pli.NewPLICounter(r), bitset.New(0, 1), 2)
	same := func(i, j int) bool { return labels[i] == labels[j] }
	if !same(0, 2) || same(0, 1) || same(0, 3) || same(1, 3) {
		t.Fatalf("labels %v do not partition rows by (y, z)", labels)
	}
}
