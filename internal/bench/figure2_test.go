package bench

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/evolvefd/evolvefd/internal/bitset"
	"github.com/evolvefd/evolvefd/internal/pli"
	"github.com/evolvefd/evolvefd/internal/relation"
)

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

func clusteringOfSet(r *relation.Relation, cols ...int) clustering {
	return clusteringOf(r, pli.NewPLICounter(r), bitset.New(cols...))
}

func TestClusteringOfFirstOccurrence(t *testing.T) {
	r := buildRelation(t, []string{"a", "b"}, [][]string{
		{"1", "x"}, {"2", "y"}, {"1", "z"}, {"2", "y"}, {"3", "x"},
	})
	c := clusteringOfSet(r, 0)
	// First-occurrence order: a=1 rows {0,2}, a=2 {1,3}, then the singleton
	// a=3 {4}, which the stripped partition does not store.
	if len(c.rows) != 3 {
		t.Fatalf("classes = %d, want 3", len(c.rows))
	}
	if got := c.rows[0]; len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("class 0 rows = %v", got)
	}
	if c.labels[0] != "a=1" || c.labels[2] != "a=3" {
		t.Fatalf("labels = %q", c.labels)
	}
	if c.classOf[3] != 1 || c.classOf[4] != 2 {
		t.Fatalf("classOf = %v", c.classOf)
	}
}

func TestClusteringOfNullsGroupTogether(t *testing.T) {
	r := buildRelation(t, []string{"a"}, [][]string{{""}, {"x"}, {""}, {"y"}})
	if err := r.Delete(3); err != nil {
		t.Fatal(err)
	}
	c := clusteringOfSet(r, 0)
	if len(c.rows) != 2 {
		t.Fatalf("classes = %d, want 2", len(c.rows))
	}
	if c.classOf[0] != c.classOf[2] {
		t.Fatal("NULL rows must share a class")
	}
	if c.labels[0] != "a=NULL" {
		t.Fatalf("NULL class label = %q", c.labels[0])
	}
	for _, rows := range c.rows {
		if slices.Contains(rows, 3) {
			t.Fatal("a deleted row belongs to no class")
		}
	}
}

// TestQuickClusteringOfCountsMatchRelation cross-checks the number of
// listed classes against DistinctCountSet on random relations with deleted
// rows.
func TestQuickClusteringOfCountsMatchRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 100; iter++ {
		rows := make([][]string, 1+rng.Intn(40))
		for i := range rows {
			rows[i] = []string{
				string(rune('A' + rng.Intn(3))),
				string(rune('A' + rng.Intn(4))),
				string(rune('A' + rng.Intn(2))),
			}
		}
		r := buildRelation(t, []string{"a", "b", "c"}, rows)
		if err := r.Delete(rng.Intn(len(rows))); err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 4; trial++ {
			var x bitset.Set
			for c := 0; c < 3; c++ {
				if rng.Intn(2) == 0 {
					x.Add(c)
				}
			}
			c := clusteringOf(r, pli.NewPLICounter(r), x)
			if got, want := len(c.rows), r.DistinctCountSet(x); got != want {
				t.Fatalf("iter %d: classes %d ≠ distinct %d for %v", iter, got, want, x)
			}
		}
	}
}

func TestRenderAssociation(t *testing.T) {
	// An FD that is violated renders the classes it splits.
	viol := buildRelation(t, []string{"a", "b"}, [][]string{{"1", "x"}, {"1", "y"}, {"2", "y"}})
	out := renderAssociation("a->b", clusteringOfSet(viol, 0), clusteringOfSet(viol, 1))
	for _, want := range []string{
		"a=1 {t1,t2}  ⇒  ✗ splits over b=x | b=y",
		"a=2 {t3}     ⇒  b=y {t2,t3}",
		"no function between clusterings",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("violated FD: missing %q:\n%s", want, out)
		}
	}

	// Exact bijective FD renders the bijective verdict.
	bij := buildRelation(t, []string{"a", "b"}, [][]string{{"1", "x"}, {"2", "y"}})
	out = renderAssociation("a->b", clusteringOfSet(bij, 0), clusteringOfSet(bij, 1))
	if !strings.Contains(out, "well-defined (bijective)") {
		t.Fatalf("bijective verdict missing:\n%s", out)
	}

	// Exact non-bijective FD renders the non-complete verdict.
	fn := buildRelation(t, []string{"a", "b"}, [][]string{{"1", "x"}, {"2", "x"}})
	out = renderAssociation("a->b", clusteringOfSet(fn, 0), clusteringOfSet(fn, 1))
	if !strings.Contains(out, "not bijective") {
		t.Fatalf("non-complete verdict missing:\n%s", out)
	}
}
