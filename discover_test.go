package evolvefd_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	evolvefd "github.com/evolvefd/evolvefd"
	"github.com/evolvefd/evolvefd/internal/datasets"
	"github.com/evolvefd/evolvefd/internal/relation"
)

func discoverSession(t *testing.T, rows [][]string) *evolvefd.Session {
	t.Helper()
	schema, err := relation.SchemaOf("a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	r := relation.New("t", schema)
	for _, row := range rows {
		if err := r.AppendStrings(row...); err != nil {
			t.Fatal(err)
		}
	}
	return evolvefd.NewSession(r)
}

// TestSessionDiscoverPlaces pins the one-shot facade on the paper's running
// example: Municipal → AreaCode is exact on Places (Table 1) and must be
// discovered, with a Spec that round-trips through Define.
func TestSessionDiscoverPlaces(t *testing.T) {
	s := evolvefd.NewSession(datasets.Places())
	found, err := s.Discover(evolvefd.DiscoveryOptions{MaxLHS: 1, Consequents: []string{"AreaCode"}})
	if err != nil {
		t.Fatal(err)
	}
	var municipal *evolvefd.DiscoveredFD
	for i, d := range found {
		if d.Consequent != "AreaCode" {
			t.Fatalf("consequent filter violated: %+v", d)
		}
		if len(d.Antecedent) == 1 && d.Antecedent[0] == "Municipal" {
			municipal = &found[i]
		}
	}
	if municipal == nil {
		t.Fatalf("Municipal → AreaCode not discovered: %+v", found)
	}
	if err := s.Define("D1", municipal.Spec); err != nil {
		t.Fatalf("discovered Spec does not round-trip through Define: %v", err)
	}
	if m, err := s.Measures("D1"); err != nil || !m.Exact {
		t.Fatalf("adopted discovered FD is not exact: %+v, %v", m, err)
	}

	if _, err := s.Discover(evolvefd.DiscoveryOptions{Consequents: []string{"NoSuchColumn"}}); err == nil {
		t.Fatal("unknown consequent name must error")
	}
	capped, err := s.Discover(evolvefd.DiscoveryOptions{MaxLHS: 2, MaxResults: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) > 3 {
		t.Fatalf("MaxResults ignored by Discover: %d results", len(capped))
	}
}

// TestSessionDiscoverRefusesNegativeBounds: a negative MaxLHS or MaxResults
// is an error wrapping ErrBadValue from both discovery entry points, not a
// bound silently read as another (MaxLHS as 2, MaxResults as "stop after the
// first FD").
func TestSessionDiscoverRefusesNegativeBounds(t *testing.T) {
	s := evolvefd.NewSession(datasets.Places())
	for _, opts := range []evolvefd.DiscoveryOptions{{MaxLHS: -1}, {MaxResults: -1}, {MaxLHS: 1, MaxResults: -5}} {
		if found, err := s.Discover(opts); !errors.Is(err, evolvefd.ErrBadValue) {
			t.Errorf("Discover(%+v) = %d FDs, %v; want ErrBadValue", opts, len(found), err)
		}
		if found, err := s.DiscoverIncremental(opts); !errors.Is(err, evolvefd.ErrBadValue) {
			t.Errorf("DiscoverIncremental(%+v) = %d FDs, %v; want ErrBadValue", opts, len(found), err)
		}
	}
	if _, err := s.Discover(evolvefd.DiscoveryOptions{}); err != nil {
		t.Fatalf("zero options must still mean the defaults: %v", err)
	}
}

// TestSessionDiscoverIncrementalDifferential drives a session with a random
// DML stream and checks after every batch that the maintained cover equals
// a one-shot Discover over the same instance.
func TestSessionDiscoverIncrementalDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cell := func(card int) string { return string(rune('A' + rng.Intn(card))) }
	// c is a function of a by construction, so the cover never drains
	// completely; a and b churn freely so other FDs flip in and out.
	randRow := func() []string {
		a := cell(3)
		c := "P"
		if a == "B" {
			c = "Q"
		}
		return []string{a, cell(3), c}
	}
	var rows [][]string
	for i := 0; i < 12; i++ {
		rows = append(rows, randRow())
	}
	s := discoverSession(t, rows)
	opts := evolvefd.DiscoveryOptions{MaxLHS: 2}
	live := make([]int, len(rows))
	for i := range live {
		live[i] = i
	}
	for batch := 0; batch < 15; batch++ {
		for op := 0; op <= rng.Intn(3); op++ {
			switch roll := rng.Intn(10); {
			case roll < 4 || len(live) < 2:
				if err := s.AppendStrings(randRow()...); err != nil {
					t.Fatal(err)
				}
				live = append(live, s.Relation().NumRows()-1)
			case roll < 7:
				i := rng.Intn(len(live))
				if err := s.Delete(live[i]); err != nil {
					t.Fatal(err)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			default:
				if err := s.UpdateStrings(live[rng.Intn(len(live))], randRow()...); err != nil {
					t.Fatal(err)
				}
			}
		}
		inc, err := s.DiscoverIncremental(opts)
		if err != nil {
			t.Fatal(err)
		}
		full, err := s.Discover(opts)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(inc) != fmt.Sprint(full) {
			t.Fatalf("batch %d: incremental cover diverged\n inc: %v\nfull: %v", batch, inc, full)
		}
	}
	stats := s.DiscoveryStats()
	if stats.Batches == 0 || stats.WitnessChecks == 0 {
		t.Fatalf("stats not populated: %+v", stats)
	}
	if stats.CoverSize == 0 {
		t.Fatalf("expected a non-empty cover: %+v", stats)
	}
}

// TestSessionSuggestionsFlow walks the discovery→advisor wire end to end:
// a breaking append flags the defined FD for repair, and a restoring delete
// surfaces the re-emerged undefined FD for adoption while suppressing the
// one the designer already has.
func TestSessionSuggestionsFlow(t *testing.T) {
	s := discoverSession(t, [][]string{{"1", "x", "p"}, {"2", "y", "q"}})
	s.MustDefine("F1", "a -> b")

	if _, err := s.DiscoverIncremental(evolvefd.DiscoveryOptions{}); err != nil {
		t.Fatal(err)
	}
	sug, err := s.Suggestions()
	if err != nil {
		t.Fatal(err)
	}
	if len(sug) != 0 {
		t.Fatalf("nothing changed since seeding, got %+v", sug)
	}

	// Row 2 shares a=1 and c=p with row 0 but carries b=z: a→b and c→b break.
	if err := s.AppendStrings("1", "z", "p"); err != nil {
		t.Fatal(err)
	}
	sug, err = s.Suggestions()
	if err != nil {
		t.Fatal(err)
	}
	if len(sug) != 1 || sug[0].Kind != evolvefd.SuggestionBrokenFD || sug[0].Label != "F1" {
		t.Fatalf("breaking append must flag F1 and nothing else, got %+v", sug)
	}

	// Deleting the violating tuple restores both FDs; only the undefined
	// c→b may be offered (a→b is already defined as F1).
	if err := s.Delete(2); err != nil {
		t.Fatal(err)
	}
	sug, err = s.Suggestions()
	if err != nil {
		t.Fatal(err)
	}
	if len(sug) != 1 || sug[0].Kind != evolvefd.SuggestionNewFD {
		t.Fatalf("restoring delete must offer exactly one emerged FD, got %+v", sug)
	}
	if !strings.Contains(sug[0].FD, "[c] -> [b]") {
		t.Fatalf("emerged FD should be c → b, got %+v", sug[0])
	}
	if err := s.Define("D1", sug[0].Spec); err != nil {
		t.Fatalf("emerged Spec does not round-trip: %v", err)
	}
	if m, err := s.Measures("D1"); err != nil || !m.Exact {
		t.Fatalf("adopted emerged FD must be exact: %+v, %v", m, err)
	}

	// The diff is a checkpoint: asking again without changes reports nothing.
	sug, err = s.Suggestions()
	if err != nil {
		t.Fatal(err)
	}
	if len(sug) != 0 {
		t.Fatalf("no change since last call, got %+v", sug)
	}
}

// TestSessionSuggestionsWithoutDiscoverer checks the lazy-seeding path: the
// first Suggestions call on a fresh session establishes the baseline (so it
// reports nothing, even for FDs violated from the start), and subsequent
// mutations diff against it.
func TestSessionSuggestionsWithoutDiscoverer(t *testing.T) {
	s := discoverSession(t, [][]string{{"1", "x", "p"}, {"2", "y", "q"}})
	s.MustDefine("F1", "a -> b") // exact at the baseline
	sug, err := s.Suggestions()
	if err != nil {
		t.Fatal(err)
	}
	if len(sug) != 0 {
		t.Fatalf("the baseline-establishing call reports nothing, got %+v", sug)
	}
	if s.DiscoveryStats().CoverSize == 0 {
		t.Fatal("Suggestions must have seeded a discoverer")
	}
	if err := s.AppendStrings("1", "z", "p"); err != nil {
		t.Fatal(err)
	}
	sug, err = s.Suggestions()
	if err != nil {
		t.Fatal(err)
	}
	broken := false
	for _, g := range sug {
		if g.Kind == evolvefd.SuggestionBrokenFD && g.Label == "F1" {
			broken = true
		}
	}
	if !broken {
		t.Fatalf("F1 broke after the baseline and must be flagged, got %+v", sug)
	}
}

// TestSessionDiscoverIncrementalReseedsOnOptionChange: changing MaxLHS or
// the consequent set rebuilds the discoverer rather than serving a cover
// for the wrong lattice.
func TestSessionDiscoverIncrementalReseedsOnOptionChange(t *testing.T) {
	s := discoverSession(t, [][]string{{"1", "x", "p"}, {"2", "x", "q"}, {"3", "y", "p"}})
	wide, err := s.DiscoverIncremental(evolvefd.DiscoveryOptions{MaxLHS: 2})
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := s.DiscoverIncremental(evolvefd.DiscoveryOptions{MaxLHS: 2, Consequents: []string{"b"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(narrow) >= len(wide) {
		t.Fatalf("consequent restriction must shrink the cover: %d vs %d", len(narrow), len(wide))
	}
	for _, d := range narrow {
		if d.Consequent != "b" {
			t.Fatalf("consequent filter violated after reseed: %+v", d)
		}
	}
	full, err := s.Discover(evolvefd.DiscoveryOptions{MaxLHS: 2, Consequents: []string{"b"}})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(narrow) != fmt.Sprint(full) {
		t.Fatalf("reseeded cover diverged from one-shot discovery\n inc: %v\nfull: %v", narrow, full)
	}
}

// TestSessionDiscoverIncrementalCanonicalOptions: Consequents lists naming
// the same lattice in a different order (or with duplicates) must neither
// reseed the discoverer nor duplicate a column's FDs in the cover.
func TestSessionDiscoverIncrementalCanonicalOptions(t *testing.T) {
	s := discoverSession(t, [][]string{{"1", "x", "p"}, {"2", "x", "q"}, {"3", "y", "p"}})
	base, err := s.DiscoverIncremental(evolvefd.DiscoveryOptions{Consequents: []string{"b", "a"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendStrings("4", "z", "q"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DiscoverIncremental(evolvefd.DiscoveryOptions{Consequents: []string{"b", "a"}}); err != nil {
		t.Fatal(err)
	}
	if got := s.DiscoveryStats().Batches; got != 1 {
		t.Fatalf("expected one processed batch, got %d", got)
	}
	reordered, err := s.DiscoverIncremental(evolvefd.DiscoveryOptions{Consequents: []string{"a", "b", "a"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.DiscoveryStats().Batches; got != 1 {
		t.Fatalf("reordered/duplicated Consequents reseeded the discoverer (batches %d)", got)
	}
	dup, err := s.Discover(evolvefd.DiscoveryOptions{Consequents: []string{"a", "a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(reordered) != fmt.Sprint(dup) {
		t.Fatalf("canonicalisation mismatch\n inc: %v\nfull: %v", reordered, dup)
	}
	seen := map[string]bool{}
	for _, d := range dup {
		if seen[d.FD] {
			t.Fatalf("duplicate consequent produced duplicate FD %q", d.FD)
		}
		seen[d.FD] = true
	}
	_ = base

	// An explicitly empty restriction means zero consequents, not "all".
	none, err := s.Discover(evolvefd.DiscoveryOptions{Consequents: []string{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Fatalf("empty Consequents restriction must discover nothing, got %v", none)
	}
	noneInc, err := s.DiscoverIncremental(evolvefd.DiscoveryOptions{Consequents: []string{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(noneInc) != 0 {
		t.Fatalf("empty Consequents restriction must maintain an empty cover, got %v", noneInc)
	}
}
