package discovery

import (
	"math/rand"
	"testing"

	"github.com/evolvefd/evolvefd/internal/bitset"
	"github.com/evolvefd/evolvefd/internal/core"
	"github.com/evolvefd/evolvefd/internal/datasets"
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

func TestMinimalFDsSimple(t *testing.T) {
	// a determines b (copy); nothing else holds at size 1.
	r := buildRelation(t, []string{"a", "b", "c"}, [][]string{
		{"1", "x", "p"}, {"1", "x", "q"}, {"2", "y", "p"}, {"3", "y", "q"},
	})
	fds, stats := MinimalFDs(pli.NewPLICounter(r), Options{MaxLHS: 1})
	if stats.Checked == 0 {
		t.Fatal("no checks performed")
	}
	found := map[string]bool{}
	for _, fd := range fds {
		found[fd.String()] = true
	}
	if !found[core.MustFD("", bitset.New(0), bitset.New(1)).String()] {
		t.Fatalf("a→b not discovered: %v", fds)
	}
	for _, fd := range fds {
		if fd.X.Equal(bitset.New(1)) && fd.Y.Equal(bitset.New(0)) {
			t.Fatal("b→a must not be discovered (b=y maps to a=2 and a=3)")
		}
	}
}

func TestMinimalFDsMinimality(t *testing.T) {
	// {a,b} → c exact by construction, no single attribute suffices, and no
	// superset should be reported.
	r := datasets.Synthesize("t", 300, 5, []datasets.ColumnSpec{
		{Name: "a", Card: 4, Salt: 1},
		{Name: "b", Card: 4, Salt: 2},
		{Name: "c", Card: 6, DerivedFrom: []int{0, 1}, Salt: 3},
		{Name: "d", Card: 3, Salt: 4},
	})
	counter := pli.NewPLICounter(r)
	fds, _ := MinimalFDs(counter, Options{MaxLHS: 3})
	sawAB := false
	for _, fd := range fds {
		if !fd.Y.Equal(bitset.New(2)) {
			continue
		}
		if fd.X.Equal(bitset.New(0, 1)) {
			sawAB = true
		}
		if bitset.New(0, 1).ProperSubsetOf(fd.X) {
			t.Fatalf("non-minimal FD reported: %v", fd)
		}
	}
	if !sawAB {
		t.Fatal("{a,b}→c not discovered")
	}
	// Every reported FD must actually hold, and removing any antecedent
	// attribute must break it (true minimality).
	for _, fd := range fds {
		if !r.SatisfiesFD(fd.X, fd.Y) {
			t.Fatalf("discovered FD does not hold: %v", fd)
		}
		fd.X.ForEach(func(a int) bool {
			if r.SatisfiesFD(fd.X.Without(a), fd.Y) {
				t.Fatalf("FD %v not minimal: dropping %d still holds", fd, a)
			}
			return true
		})
	}
}

func TestMinimalFDsSkipsNullColumns(t *testing.T) {
	r := buildRelation(t, []string{"a", "n"}, [][]string{
		{"1", "x"}, {"2", ""},
	})
	fds, _ := MinimalFDs(pli.NewPLICounter(r), Options{MaxLHS: 2})
	for _, fd := range fds {
		if fd.Attrs().Contains(1) {
			t.Fatalf("NULL column appeared in %v", fd)
		}
	}
}

func TestMinimalFDsConsequentFilterAndMaxResults(t *testing.T) {
	r := datasets.Places()
	counter := pli.NewPLICounter(r)
	area := r.Schema().Index("AreaCode")
	fds, _ := MinimalFDs(counter, Options{MaxLHS: 1, Consequents: []int{area}})
	for _, fd := range fds {
		if !fd.Y.Equal(bitset.New(area)) {
			t.Fatalf("consequent filter violated: %v", fd)
		}
	}
	// Municipal → AreaCode is exact on Places (Table 1).
	municipal := r.Schema().Index("Municipal")
	found := false
	for _, fd := range fds {
		if fd.X.Equal(bitset.New(municipal)) {
			found = true
		}
	}
	if !found {
		t.Fatal("Municipal→AreaCode not discovered")
	}

	capped, _ := MinimalFDs(counter, Options{MaxLHS: 2, MaxResults: 3})
	if len(capped) > 3 {
		t.Fatalf("MaxResults ignored: %d", len(capped))
	}
	// Out-of-range consequents are ignored silently.
	none, _ := MinimalFDs(counter, Options{Consequents: []int{-1, 99}})
	if len(none) != 0 {
		t.Fatalf("bogus consequents produced FDs: %v", none)
	}
}

// TestQuickDiscoveryMatchesBruteForce cross-checks discovery against
// exhaustive enumeration of minimal FDs on random relations.
func TestQuickDiscoveryMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for iter := 0; iter < 40; iter++ {
		rows := make([][]string, 2+rng.Intn(15))
		for i := range rows {
			rows[i] = []string{
				string(rune('A' + rng.Intn(3))),
				string(rune('A' + rng.Intn(3))),
				string(rune('A' + rng.Intn(2))),
				string(rune('A' + rng.Intn(3))),
			}
		}
		r := buildRelation(t, []string{"a", "b", "c", "d"}, rows)
		got, _ := MinimalFDs(pli.NewPLICounter(r), Options{MaxLHS: 3})
		want := bruteForceMinimalFDs(r, 3)
		if len(got) != len(want) {
			t.Fatalf("iter %d: %d FDs, brute force %d\n got: %v\nwant: %v",
				iter, len(got), len(want), got, want)
		}
		for i := range got {
			if !got[i].X.Equal(want[i].X) || !got[i].Y.Equal(want[i].Y) {
				t.Fatalf("iter %d: FD %d: %v vs %v", iter, i, got[i], want[i])
			}
		}
	}
}

func bruteForceMinimalFDs(r *relation.Relation, maxLHS int) []core.FD {
	var out []core.FD
	n := r.NumCols()
	for y := 0; y < n; y++ {
		ySet := bitset.New(y)
		var minimal []bitset.Set
		for size := 1; size <= maxLHS; size++ {
			for mask := 0; mask < 1<<n; mask++ {
				var x bitset.Set
				for c := 0; c < n; c++ {
					if mask&(1<<c) != 0 {
						x.Add(c)
					}
				}
				if x.Len() != size || x.Contains(y) {
					continue
				}
				dominated := false
				for _, m := range minimal {
					if m.SubsetOf(x) {
						dominated = true
						break
					}
				}
				if dominated || !r.SatisfiesFD(x, ySet) {
					continue
				}
				minimal = append(minimal, x)
				out = append(out, core.MustFD("", x, ySet))
			}
		}
	}
	sortFDs(out)
	return out
}

func TestExtensionsOf(t *testing.T) {
	r := datasets.Places()
	counter := pli.NewPLICounter(r)
	designer, err := core.ParseFD(r.Schema(), "F1", "District, Region -> AreaCode")
	if err != nil {
		t.Fatal(err)
	}
	area := r.Schema().Index("AreaCode")
	discovered, _ := MinimalFDs(counter, Options{MaxLHS: 3, Consequents: []int{area}})
	ext := ExtensionsOf(discovered, designer)
	// §2's criticism holds on Places: the minimal FDs determining AreaCode
	// (e.g. Municipal→AreaCode, PhNo→AreaCode) are NOT extensions of
	// F1's antecedent {District, Region} — discovery alone would not hand
	// the designer an evolution of F1.
	if len(ext) != 0 {
		t.Fatalf("expected no discovered extension of F1, got %v", ext)
	}
	// Sanity: the filter does accept genuine extensions.
	fake := []core.FD{designer.WithExtendedAntecedent(bitset.New(r.Schema().Index("Municipal")))}
	if got := ExtensionsOf(fake, designer); len(got) != 1 {
		t.Fatalf("genuine extension not recognised: %v", got)
	}
}

func TestForEachSubsetEdges(t *testing.T) {
	var seen [][]int
	forEachSubset([]int{1, 2, 3}, 2, func(attrs []int) bool {
		cp := append([]int(nil), attrs...)
		seen = append(seen, cp)
		return true
	})
	if len(seen) != 3 {
		t.Fatalf("2-subsets of 3 = %d, want 3", len(seen))
	}
	forEachSubset([]int{1}, 2, func([]int) bool {
		t.Fatal("k > n must enumerate nothing")
		return true
	})
	forEachSubset([]int{1, 2}, 0, func([]int) bool {
		t.Fatal("k = 0 must enumerate nothing")
		return true
	})
	// Early stop.
	count := 0
	forEachSubset([]int{1, 2, 3, 4}, 1, func([]int) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early stop failed: %d", count)
	}
}

// TestQuickWitnessMatchesCounts pins the one validity kernel against
// counting: on random relations carrying deletes and updates, for every X
// with |X| ≤ 2 and every A ∉ X, witness reports "holds" exactly when
// HashCounter gives |π_X| = |π_XA|, and any pair it returns is two live rows
// that agree on X and differ on A. Partitions come both from a PLICounter
// and from an IncrementalCounter's tracked cluster maps.
func TestQuickWitnessMatchesCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	cards := []int{3, 3, 2, 4}
	randCells := func() []string {
		cells := make([]string, len(cards))
		for i, card := range cards {
			cells[i] = string(rune('A' + rng.Intn(card)))
		}
		return cells
	}
	all := []int{0, 1, 2, 3}
	for iter := 0; iter < 30; iter++ {
		rows := make([][]string, 4+rng.Intn(20))
		for i := range rows {
			rows[i] = randCells()
		}
		r := buildRelation(t, []string{"a", "b", "c", "d"}, rows)
		inc := pli.NewIncrementalCounter(r)
		var sets []bitset.Set
		for size := 1; size <= 2; size++ {
			forEachSubset(all, size, func(attrs []int) bool {
				sets = append(sets, bitset.New(attrs...))
				return true
			})
		}
		inc.TrackBatch(sets)
		for op := 0; op < 6; op++ {
			row := rng.Intn(r.NumRows())
			if r.IsDeleted(row) {
				continue
			}
			var err error
			if rng.Intn(2) == 0 {
				err = inc.Delete(row)
			} else {
				err = inc.UpdateStrings(row, randCells()...)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		hash, plic := pli.NewHashCounter(r), pli.NewPLICounter(r)
		for _, x := range sets {
			for _, a := range all {
				if x.Contains(a) {
					continue
				}
				holds := hash.Count(x) == hash.Count(x.With(a))
				codes := r.ColumnCodes(a)
				for name, p := range map[string]*pli.Partition{"pli": plic.Partition(x), "tracked": inc.Partition(x)} {
					w1, w2 := witness(p, codes)
					if (w1 < 0) != holds {
						t.Fatalf("iter %d %s: witness(%v -> %d) = (%d,%d), counts say holds=%v", iter, name, x, a, w1, w2, holds)
					}
					if w1 < 0 {
						continue
					}
					agree := true
					for _, c := range x.Members() {
						agree = agree && r.ColumnCodes(c)[w1] == r.ColumnCodes(c)[w2]
					}
					if r.IsDeleted(w1) || r.IsDeleted(w2) || !agree || codes[w1] == codes[w2] {
						t.Fatalf("iter %d %s: (%d,%d) is no violating pair of %v -> %d", iter, name, w1, w2, x, a)
					}
				}
			}
		}
	}
}
