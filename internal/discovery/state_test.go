package discovery

import (
	"reflect"
	"testing"

	"github.com/evolvefd/evolvefd/internal/pli"
)

// TestRestoreDiscovererRejects is the table of snapshots RestoreDiscoverer
// must refuse: every one describes a different lattice or a different
// instance than the one it is restored onto. On this instance (n carries a
// NULL, so the lattice is a, b, c) the cover is {b,c} → a and a → b, and the
// border of c holds {a,b} with witness rows (0,1).
func TestRestoreDiscovererRejects(t *testing.T) {
	r := buildRelation(t, []string{"a", "b", "c", "n"}, [][]string{
		{"1", "x", "p", "u"}, {"1", "x", "q", "v"}, {"2", "y", "p", ""}, {"3", "y", "q", "w"},
	})
	counter := pli.NewIncrementalCounter(r)
	opts := Options{MaxLHS: 2}
	d := NewIncrementalDiscoverer(counter, opts)

	restored, err := RestoreDiscoverer(counter, opts, d.ExportBorders())
	if err != nil {
		t.Fatalf("own snapshot rejected: %v", err)
	}
	if !reflect.DeepEqual(restored.ExportBorders(), d.ExportBorders()) {
		t.Fatalf("round trip changed the borders:\n got %+v\nwant %+v", restored.ExportBorders(), d.ExportBorders())
	}
	assertCoversEqual(t, "restored", r, restored, opts)

	state := func(snap *BorderSnapshot, y int) *ConsequentSnapshot {
		for i := range snap.States {
			if snap.States[i].Y == y {
				return &snap.States[i]
			}
		}
		t.Fatalf("no state for consequent %d in %+v", y, snap)
		return nil
	}
	for _, tc := range []struct {
		name   string
		opts   Options
		mutate func(*BorderSnapshot)
	}{
		{"other MaxLHS", opts, func(s *BorderSnapshot) { s.MaxLHS = 3 }},
		{"other eligible columns", opts, func(s *BorderSnapshot) { s.Eligible = []int{0, 1} }},
		{"cover-bearing consequent missing", opts, func(s *BorderSnapshot) {
			s.States = append(s.States[:1], s.States[2:]...) // drops b, whose cover is a → b
		}},
		{"consequent repeated", opts, func(s *BorderSnapshot) { s.States = append(s.States, s.States[0]) }},
		{"consequent outside the lattice", opts, func(s *BorderSnapshot) {
			s.States = append(s.States, ConsequentSnapshot{Y: 3})
		}},
		{"consequents reordered", opts, func(s *BorderSnapshot) { s.States[0], s.States[1] = s.States[1], s.States[0] }},
		{"consequent outside the options", Options{MaxLHS: 2, Consequents: []int{1}}, func(*BorderSnapshot) {}},
		{"empty antecedent", opts, func(s *BorderSnapshot) { state(s, 1).Valid[0] = []int{} }},
		{"antecedent over the bound", opts, func(s *BorderSnapshot) { state(s, 1).Valid[0] = []int{0, 2, 3} }},
		{"antecedent unsorted", opts, func(s *BorderSnapshot) { state(s, 0).Valid[0] = []int{2, 1} }},
		{"antecedent repeats a column", opts, func(s *BorderSnapshot) { state(s, 0).Valid[0] = []int{1, 1} }},
		{"antecedent names the consequent", opts, func(s *BorderSnapshot) { state(s, 1).Valid[0] = []int{1} }},
		{"antecedent names a NULL column", opts, func(s *BorderSnapshot) { state(s, 1).Valid[0] = []int{3} }},
		{"antecedent names no column", opts, func(s *BorderSnapshot) { state(s, 1).Valid[0] = []int{-1} }},
		{"cover FD does not hold", opts, func(s *BorderSnapshot) { state(s, 2).Valid = [][]int{{0}} }},
		{"border antecedent names the consequent", opts, func(s *BorderSnapshot) { state(s, 2).Invalid[0].X = []int{0, 2} }},
		{"witness out of range", opts, func(s *BorderSnapshot) { state(s, 2).Invalid[0].W2 = 99 }},
		{"witness pairs a row with itself", opts, func(s *BorderSnapshot) { w := &state(s, 2).Invalid[0]; w.W2 = w.W1 }},
		{"witness does not violate", opts, func(s *BorderSnapshot) { state(s, 2).Invalid[0].W2 = 2 }},
	} {
		snap := d.ExportBorders()
		tc.mutate(snap)
		if _, err := RestoreDiscoverer(counter, tc.opts, snap); err == nil {
			t.Errorf("%s: restore accepted %+v", tc.name, snap)
		}
	}
}
