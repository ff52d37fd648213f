package pli

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// tableKey is the reference model's key for a code tuple.
func tableKey(tuple []int32) string {
	b := make([]byte, 0, 4*len(tuple))
	for _, v := range tuple {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return string(b)
}

// longestProbe is the largest distance, in slots, between a stored cluster's
// home slot and the slot that holds it.
func longestProbe(t *clusterTable) int {
	mask := len(t.slots) - 1
	worst := 0
	for i, s := range t.slots {
		if s == 0 {
			continue
		}
		id := int(s - 1)
		home := int(t.hash(t.keys[id*t.w:(id+1)*t.w])) & mask
		worst = max(worst, (i-home)&mask)
	}
	return worst
}

// checkTable asserts that the table and the reference model hold the same
// tuple → id entries, and that every stored tuple sits at its own id.
func checkTable(t *testing.T, label string, tab *clusterTable, model map[string]int32) {
	t.Helper()
	if tab.n != len(model) || len(tab.keys) != tab.n*tab.w {
		t.Fatalf("%s: table holds %d clusters (%d codes), model %d", label, tab.n, len(tab.keys), len(model))
	}
	if 2*tab.n > len(tab.slots) {
		t.Fatalf("%s: %d clusters in %d slots, more than half full", label, tab.n, len(tab.slots))
	}
	for id := 0; id < tab.n; id++ {
		tuple := tab.keys[id*tab.w : (id+1)*tab.w]
		if want, ok := model[tableKey(tuple)]; !ok || want != int32(id) {
			t.Fatalf("%s: cluster %d holds %v, model says id %d (present %v)", label, id, tuple, want, ok)
		}
		if got := tab.get(tuple); got != int32(id) {
			t.Fatalf("%s: get(%v) = %d, want %d", label, tuple, got, id)
		}
	}
}

// TestClusterTableMatchesMap drives random add/get/renumber sequences at
// widths 0–4 against a map[string]int32 reference across several resizes,
// then loads the sequential code pairs a dictionary hands out and bounds the
// longest probe chain.
func TestClusterTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for w := 0; w <= 4; w++ {
		tab := newClusterTable(w, 0)
		model := map[string]int32{}
		tuple := make([]int32, w)
		for round := 0; round < 6; round++ {
			domain := int32(2 + 3*round)
			for op := 0; op < 3000; op++ {
				for i := range tuple {
					tuple[i] = rng.Int31n(domain) - 1 // −1 is the NULL code
				}
				want, present := model[tableKey(tuple)]
				if rng.Intn(3) == 0 {
					if got := tab.get(tuple); present && got != want || !present && got != -1 {
						t.Fatalf("w=%d: get(%v) = %d, model (%d, %v)", w, tuple, got, want, present)
					}
					continue
				}
				id, fresh := tab.add(tuple)
				if fresh == present || present && id != want || !present && id != int32(len(model)) {
					t.Fatalf("w=%d: add(%v) = (%d, %v), model (%d, %v) with %d clusters",
						w, tuple, id, fresh, want, present, len(model))
				}
				model[tableKey(tuple)] = id
			}
			checkTable(t, "after adds", &tab, model)
			// Drop a random half of the clusters, keeping the survivors in
			// id order as maybeCompact does.
			remap := make([]int32, tab.n)
			kept := int32(0)
			for id := range remap {
				if rng.Intn(2) == 0 {
					remap[id] = -1
					continue
				}
				remap[id] = kept
				kept++
			}
			next := map[string]int32{}
			for k, id := range model {
				if remap[id] >= 0 {
					next[k] = remap[id]
				}
			}
			tab.renumber(remap)
			model = next
			checkTable(t, "after renumber", &tab, model)
		}
	}
	// Dictionaries number values 0, 1, 2, …, so real tuples are dense runs
	// of small codes: one column's codes in a row, or a grid of pairs. At
	// this load a random hash's longest linear-probing chain averages ≈15
	// slots; a hash that maps runs onto runs averages twice that.
	for w, tupleOf := range map[int]func(i, j int32) []int32{
		1: func(i, j int32) []int32 { return []int32{300*i + j} },
		2: func(i, j int32) []int32 { return []int32{i, j} },
	} {
		const seeds = 10
		total := 0
		for range seeds {
			tab := newClusterTable(w, 0)
			for i := int32(0); i < 300; i++ {
				for j := int32(0); j < 300; j++ {
					tab.add(tupleOf(i, j))
				}
			}
			if tab.n != 300*300 {
				t.Fatalf("w=%d: %d clusters, want %d", w, tab.n, 300*300)
			}
			worst := longestProbe(&tab)
			if worst > 64 {
				t.Fatalf("w=%d: longest probe chain %d slots over %d sequential tuples in %d slots",
					w, worst, tab.n, len(tab.slots))
			}
			total += worst
		}
		if mean := total / seeds; mean > 22 {
			t.Fatalf("w=%d: longest probe chain averages %d slots over %d seeds", w, mean, seeds)
		}
	}
}
