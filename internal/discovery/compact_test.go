package discovery

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/evolvefd/evolvefd/internal/pli"
)

// TestDiscovererOnCompactRemapsWitnesses proves the remap path: after a
// Sync + Compact + OnCompact round trip the maintained cover still equals a
// fresh discovery, no reseed happened, and the stamp-preserving compaction
// kept revalidation free (no new probes beyond the witness bookkeeping).
func TestDiscovererOnCompactRemapsWitnesses(t *testing.T) {
	cols := []string{"a", "b", "c"}
	opts := Options{MaxLHS: 2}
	r := buildRelation(t, cols, [][]string{
		{"A", "1", "x"}, {"A", "1", "x"}, {"A", "2", "x"},
		{"B", "1", "y"}, {"B", "2", "y"}, {"C", "3", "z"},
	})
	counter := pli.NewIncrementalCounter(r)
	d := NewIncrementalDiscoverer(counter, opts)
	assertCoversEqual(t, "seed", r, d, opts)
	if d.Stats().BorderSize == 0 {
		t.Fatal("test instance must leave a non-empty invalid border")
	}

	// Delete a duplicate row (no count changes) and compact through the
	// counter, then remap the witnesses.
	if err := counter.Delete(1); err != nil {
		t.Fatal(err)
	}
	d.Sync()
	probes := d.Stats().Probes
	m := counter.Compact()
	if m == nil {
		t.Fatal("Compact returned nil with a tombstone present")
	}
	d.OnCompact(m)
	assertCoversEqual(t, "after compaction", r, d, opts)
	st := d.Stats()
	if st.Reseeds != 0 {
		t.Fatalf("remap path reseeded %d times, want 0", st.Reseeds)
	}
	// Cover revalidation after the compaction is stamp-based: the Cover call
	// inside the differential may probe only around witness churn from the
	// delete itself, not re-enumerate the lattice (seeding probed every node
	// once; a reseed would at least double it).
	if st.Probes > probes+d.Stats().BorderSize {
		t.Fatalf("compaction triggered %d fresh probes, want ≤ border size %d",
			st.Probes-probes, d.Stats().BorderSize)
	}

	// Witnesses must now carry new-epoch row ids: every further batch relies
	// on them, so stream more DML and re-compare.
	if err := r.AppendStrings("C", "3", "w"); err != nil {
		t.Fatal(err)
	}
	assertCoversEqual(t, "append after compaction", r, d, opts)
	if err := counter.Delete(0); err != nil {
		t.Fatal(err)
	}
	assertCoversEqual(t, "delete after compaction", r, d, opts)
}

// TestDiscovererOutOfBandCompactionReseeds: compacting the relation without
// OnCompact invalidates every stored witness row id; the discoverer must
// detect the epoch change and fall back to a full reseed instead of reading
// remapped rows through stale ids.
func TestDiscovererOutOfBandCompactionReseeds(t *testing.T) {
	cols := []string{"a", "b", "c"}
	opts := Options{MaxLHS: 2}
	r := buildRelation(t, cols, [][]string{
		{"A", "1", "x"}, {"A", "1", "x"}, {"A", "2", "x"},
		{"B", "1", "y"}, {"B", "2", "y"},
	})
	counter := pli.NewIncrementalCounter(r)
	d := NewIncrementalDiscoverer(counter, opts)
	if err := counter.Delete(2); err != nil {
		t.Fatal(err)
	}
	if r.Compact() == nil { // bypasses both counter and discoverer
		t.Fatal("relation.Compact returned nil")
	}
	assertCoversEqual(t, "after out-of-band compaction", r, d, opts)
	if got := d.Stats().Reseeds; got != 1 {
		t.Fatalf("Reseeds = %d, want 1", got)
	}
}

// TestDiscovererCompactionStreamDifferential fuzzes the full loop: random
// mixed DML with periodic Sync+Compact+OnCompact crossings, cover checked
// against fresh discovery after every batch, reseeds forbidden.
func TestDiscovererCompactionStreamDifferential(t *testing.T) {
	cards := []int{3, 3, 2, 4}
	cols := []string{"a", "b", "c", "d"}
	opts := Options{MaxLHS: 3}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(500 + seed))
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

		liveRows := func() []int {
			var out []int
			for row := 0; row < r.NumRows(); row++ {
				if !r.IsDeleted(row) {
					out = append(out, row)
				}
			}
			return out
		}
		compactions := 0
		for batch := 0; batch < 15; batch++ {
			for op := 0; op < 5; op++ {
				live := liveRows()
				switch roll := rng.Intn(3); {
				case roll == 0 || len(live) < 3:
					if err := r.AppendStrings(randCells()...); err != nil {
						t.Fatal(err)
					}
				case roll == 1:
					if err := counter.Delete(live[rng.Intn(len(live))]); err != nil {
						t.Fatal(err)
					}
				default:
					if err := counter.UpdateStrings(live[rng.Intn(len(live))], randCells()...); err != nil {
						t.Fatal(err)
					}
				}
			}
			if batch%4 == 3 {
				d.Sync()
				if m := counter.Compact(); m != nil {
					d.OnCompact(m)
					compactions++
				}
			}
			assertCoversEqual(t, fmt.Sprintf("seed %d batch %d", seed, batch), r, d, opts)
		}
		if compactions == 0 {
			t.Fatalf("seed %d: stream never compacted", seed)
		}
		if got := d.Stats().Reseeds; got != 0 {
			t.Fatalf("seed %d: %d reseeds on the remap path, want 0", seed, got)
		}
	}
}
