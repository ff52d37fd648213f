package evolvefd_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	evolvefd "github.com/evolvefd/evolvefd"
	"github.com/evolvefd/evolvefd/internal/datasets"
)

func TestSessionAppendBasics(t *testing.T) {
	s := placesSession(t)
	before := s.Relation().NumRows()
	if err := s.AppendStrings(
		"Milan", "Lombardy", "Brera", "Via Verdi", "02", "5551234", "20121", "IT", "North",
	); err != nil {
		t.Fatal(err)
	}
	if got := s.Relation().NumRows(); got != before+1 {
		t.Fatalf("rows after append = %d, want %d", got, before+1)
	}
	if err := s.AppendStrings("too", "few"); err == nil {
		t.Fatal("arity mismatch must error")
	}
	if err := s.Append(); err == nil {
		t.Fatal("empty tuple must error")
	}
}

// TestSessionAppendMatchesFreshSession is the facade-level differential
// test: after any sequence of appends, Check and Measures through the
// incremental session must equal a fresh session built over the same final
// data.
func TestSessionAppendMatchesFreshSession(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	s := placesSession(t)
	// Interleave appends and checks; random rows reuse a small value pool so
	// some appends change no projection of some FDs.
	pool := []string{"a", "b", "c"}
	for round := 0; round < 6; round++ {
		for i := 0; i < 1+rng.Intn(3); i++ {
			cells := make([]string, s.Relation().NumCols())
			for c := range cells {
				cells[c] = pool[rng.Intn(len(pool))] + fmt.Sprint(rng.Intn(3))
			}
			if err := s.AppendStrings(cells...); err != nil {
				t.Fatal(err)
			}
		}
		fresh := evolvefd.NewSession(s.Relation().Clone("fresh"))
		for _, label := range s.Labels() {
			text, err := s.FDText(label)
			if err != nil {
				t.Fatal(err)
			}
			spec := text[strings.Index(text, ":")+1:]
			if err := fresh.Define(label, spec); err != nil {
				t.Fatal(err)
			}
		}
		gotV, wantV := s.Check(), fresh.Check()
		if len(gotV) != len(wantV) {
			t.Fatalf("round %d: %d violations incrementally, %d fresh", round, len(gotV), len(wantV))
		}
		for i := range gotV {
			if gotV[i] != wantV[i] {
				t.Fatalf("round %d violation %d:\nincremental %+v\nfresh       %+v",
					round, i, gotV[i], wantV[i])
			}
		}
		for _, label := range s.Labels() {
			got, err := s.Measures(label)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Measures(label)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("round %d %s: incremental %+v, fresh %+v", round, label, got, want)
			}
		}
	}
}

func TestSessionAppendReusesUnchangedMeasures(t *testing.T) {
	s := placesSession(t)
	s.Check()
	_, cold := s.CacheStats()
	if cold == 0 {
		t.Fatal("first Check must compute measures")
	}
	// Re-checking an unchanged instance must be pure cache hits.
	s.Check()
	reused, recomputed := s.CacheStats()
	if recomputed != cold {
		t.Fatalf("unchanged re-check recomputed %d measures", recomputed-cold)
	}
	if reused == 0 {
		t.Fatal("unchanged re-check must reuse cached measures")
	}
	// Appending an exact duplicate of row 0 creates no new cluster anywhere:
	// every FD must be served from cache again.
	row := s.Relation().Row(0)
	if err := s.Append(row...); err != nil {
		t.Fatal(err)
	}
	s.Check()
	_, after := s.CacheStats()
	if after != cold {
		t.Fatalf("duplicate append recomputed %d measures, want 0", after-cold)
	}
	gen := s.Generation()
	if gen < 2 {
		t.Fatalf("generation = %d, want ≥ 2 after an append batch", gen)
	}
}

func TestSessionAppendRepairStillWorks(t *testing.T) {
	// Repair goes through the embedded partition cache; it must see appended rows.
	s := evolvefd.NewSession(datasets.Places())
	s.MustDefine("F1", datasets.PlacesFDs()["F1"])
	if err := s.AppendStrings(
		"Segrate", "Lombardy", "MI", "Via Nuova", "02", "5559999", "20090", "IT", "North",
	); err != nil {
		t.Fatal(err)
	}
	suggestions, err := s.Repair("F1", evolvefd.Options{FirstOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(suggestions) == 0 {
		t.Fatal("no repair found after append")
	}
	if !suggestions[0].Measures.Exact {
		t.Fatal("repair must be exact on the grown instance")
	}
	if err := s.Accept("F1", suggestions[0]); err != nil {
		t.Fatal(err)
	}
	m, err := s.Measures("F1")
	if err != nil || !m.Exact {
		t.Fatalf("accepted repair not exact on grown instance: %+v %v", m, err)
	}
}
