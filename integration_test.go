package evolvefd_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	evolvefd "github.com/evolvefd/evolvefd"
	"github.com/evolvefd/evolvefd/internal/core"
	"github.com/evolvefd/evolvefd/internal/datasets"
	"github.com/evolvefd/evolvefd/internal/pli"
	"github.com/evolvefd/evolvefd/internal/query"
	"github.com/evolvefd/evolvefd/internal/relation"
	"github.com/evolvefd/evolvefd/internal/tpch"
)

// TestEndToEndCSVWorkflow walks the full designer pipeline across module
// boundaries: generate → persist to CSV → reload → detect → repair →
// accept → persist the evolved state, verifying consistency at each step.
func TestEndToEndCSVWorkflow(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "places.csv")
	if err := datasets.Places().WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}

	rel, err := evolvefd.OpenCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	s := evolvefd.NewSession(rel)
	s.MustDefine("F1", "District, Region -> AreaCode")
	s.MustDefine("F2", "Zip -> City, State")

	violations := s.Check()
	if len(violations) != 2 {
		t.Fatalf("violations = %d, want 2", len(violations))
	}
	for _, v := range violations {
		sugg, err := s.Repair(v.Label, evolvefd.Options{FirstOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(sugg) == 0 {
			t.Fatalf("%s should be repairable", v.Label)
		}
		if err := s.Accept(v.Label, sugg[0]); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Consistent() {
		t.Fatal("session must be consistent after accepting repairs")
	}

	// The evolved FDs must hold on a fresh reload too (no hidden session
	// state).
	rel2, err := evolvefd.OpenCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	s2 := evolvefd.NewSession(rel2)
	for _, label := range s.Labels() {
		text, err := s.FDText(label)
		if err != nil {
			t.Fatal(err)
		}
		spec := strings.SplitN(text, ": ", 2)[1]
		if err := s2.Define(label, spec); err != nil {
			t.Fatalf("re-defining %q: %v", spec, err)
		}
		m, err := s2.Measures(label)
		if err != nil {
			t.Fatal(err)
		}
		if !m.Exact {
			t.Fatalf("%s (%s) must be exact on reload", label, spec)
		}
	}
}

// TestEndToEndSQLAgainstRepairs cross-checks the repair engine against the
// SQL engine: for every repair the library proposes, the paper's Q1/Q2
// query pair must return equal counts.
func TestEndToEndSQLAgainstRepairs(t *testing.T) {
	rel := datasets.Places()
	db := relation.NewDatabase("places")
	db.Put(rel)
	counter := pli.NewPLICounter(rel)
	fd, err := core.ParseFD(rel.Schema(), "F1", "District, Region -> AreaCode")
	if err != nil {
		t.Fatal(err)
	}
	res := core.FindRepairs(counter, fd, core.RepairOptions{})
	if len(res.Repairs) == 0 {
		t.Fatal("no repairs found")
	}
	for _, rep := range res.Repairs {
		xNames := quoteAll(rel.Schema().NameSet(rep.FD.X))
		xyNames := quoteAll(rel.Schema().NameSet(rep.FD.Attrs()))
		q1 := "SELECT COUNT(DISTINCT " + strings.Join(xNames, ", ") + ") FROM places"
		q2 := "SELECT COUNT(DISTINCT " + strings.Join(xyNames, ", ") + ") FROM places"
		r1, err := query.Run(db, q1)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := query.Run(db, q2)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Rows[0][0] != r2.Rows[0][0] {
			t.Fatalf("repair %v not confirmed by SQL: %v vs %v",
				rep.Added, r1.Rows[0][0], r2.Rows[0][0])
		}
	}
}

func quoteAll(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = "`" + n + "`"
	}
	return out
}

// TestCounterAgreementOnRepairs runs the repair search under the PLI, hash,
// sort and incremental counters (the last is the one every Session, and so
// fdrepair, searches with), on Places and on a copy mutated by deletes and
// in-place updates, with find-first and find-all under both objectives. The
// four counters must return identical repairs and measures, and every repair
// must be exact by HashCounter's recount: |π_XU| = |π_XUA|. The mutated
// copy loses the last occurrence of several values, so SortCounter must
// skip tombstones and HashCounter must not trust dictionary sizes.
func TestCounterAgreementOnRepairs(t *testing.T) {
	mutated := datasets.Places().Clone("places")
	if err := mutated.Delete(0, 7); err != nil { // t8 holds the only Chester, Tower and 555-1234
		t.Fatal(err)
	}
	if err := mutated.UpdateStrings(10, "Alexandria", "Moore Park", "QueenAnne", "517",
		"888-5152", "Main", "60601", "Chicago", "IL"); err != nil { // drops the only Bay
		t.Fatal(err)
	}
	if err := mutated.UpdateStrings(5, "Alexandria", "Moore Park", "NapaHill", "415",
		"777-0000", "Napa", "60415", "Chicago", "IL"); err != nil {
		t.Fatal(err)
	}
	if !mutated.Mutated() || mutated.LiveRows() != 9 {
		t.Fatalf("mutated copy: Mutated=%v, %d live rows", mutated.Mutated(), mutated.LiveRows())
	}
	specs := []string{datasets.PlacesFDs()["F1"], datasets.PlacesFDs()["F2"],
		datasets.PlacesFDs()["F3"], datasets.PlacesF4()}

	for _, rel := range []*relation.Relation{datasets.Places(), mutated} {
		hash := pli.NewHashCounter(rel)
		counters := []struct {
			name string
			c    pli.Counter
		}{
			{"pli", pli.NewPLICounter(rel)},
			{"hash", hash},
			{"sort", pli.NewSortCounter(rel)},
			{"incremental", pli.NewIncrementalCounter(rel)},
		}
		found := 0
		for _, spec := range specs {
			parsed, err := core.ParseFD(rel.Schema(), "F", spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, fd := range parsed.Decompose() {
				for _, opts := range []core.RepairOptions{
					{FirstOnly: true},
					{},
					{FirstOnly: true, Objective: core.ObjectiveBalanced},
					{Objective: core.ObjectiveBalanced},
				} {
					name := fmt.Sprintf("%d rows/%s/first=%v/objective=%d",
						rel.LiveRows(), fd.FormatWith(rel.Schema()), opts.FirstOnly, opts.Objective)
					var want string
					for _, entry := range counters {
						res := core.FindRepairs(entry.c, fd, opts)
						got := fmt.Sprintf("initial %v\n", res.Initial)
						for _, rep := range res.Repairs {
							got += fmt.Sprintf("+%v %v %v\n", rep.Added, rep.FD, rep.Measures)
							if x, xa := hash.Count(rep.FD.X), hash.Count(rep.FD.Attrs()); x != xa {
								t.Errorf("%s: %s repair %v is not exact: |π_XU| = %d, |π_XUA| = %d",
									name, entry.name, rep.Added, x, xa)
							}
						}
						if entry.name == "pli" {
							want = got
							found += len(res.Repairs)
						} else if got != want {
							t.Errorf("%s: %s counter disagrees with pli:\n%s\nwant\n%s", name, entry.name, got, want)
						}
					}
				}
			}
		}
		if found == 0 {
			t.Fatalf("no repairs found on the %d-row instance", rel.LiveRows())
		}
	}
}

// TestEndToEndTPCHRoundTrip persists a generated TPC-H database to CSV,
// reloads it, and verifies the FD measures survive serialisation — the
// integration seam between tpch, relation CSV I/O and core.
func TestEndToEndTPCHRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := tpch.Generate(0.001, 5)
	if err := db.SaveDirectory(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 8 {
		t.Fatalf("csv files = %d, want 8", len(entries))
	}
	back, err := relation.LoadDirectory(dir, relation.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range tpch.TableNames {
		orig, _ := db.Get(name)
		loaded, err := back.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		fd, err := core.ParseFD(orig.Schema(), name, tpch.Table5FDs()[name])
		if err != nil {
			t.Fatal(err)
		}
		fd2, err := core.ParseFD(loaded.Schema(), name, tpch.Table5FDs()[name])
		if err != nil {
			t.Fatal(err)
		}
		m1 := core.Compute(pli.NewPLICounter(orig), fd)
		m2 := core.Compute(pli.NewPLICounter(loaded), fd2)
		if m1 != m2 {
			t.Fatalf("%s: measures changed across CSV round trip: %v vs %v", name, m1, m2)
		}
	}
}
