// Root benchmarks: one per table and figure of the paper, plus the
// ablations DESIGN.md calls out. Sizes default to laptop scale; set
// EVOLVEFD_SCALE / EVOLVEFD_SF (up to 1) to approach paper scale, e.g.
//
//	EVOLVEFD_SF=0.1 EVOLVEFD_SCALE=1 go test -bench=Table5 -benchtime=1x
//
// regenerates Table 5 at the paper's "100MB" database size.
package evolvefd_test

import (
	"io"
	"testing"

	"github.com/evolvefd/evolvefd/internal/bench"
	"github.com/evolvefd/evolvefd/internal/core"
	"github.com/evolvefd/evolvefd/internal/datasets"
	"github.com/evolvefd/evolvefd/internal/pli"
	"github.com/evolvefd/evolvefd/internal/query"
	"github.com/evolvefd/evolvefd/internal/tpch"
)

// benchConfig resolves the environment overrides once per benchmark.
func benchConfig() bench.Config {
	cfg := bench.FromEnv()
	if cfg.Scale == 0 {
		cfg.Scale = 0.01
	}
	if cfg.SF == 0 {
		cfg.SF = 0.002
	}
	return cfg
}

// runRegistered runs one registered experiment, discarding its report.
func runRegistered(b *testing.B, id string) {
	b.Helper()
	e, ok := bench.Lookup(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	cfg := benchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunningExample regenerates the §3/§4.1 measures and repair order.
func BenchmarkRunningExample(b *testing.B) { runRegistered(b, "running-example") }

// BenchmarkTable1CandidateRanking regenerates Table 1.
func BenchmarkTable1CandidateRanking(b *testing.B) { runRegistered(b, "table1") }

// BenchmarkTable2CandidateRanking regenerates Table 2.
func BenchmarkTable2CandidateRanking(b *testing.B) { runRegistered(b, "table2") }

// BenchmarkTable3CandidateRanking regenerates Table 3.
func BenchmarkTable3CandidateRanking(b *testing.B) { runRegistered(b, "table3") }

// BenchmarkFigure2Clusterings regenerates Figure 2's associations.
func BenchmarkFigure2Clusterings(b *testing.B) { runRegistered(b, "figure2") }

// BenchmarkTable4TPCHGenerate regenerates Table 4 (database generation and
// overview).
func BenchmarkTable4TPCHGenerate(b *testing.B) { runRegistered(b, "table4") }

// BenchmarkTable5TPCHRepairs regenerates Table 5 (find-all repairs on every
// TPC-H table).
func BenchmarkTable5TPCHRepairs(b *testing.B) { runRegistered(b, "table5") }

// BenchmarkFigure3Series regenerates Figure 3's three series.
func BenchmarkFigure3Series(b *testing.B) { runRegistered(b, "figure3") }

// BenchmarkTable6RealDatasets regenerates Table 6 (find-first on the six
// real-database stand-ins).
func BenchmarkTable6RealDatasets(b *testing.B) { runRegistered(b, "table6") }

// BenchmarkTable7VeteransAll measures one representative find-all grid cell
// (the full grid is the table7 experiment / fdbench -experiment table7).
func BenchmarkTable7VeteransAll(b *testing.B) {
	cfg := benchConfig()
	rows := bench.GridRowCounts(cfg.Scale)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunVeteransCell(cfg, rows, 20, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable8VeteransFirst measures the matching find-first grid cell.
func BenchmarkTable8VeteransFirst(b *testing.B) {
	cfg := benchConfig()
	rows := bench.GridRowCounts(cfg.Scale)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunVeteransCell(cfg, rows, 20, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTheorem1NullSets regenerates the §5 null-set comparison.
func BenchmarkTheorem1NullSets(b *testing.B) { runRegistered(b, "theorem1") }

// BenchmarkCBvsEB regenerates the CB-vs-EB agreement and cost comparison.
func BenchmarkCBvsEB(b *testing.B) { runRegistered(b, "cb-vs-eb") }

// BenchmarkDiscoverVsRepair prices the §2 discover-all-then-relax baseline
// against the targeted repair.
func BenchmarkDiscoverVsRepair(b *testing.B) { runRegistered(b, "discover-vs-repair") }

// BenchmarkAblationCountStrategies prices each counting strategy on the same
// candidate-ranking workload.
func BenchmarkAblationCountStrategies(b *testing.B) {
	ds := datasets.Image(4000)
	fd, err := core.ParseFD(ds.Relation.Schema(), "F", ds.FDSpec)
	if err != nil {
		b.Fatal(err)
	}
	strategies := []struct {
		name string
		mk   func() pli.Counter
	}{
		{"pli", func() pli.Counter { return pli.NewPLICounter(ds.Relation) }},
		{"hash", func() pli.Counter { return pli.NewHashCounter(ds.Relation) }},
		{"sort", func() pli.Counter { return pli.NewSortCounter(ds.Relation) }},
		{"sql", func() pli.Counter { return query.NewCounter(ds.Relation) }},
	}
	for _, s := range strategies {
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				counter := s.mk() // fresh counter: no cross-iteration memoisation
				_ = core.ExtendByOne(counter, fd, core.CandidateOptions{Parallelism: 1})
			}
		})
	}
}

// BenchmarkAblationParallelCandidates scales candidate evaluation across
// workers on a wide relation.
func BenchmarkAblationParallelCandidates(b *testing.B) {
	ds := datasets.Veterans(2000, 100)
	fd, err := core.ParseFD(ds.Relation.Schema(), "F", ds.FDSpec)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				counter := pli.NewPLICounter(ds.Relation)
				_ = core.ExtendByOne(counter, fd, core.CandidateOptions{Parallelism: workers})
			}
		})
	}
}

// BenchmarkAblationFirstVsAll prices the §4.4 early-stop against full
// exploration.
func BenchmarkAblationFirstVsAll(b *testing.B) {
	ds := datasets.Veterans(1000, 20)
	fd, err := core.ParseFD(ds.Relation.Schema(), "F", ds.FDSpec)
	if err != nil {
		b.Fatal(err)
	}
	modes := []struct {
		name      string
		firstOnly bool
	}{{"first", true}, {"all", false}}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				counter := pli.NewPLICounter(ds.Relation)
				_ = core.FindRepairs(counter, fd, core.RepairOptions{
					FirstOnly: m.firstOnly,
					MaxAdded:  3,
				})
			}
		})
	}
}

// BenchmarkAblationObjective prices minimal-first vs the §4.4 balanced
// objective on the UNIQUE-vs-pair scenario.
func BenchmarkAblationObjective(b *testing.B) { runRegistered(b, "ablation-objective") }

// BenchmarkTPCHLineitemGenerate prices the heaviest generator in isolation.
func BenchmarkTPCHLineitemGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = tpch.GenerateTable("lineitem", 0.001, 1)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	pos := len(buf)
	for n > 0 {
		pos--
		buf[pos] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[pos:])
}
