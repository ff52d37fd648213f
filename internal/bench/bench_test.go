package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/evolvefd/evolvefd/internal/discovery"
)

// tinyConfig keeps experiment tests fast.
func tinyConfig() Config {
	return Config{Scale: 0.002, SF: 0.001, Seed: 7}
}

func TestRegistryComplete(t *testing.T) {
	// Exactly the paper's tables and figures, the theory comparisons and the
	// four seed ablations: performance experiments live in benchmark/.
	want := []string{
		"running-example", "table1", "table2", "table3", "figure2",
		"table4", "table5", "figure3", "table6", "table7", "table8",
		"theorem1", "cb-vs-eb", "discover-vs-repair",
		"ablation-count", "ablation-parallel", "ablation-queue",
		"ablation-objective",
	}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want exactly %d", len(All()), len(want))
	}
	// All() must be sorted by ID.
	all := All()
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Fatal("All() not sorted")
		}
	}
}

func TestLookupMiss(t *testing.T) {
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup of unknown ID must fail")
	}
}

// runExperiment executes one experiment and returns its output.
func runExperiment(t *testing.T, id string) string {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("experiment %q missing", id)
	}
	var buf bytes.Buffer
	if err := e.Run(tinyConfig(), &buf); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return buf.String()
}

func TestRunningExampleOutput(t *testing.T) {
	out := runExperiment(t, "running-example")
	for _, want := range []string{
		"F1", "F2", "F3", "F4",
		"2/4 = 0.500", // c_F1
		"8/9 = 0.889", // c_F3
		"repair order",
		"0.250", "0.167", "0.056", // §4.1 printed ranks
	} {
		if !strings.Contains(out, want) {
			t.Errorf("running-example output missing %q\n%s", want, out)
		}
	}
}

func TestTable1Output(t *testing.T) {
	out := runExperiment(t, "table1")
	for _, want := range []string{"Municipal", "4/4 = 1", "7/7 = 1", "3/5 = 0.6"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q\n%s", want, out)
		}
	}
	// Municipal must be the first-ranked row.
	lines := strings.Split(out, "\n")
	firstData := ""
	for i, l := range lines {
		if strings.HasPrefix(l, "---") || strings.Contains(l, "--  ") {
			if i+1 < len(lines) {
				firstData = lines[i+1]
			}
			break
		}
	}
	if !strings.HasPrefix(firstData, "Municipal") {
		t.Errorf("first candidate row = %q, want Municipal", firstData)
	}
}

func TestTable2And3Output(t *testing.T) {
	out2 := runExperiment(t, "table2")
	if !strings.Contains(out2, "Street") || !strings.Contains(out2, "0.875") {
		t.Errorf("table2 output wrong:\n%s", out2)
	}
	out3 := runExperiment(t, "table3")
	for _, want := range []string{"Municipal", "AreaCode", "EXPERIMENTS.md", "(omitted)"} {
		if !strings.Contains(out3, want) {
			t.Errorf("table3 output missing %q", want)
		}
	}
}

func TestFigure2Output(t *testing.T) {
	out := runExperiment(t, "figure2")
	for _, want := range []string{
		"(a) F1", "(b) F′", "(c) F″",
		"no function between clusterings",
		"well-defined (bijective) function",
		"not bijective",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("figure2 output missing %q\n%s", want, out)
		}
	}
}

func TestTable4Output(t *testing.T) {
	out := runExperiment(t, "table4")
	for _, want := range []string{"customer", "lineitem", "region", "16", "150249", "6005428"} {
		if !strings.Contains(out, want) {
			t.Errorf("table4 output missing %q\n%s", want, out)
		}
	}
}

func TestTable5MeasurementsAndOutput(t *testing.T) {
	rows, err := RunTable5Measurements(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("table5 rows = %d, want 8", len(rows))
	}
	var lineitem, region *Table5Row
	for i := range rows {
		switch rows[i].Table {
		case "lineitem":
			lineitem = &rows[i]
		case "region":
			region = &rows[i]
		}
		if rows[i].Elapsed <= 0 {
			t.Errorf("%s: no time recorded", rows[i].Table)
		}
	}
	if lineitem == nil || region == nil {
		t.Fatal("lineitem/region rows missing")
	}
	// Shape: the largest, widest table dominates the smallest.
	if lineitem.Elapsed <= region.Elapsed {
		t.Errorf("lineitem (%v) should dominate region (%v)", lineitem.Elapsed, region.Elapsed)
	}

	out := runExperiment(t, "table5")
	for _, want := range []string{"lineitem", "1h 59m 19s 884ms", "shape check"} {
		if !strings.Contains(out, want) {
			t.Errorf("table5 output missing %q", want)
		}
	}
}

func TestFigure3Output(t *testing.T) {
	out := runExperiment(t, "figure3")
	for _, want := range []string{"(a) processing time by number of attributes",
		"(b) processing time by number of tuples",
		"(c) processing time by table dimension"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure3 output missing %q", want)
		}
	}
}

func TestTable6Output(t *testing.T) {
	out := runExperiment(t, "table6")
	for _, want := range []string{"places", "country", "rental", "image", "pagelinks", "veterans",
		"29m45s", "shape check"} {
		if !strings.Contains(out, want) {
			t.Errorf("table6 output missing %q\n%s", want, out)
		}
	}
	// Places repair must add 2 attributes (its row shows a 2-attr set).
	if !strings.Contains(out, "+{Municipal,Street}") && !strings.Contains(out, "+{AreaCode,Street}") &&
		!strings.Contains(out, "+{Street, Municipal}") {
		// The formatted set uses schema order: Municipal,Street.
		t.Errorf("places repair missing from table6:\n%s", out)
	}
}

func TestVeteransGridCells(t *testing.T) {
	cfg := tinyConfig()
	// Repairable cell: 30 attrs.
	cell, err := RunVeteransCell(cfg, 400, 30, true)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Repairs != 1 {
		t.Fatalf("30-attr find-first repairs = %d, want 1", cell.Repairs)
	}
	// Unrepairable cell: 10 attrs.
	cell, err = RunVeteransCell(cfg, 400, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Repairs != 0 {
		t.Fatalf("10-attr repairs = %d, want 0", cell.Repairs)
	}
}

func TestTables7And8Output(t *testing.T) {
	out7 := runExperiment(t, "table7")
	if !strings.Contains(out7, "find all repairs") || !strings.Contains(out7, "(no repair)") {
		t.Errorf("table7 output wrong:\n%s", out7)
	}
	out8 := runExperiment(t, "table8")
	if !strings.Contains(out8, "find the first repair") {
		t.Errorf("table8 output wrong:\n%s", out8)
	}
}

func TestTheorem1Output(t *testing.T) {
	out := runExperiment(t, "theorem1")
	if !strings.Contains(out, "converse of Theorem 1 FAILS") {
		t.Errorf("theorem1 output missing the converse row:\n%s", out)
	}
	// The forward direction must never be falsified: its count renders as
	// exactly zero.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "would falsify") && !strings.HasSuffix(strings.TrimSpace(line), " 0") {
			t.Errorf("forward direction falsified: %q", line)
		}
		if strings.Contains(line, "disagreeing with ε_CB") && !strings.HasSuffix(strings.TrimSpace(line), " 0") {
			t.Errorf("corrected measure disagreed: %q", line)
		}
	}
}

func TestCBvsEBOutput(t *testing.T) {
	out := runExperiment(t, "cb-vs-eb")
	if !strings.Contains(out, "CB best") || !strings.Contains(out, "true") {
		t.Errorf("cb-vs-eb output wrong:\n%s", out)
	}
}

func TestDiscoverVsRepairOutput(t *testing.T) {
	out := runExperiment(t, "discover-vs-repair")
	for _, want := range []string{
		"targeted repair (this paper)",
		"discover all",
		"repair +{",
		"shape check (§2)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("discover-vs-repair output missing %q:\n%s", want, out)
		}
	}
	// Discovery ran up to MaxLHS = |X| + |U|, so the targeted repair's exact
	// XU → A has a minimal cover member W → A with W ⊆ XU, and that W's
	// W \ X is among the repairs the experiment counts.
	run, err := runDiscoverVsRepairOn(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	xu := run.fd.X.Union(run.rep.Added)
	found := false
	for _, w := range run.discovered {
		found = found || (w.Y.Equal(run.fd.Y) && w.X.SubsetOf(xu))
	}
	if !found {
		t.Errorf("no discovered W -> %v within the repair's X∪U %v: %v", run.fd.Y, xu, run.discovered)
	}
	if n := coverRepairs(run.discovered, run.fd); n < len(discovery.ExtensionsOf(run.discovered, run.fd)) || n == 0 {
		t.Errorf("cover implies %d repairs, fewer than the extensions or none", n)
	}
}

func TestAblationOutputs(t *testing.T) {
	for _, id := range []string{"ablation-count", "ablation-parallel", "ablation-queue"} {
		out := runExperiment(t, id)
		if len(out) < 50 {
			t.Errorf("%s output too short:\n%s", id, out)
		}
	}
}

func TestAblationObjectiveOutput(t *testing.T) {
	out := runExperiment(t, "ablation-objective")
	if !strings.Contains(out, "minimal-first (paper)") || !strings.Contains(out, "balanced") {
		t.Errorf("objective ablation output wrong:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		// Inspect the two table rows only (identified by their labels).
		if strings.Contains(line, "minimal-first (paper)") && !strings.Contains(line, "+{ticket_id}") {
			t.Errorf("minimal-first should pick ticket_id: %q", line)
		}
		if strings.Contains(line, "balanced (size") {
			if strings.Contains(line, "+{ticket_id}") {
				t.Errorf("balanced objective picked the key-like repair: %q", line)
			}
			if !strings.Contains(line, "+{service,priority}") {
				t.Errorf("balanced should pick {service, priority}: %q", line)
			}
		}
	}
}

func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll covers every experiment; skipped in -short")
	}
	var buf bytes.Buffer
	if err := RunAll(tinyConfig(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, e := range All() {
		if !strings.Contains(out, "==== "+e.ID) {
			t.Errorf("RunAll output missing %s", e.ID)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.scale() != DefaultScale || c.sf() != DefaultSF {
		t.Fatal("zero config must use defaults")
	}
	if (Config{Scale: 5}).scale() != 1 {
		t.Fatal("scale must clamp to 1")
	}
	if c.seed() == 0 {
		t.Fatal("default seed must be non-zero")
	}
	if (Config{Seed: 9}).seed() != 9 {
		t.Fatal("explicit seed must win")
	}
}

func TestFromEnv(t *testing.T) {
	t.Setenv("EVOLVEFD_SCALE", "0.5")
	t.Setenv("EVOLVEFD_SF", "0.2")
	t.Setenv("EVOLVEFD_SEED", "123")
	cfg := FromEnv()
	if cfg.Scale != 0.5 || cfg.SF != 0.2 || cfg.Seed != 123 {
		t.Fatalf("FromEnv = %+v", cfg)
	}
	t.Setenv("EVOLVEFD_SCALE", "garbage")
	cfg = FromEnv()
	if cfg.Scale != 0 {
		t.Fatal("garbage env must be ignored")
	}
}

func TestFmtDuration(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{90 * time.Minute, "1h 30m 0s"},
		{2*time.Minute + 3*time.Second, "2m 3s 0ms"},
		{4*time.Second + 678*time.Millisecond, "4s 678ms"},
		{5 * time.Millisecond, "5ms"},
		{250 * time.Microsecond, "250µs"},
	}
	for _, c := range cases {
		if got := fmtDuration(c.d); got != c.want {
			t.Errorf("fmtDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestGridHelpers(t *testing.T) {
	rows := GridRowCounts(1)
	if len(rows) != 7 || rows[0] != 10000 || rows[6] != 70000 {
		t.Fatalf("full-scale grid rows = %v", rows)
	}
	small := GridRowCounts(0.001)
	for _, r := range small {
		if r < 200 {
			t.Fatal("grid floor violated")
		}
	}
	if got := GridAttrCounts(); len(got) != 3 || got[0] != 10 || got[2] != 30 {
		t.Fatalf("grid attrs = %v", got)
	}
}
