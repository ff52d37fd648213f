package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"github.com/evolvefd/evolvefd/internal/bitset"
	"github.com/evolvefd/evolvefd/internal/core"
	"github.com/evolvefd/evolvefd/internal/datasets"
	"github.com/evolvefd/evolvefd/internal/discovery"
	"github.com/evolvefd/evolvefd/internal/entropy"
	"github.com/evolvefd/evolvefd/internal/pli"
	"github.com/evolvefd/evolvefd/internal/relation"
	"github.com/evolvefd/evolvefd/internal/texttable"
)

func init() {
	register(Experiment{
		ID:    "theorem1",
		Title: "§5 Theorem 1: ε_CB vs ε_VI null sets (CB vs EB comparison)",
		Run:   runTheorem1,
	})
	register(Experiment{
		ID:    "cb-vs-eb",
		Title: "§5 empirical CB vs EB: agreement and cost of candidate ranking",
		Run:   runCBvsEB,
	})
	register(Experiment{
		ID:    "discover-vs-repair",
		Title: "§2: targeted repair vs discover-all-then-relax ([16]-style baseline)",
		Run:   runDiscoverVsRepair,
	})
}

// discoverVsRepair is one run of the discover-vs-repair comparison: the
// designer's violated FD, the targeted repair's extension U, and the minimal
// cover discovered up to antecedent size |X| + |U|.
type discoverVsRepair struct {
	ds                   datasets.RealDataset
	fd                   core.FD
	rep                  core.Repair
	repairStats          core.SearchStats
	discovered           []core.FD
	discStats            discovery.Stats
	repairTime, discTime time.Duration
}

// runDiscoverVsRepairOn times, on the same violated FD, (a) the paper's
// targeted repair and (b) full minimal-FD discovery up to the matching
// antecedent size.
func runDiscoverVsRepairOn(cfg Config) (*discoverVsRepair, error) {
	rows := int(8000 * cfg.scale() / DefaultScale)
	if rows < 300 {
		rows = 300
	}
	out := &discoverVsRepair{ds: datasets.Image(rows)}
	r := out.ds.Relation
	fd, err := core.ParseFD(r.Schema(), "F", out.ds.FDSpec)
	if err != nil {
		return nil, err
	}
	out.fd = fd

	// (a) Targeted repair.
	start := time.Now()
	rep, stats, ok := core.FindFirstRepair(pli.NewPLICounter(r), fd, core.RepairOptions{
		Candidates: core.CandidateOptions{Parallelism: cfg.Parallelism},
	})
	out.repairTime = time.Since(start)
	if !ok {
		return nil, fmt.Errorf("image FD should be repairable")
	}
	out.rep, out.repairStats = rep, stats

	// (b) Discover everything with antecedents up to the repaired size.
	start = time.Now()
	out.discovered, out.discStats = discovery.MinimalFDs(pli.NewPLICounter(r),
		discovery.Options{MaxLHS: fd.X.Len() + rep.Added.Len()})
	out.discTime = time.Since(start)
	return out, nil
}

// coverRepairs counts the distinct repairs U = W \ X the discovered cover
// offers for the designer FD X → A. Every cover member W → A with W ⊄ X
// makes XU → A exact, whether or not W ⊋ X — ExtensionsOf counts only the
// latter, which understates what discovery hands the designer.
func coverRepairs(discovered []core.FD, designer core.FD) int {
	seen := make(map[string]bool)
	for _, w := range discovered {
		if u := w.X.Diff(designer.X); w.Y.Equal(designer.Y) && !u.IsEmpty() {
			seen[u.Key()] = true
		}
	}
	return len(seen)
}

// runDiscoverVsRepair quantifies §2's argument against the alternative of
// discovering all constraints and relaxing the stale ones, then checks
// whether discovery even produced an extension of the designer's FD — and
// how many repairs its cover implies.
func runDiscoverVsRepair(cfg Config, w io.Writer) error {
	run, err := runDiscoverVsRepairOn(cfg)
	if err != nil {
		return err
	}
	r := run.ds.Relation
	tab := texttable.New(
		fmt.Sprintf("evolving %s on image (%d rows, %d attrs)", run.ds.FDSpec, r.NumRows(), r.NumCols()),
		"approach", "time", "work", "outcome").AlignRight(1)
	tab.Add("targeted repair (this paper)", fmtDuration(run.repairTime),
		fmt.Sprintf("%d candidates", run.repairStats.Evaluated),
		fmt.Sprintf("repair +{%s}", r.Schema().FormatSet(run.rep.Added)))
	tab.Add(fmt.Sprintf("discover all ≤%d-LHS minimal FDs, then relax", run.fd.X.Len()+run.rep.Added.Len()),
		fmtDuration(run.discTime),
		fmt.Sprintf("%d checks", run.discStats.Checked),
		fmt.Sprintf("%d FDs, %d extend the designer's, %d distinct repairs",
			len(run.discovered), len(discovery.ExtensionsOf(run.discovered, run.fd)),
			coverRepairs(run.discovered, run.fd)))
	if _, err := io.WriteString(w, tab.Render()); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, `shape check (§2): discovery costs orders of magnitude more than the
targeted search, and its minimal FDs need not include any extension of the
designer's dependency — both of the paper's objections, measured. Every
cover FD W → A still yields the repair U = W \ X (see EXPERIMENTS.md).`)
	return err
}

// runTheorem1 samples random relations and classifies each (FD, extension)
// case by the zero-ness of ε_CB and ε_VI, empirically demonstrating the
// reproduction finding: ε_CB = 0 forces ε_VI = 0 (the paper's claim holds in
// that direction), the converse fails on a measurable fraction of cases, and
// the corrected measure VI(C_XZ, C_Y) agrees with ε_CB in both directions.
func runTheorem1(cfg Config, w io.Writer) error {
	rng := rand.New(rand.NewSource(cfg.seed()))
	samples := int(2000 * cfg.scale() / DefaultScale)
	if samples < 200 {
		samples = 200
	}
	var bothZero, bothPos, cbPosViZero, cbZeroViPos int
	var fixDisagree int
	for i := 0; i < samples; i++ {
		r := randomBenchRelation(rng, 2+rng.Intn(20), 4, 2+rng.Intn(3))
		counter := pli.NewPLICounter(r)
		x, y := bitset.New(rng.Intn(4)), bitset.New(rng.Intn(4))
		if x.Intersects(y) {
			continue
		}
		var z bitset.Set
		for c := 0; c < 4; c++ {
			if !x.Contains(c) && !y.Contains(c) && rng.Intn(3) == 0 {
				z.Add(c)
			}
		}
		fd, err := core.NewFD("F", x, y)
		if err != nil {
			return err
		}
		fz := fd
		if !z.IsEmpty() {
			fz = fd.WithExtendedAntecedent(z)
		}
		cbZero := core.Compute(counter, fz).EpsilonCB() == 0
		viZero := entropy.EpsilonVIExtension(r, x, y, z) < 1e-12
		if z.IsEmpty() {
			viZero = entropy.EpsilonVI(r, x, y) < 1e-12
		}
		fixZero := entropy.EpsilonVIEquivalent(r, x, y, z) < 1e-12
		switch {
		case cbZero && viZero:
			bothZero++
		case !cbZero && !viZero:
			bothPos++
		case !cbZero && viZero:
			cbPosViZero++
		default:
			cbZeroViPos++
		}
		if cbZero != fixZero {
			fixDisagree++
		}
	}
	tab := texttable.New(
		fmt.Sprintf("null-set agreement over %d random (FD, extension) samples", samples),
		"case", "count").AlignRight(1)
	tab.Addf("ε_CB = 0 ∧ ε_VI = 0 (agree)", bothZero)
	tab.Addf("ε_CB > 0 ∧ ε_VI > 0 (agree)", bothPos)
	tab.Addf("ε_CB > 0 ∧ ε_VI = 0 (converse of Theorem 1 FAILS)", cbPosViZero)
	tab.Addf("ε_CB = 0 ∧ ε_VI > 0 (would falsify the forward direction)", cbZeroViPos)
	tab.Addf("corrected VI(C_XZ, C_Y) disagreeing with ε_CB", fixDisagree)
	if _, err := io.WriteString(w, tab.Render()); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, `reading: row 4 and row 5 must be zero (forward direction and corrected
equivalence hold); row 3 being non-zero exhibits the counterexamples to the
printed Theorem 1 converse (ε_VI = 0 requires only Y→X-style degeneracy, not
goodness 0). See EXPERIMENTS.md for the 3-tuple counterexample.`)
	return err
}

// runCBvsEB reruns the Places candidate rankings under both methods and
// reports agreement plus the measured cost gap — the practical claim of §5
// ("fully comparable results … with much simpler computations").
func runCBvsEB(cfg Config, w io.Writer) error {
	r := datasets.Places()
	counter := pli.NewPLICounter(r)
	specs := []struct{ label, spec string }{
		{"F1", "District, Region -> AreaCode"},
		{"F4", "District -> PhNo"},
	}
	tab := texttable.New("top-ranked repair attribute per method (Places)",
		"FD", "CB best", "EB best", "agree")
	for _, s := range specs {
		fd, err := core.ParseFD(r.Schema(), s.label, s.spec)
		if err != nil {
			return err
		}
		cb := core.ExtendByOne(counter, fd, core.CandidateOptions{})
		eb := entropy.ExtendByOne(r, fd.X, fd.Y)
		cbBest := r.Schema().Column(cb[0].Attr).Name
		ebBest := r.Schema().Column(eb[0].Attr).Name
		tab.Add(s.label, cbBest, ebBest, fmt.Sprintf("%v", cbBest == ebBest))
	}
	if _, err := io.WriteString(w, tab.Render()); err != nil {
		return err
	}

	// Cost comparison on a larger instance: candidate ranking via counting
	// (CB) vs via clustering intersections (EB).
	rows := int(20000 * cfg.scale() / DefaultScale)
	if rows < 500 {
		rows = 500
	}
	img := datasets.Image(rows)
	fd, err := core.ParseFD(img.Relation.Schema(), "F", img.FDSpec)
	if err != nil {
		return err
	}
	cbStart := time.Now()
	_ = core.ExtendByOne(pli.NewPLICounter(img.Relation), fd, core.CandidateOptions{Parallelism: 1})
	cbTime := time.Since(cbStart)
	ebStart := time.Now()
	_ = entropy.ExtendByOne(img.Relation, fd.X, fd.Y)
	ebTime := time.Since(ebStart)
	cost := texttable.New(
		fmt.Sprintf("\ncandidate-ranking cost on image (%d rows, serial)", rows),
		"method", "time").AlignRight(1)
	cost.Add("CB (confidence+goodness counting)", fmtDuration(cbTime))
	cost.Add("EB (conditional entropies over clusterings)", fmtDuration(ebTime))
	if _, err := io.WriteString(w, cost.Render()); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, `shape check: both methods pick the same exact candidates (Theorem 1's
practical content); CB needs only cardinality counting and is the cheaper
ranking, the paper's core argument.`)
	return err
}

func randomBenchRelation(rng *rand.Rand, rows, cols, domain int) *relation.Relation {
	names := make([]string, cols)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	schema, err := relation.SchemaOf(names...)
	if err != nil {
		panic(err)
	}
	r := relation.New("rand", schema)
	row := make([]relation.Value, cols)
	for i := 0; i < rows; i++ {
		for c := range row {
			row[c] = relation.String(string(rune('A' + rng.Intn(domain))))
		}
		r.MustAppend(row...)
	}
	return r
}
