package bench

import (
	"fmt"
	"io"

	"slices"
	"strings"

	"github.com/evolvefd/evolvefd/internal/bitset"
	"github.com/evolvefd/evolvefd/internal/core"
	"github.com/evolvefd/evolvefd/internal/datasets"
	"github.com/evolvefd/evolvefd/internal/pli"
	"github.com/evolvefd/evolvefd/internal/relation"
	"github.com/evolvefd/evolvefd/internal/texttable"
)

func init() {
	register(Experiment{
		ID:    "running-example",
		Title: "§1/§3/§4 running example: measures and repair order on Places",
		Run:   runRunningExample,
	})
	register(Experiment{
		ID:    "table1",
		Title: "Table 1: evolving F1 [District,Region] → [AreaCode]",
		Run: func(cfg Config, w io.Writer) error {
			return runCandidateTable(w, "F1", "District, Region -> AreaCode",
				paperTable1)
		},
	})
	register(Experiment{
		ID:    "table2",
		Title: "Table 2: evolving F4 [District] → [PhNo]",
		Run: func(cfg Config, w io.Writer) error {
			return runCandidateTable(w, "F4", "District -> PhNo", paperTable2)
		},
	})
	register(Experiment{
		ID:    "table3",
		Title: "Table 3: evolving F4+Street [District,Street] → [PhNo]",
		Run: func(cfg Config, w io.Writer) error {
			if err := runCandidateTable(w, "F4Street", "District, Street -> PhNo",
				paperTable3); err != nil {
				return err
			}
			fmt.Fprintln(w, `note: confidences match the paper exactly. The printed goodness column
(4,4,4,4,3) does not follow Definition 3 — it equals |π_XA| − |π_AreaCode|, a
slip carried over from Table 1 (with a further misprint in the City row);
Definition 3 gives the values above. The paper also omits the Region row
although Region ∈ R \ XY. See EXPERIMENTS.md.`)
			return nil
		},
	})
	register(Experiment{
		ID:    "figure2",
		Title: "Figure 2: clusterings of F1, F′ and F″",
		Run:   runFigure2,
	})
}

// paperValue pairs our measured candidate row with the paper's printed one.
type paperValue struct {
	attr string
	conf string // printed confidence, e.g. "4/4 = 1"
	good string // printed goodness
}

var paperTable1 = []paperValue{
	{"Municipal", "4/4 = 1", "0"},
	{"PhNo", "7/7 = 1", "3"},
	{"Street", "7/8 = 0.875", "3"},
	{"Zip", "4/5 = 0.8", "0"},
	{"City", "4/5 = 0.8", "0"},
	{"State", "3/5 = 0.6", "-1"},
}

var paperTable2 = []paperValue{
	{"Street", "0.875", "1"},
	{"Municipal", "0.571", "-2"},
	{"AreaCode", "0.571", "-2"},
	{"City", "0.571", "-2"},
	{"Zip", "0.5", "-2"},
	{"State", "0.429", "-3"},
	{"Region", "0.286", "-4"},
}

var paperTable3 = []paperValue{
	{"Municipal", "1", "4*"},
	{"AreaCode", "1", "4*"},
	{"Zip", "0.889", "4*"},
	{"Region", "(omitted)", "(omitted)"},
	{"City", "0.875", "4*"},
	{"State", "0.875", "3*"},
}

// runCandidateTable regenerates one candidate-ranking table on Places.
func runCandidateTable(w io.Writer, label, spec string, paper []paperValue) error {
	r := datasets.Places()
	counter := pli.NewPLICounter(r)
	fd, err := core.ParseFD(r.Schema(), label, spec)
	if err != nil {
		return err
	}
	cands := core.ExtendByOne(counter, fd, core.CandidateOptions{})
	tab := texttable.New(
		fmt.Sprintf("candidates extending %s", fd.FormatWith(r.Schema())),
		"A", "c_FA (measured)", "g_FA (measured)", "c (paper)", "g (paper)",
	).AlignRight(1, 2, 3, 4)
	paperByAttr := map[string]paperValue{}
	for _, p := range paper {
		paperByAttr[p.attr] = p
	}
	for _, c := range cands {
		name := r.Schema().Column(c.Attr).Name
		p := paperByAttr[name]
		tab.Add(name,
			fmt.Sprintf("%s = %.3g", c.Measures.ConfidenceRatio(), c.Measures.Confidence),
			fmt.Sprintf("%d", c.Measures.Goodness),
			p.conf, p.good)
	}
	_, err = io.WriteString(w, tab.Render())
	return err
}

func runRunningExample(cfg Config, w io.Writer) error {
	r := datasets.Places()
	counter := pli.NewPLICounter(r)
	var fds []core.FD
	for _, label := range []string{"F1", "F2", "F3"} {
		fd, err := core.ParseFD(r.Schema(), label, datasets.PlacesFDs()[label])
		if err != nil {
			return err
		}
		fds = append(fds, fd)
	}
	f4, err := core.ParseFD(r.Schema(), "F4", datasets.PlacesF4())
	if err != nil {
		return err
	}

	tab := texttable.New("measures (paper: c_F1=0.5 g=−2, c_F2=0.667 g=−1, c_F3=0.889 g=1, c_F4=0.29 g=−4)",
		"FD", "definition", "confidence", "goodness", "exact").AlignRight(2, 3)
	for _, fd := range append(fds, f4) {
		m := core.Compute(counter, fd)
		tab.Add(fd.Label, fd.FormatWith(r.Schema()),
			fmt.Sprintf("%s = %.3f", m.ConfidenceRatio(), m.Confidence),
			fmt.Sprintf("%d", m.Goodness),
			fmt.Sprintf("%v", m.Exact()))
	}
	if _, err := io.WriteString(w, tab.Render()); err != nil {
		return err
	}

	ranked := core.OrderFDs(counter, fds, core.ScopeConsequentOnly)
	order := texttable.New("\nrepair order (§4.1; paper prints F1 0.25, F2 0.167, F3 0.056)",
		"position", "FD", "rank O_F").AlignRight(0, 2)
	for i, rf := range ranked {
		order.Add(fmt.Sprintf("%d", i+1), rf.FD.Label, fmt.Sprintf("%.3f", rf.Rank))
	}
	_, err = io.WriteString(w, order.Render())
	return err
}

// runFigure2 renders the three clustering associations of Figure 2 in text
// form.
func runFigure2(cfg Config, w io.Writer) error {
	r := datasets.Places()
	counter := pli.NewPLICounter(r)
	mk := func(names ...string) clustering {
		set, err := r.Schema().IndexSet(names...)
		if err != nil {
			panic(err)
		}
		return clusteringOf(r, counter, set)
	}
	y := mk("AreaCode")
	sections := []struct {
		title string
		x     clustering
	}{
		{"(a) F1: [District, Region] → [AreaCode]", mk("District", "Region")},
		{"(b) F′: [District, Region, Municipal] → [AreaCode]", mk("District", "Region", "Municipal")},
		{"(c) F″: [District, Region, PhNo] → [AreaCode]", mk("District", "Region", "PhNo")},
	}
	for _, s := range sections {
		if _, err := io.WriteString(w, renderAssociation(s.title, s.x, y)+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// clustering is the X-clustering C_X of Definition 5 as Figure 2 draws it:
// every class listed, singletons included, numbered by first occurrence and
// labelled by the values its rows share.
type clustering struct {
	labels  []string
	rows    [][]int
	classOf []int // class of each live row
}

// clusteringOf lists the classes of the counter's partition of x, grouping
// live rows by the partition's row labels.
func clusteringOf(r *relation.Relation, c pli.SearchCounter, x bitset.Set) clustering {
	ids := c.Partition(x).RowLabels()
	cl := clustering{classOf: make([]int, r.NumRows())}
	index := make(map[int32]int)
	for row := range cl.classOf {
		if r.IsDeleted(row) {
			continue
		}
		ci, ok := index[ids[row]]
		if !ok {
			ci = len(cl.rows)
			index[ids[row]] = ci
			var parts []string
			for _, col := range x.Members() {
				text := r.Value(row, col).String()
				if r.Value(row, col).IsNull() {
					text = "NULL"
				}
				parts = append(parts, r.Schema().Column(col).Name+"="+text)
			}
			cl.labels = append(cl.labels, strings.Join(parts, ", "))
			cl.rows = append(cl.rows, nil)
		}
		cl.rows[ci] = append(cl.rows[ci], row)
		cl.classOf[row] = ci
	}
	return cl
}

// renderAssociation renders two clusterings side by side with the
// association between their classes (Definition 6). Rows are labelled t1,
// t2, … (1-based, like the running example). For each class of x the one
// class of y containing it is shown, or "✗ splits over" the y classes it
// spreads across — the correspondence is not a function there.
func renderAssociation(title string, x, y clustering) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	lefts, width := make([]string, len(x.rows)), 0
	for ci, rows := range x.rows {
		lefts[ci] = x.labels[ci] + " " + rowsLabel(rows)
		width = max(width, len(lefts[ci]))
	}
	function := true
	for ci, rows := range x.rows {
		targets := make([]int, len(rows))
		for i, row := range rows {
			targets[i] = y.classOf[row]
		}
		slices.Sort(targets)
		if targets = slices.Compact(targets); len(targets) == 1 {
			t := targets[0]
			fmt.Fprintf(&b, "  %-*s  ⇒  %s %s\n", width, lefts[ci], y.labels[t], rowsLabel(y.rows[t]))
			continue
		}
		function = false
		names := make([]string, len(targets))
		for i, t := range targets {
			names[i] = y.labels[t]
		}
		fmt.Fprintf(&b, "  %-*s  ⇒  ✗ splits over %s\n", width, lefts[ci], strings.Join(names, " | "))
	}
	switch {
	case function && len(x.rows) == len(y.rows):
		b.WriteString("  ⇒ well-defined (bijective) function between clusterings\n")
	case function:
		b.WriteString("  ⇒ function exists but is not bijective (not complete)\n")
	default:
		b.WriteString("  ⇒ no function between clusterings: FD violated\n")
	}
	return b.String()
}

func rowsLabel(rows []int) string {
	parts := make([]string, len(rows))
	for i, r := range rows {
		parts[i] = fmt.Sprintf("t%d", r+1)
	}
	return "{" + strings.Join(parts, ",") + "}"
}
