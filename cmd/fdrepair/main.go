// fdrepair is the paper's prototype workflow as a command-line tool: load a
// relation from CSV, declare functional dependencies, detect which ones the
// data violates, and print ranked antecedent extensions that repair them
// (§6: "users connect to a … database and visualize its relations and all
// FDs defined on each relation; then … they can start the process of FD
// validation"). Every mode drives one evolvefd.Session over the loaded
// relation.
//
// Usage:
//
//	fdrepair -csv places.csv -fd "District,Region -> AreaCode" -fd "Zip -> City,State"
//	fdrepair -csv data.csv -fd "a -> b" -all -max-added 2
//	fdrepair -csv data.csv -fd "a -> b" -interactive   # designer loop
//	fdrepair -csv data.csv -fd "a -> b" -balanced      # §4.4 objective function
//	fdrepair -csv data.csv -discover -max-lhs 2        # §2 discovery baseline
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	evolvefd "github.com/evolvefd/evolvefd"
	"github.com/evolvefd/evolvefd/internal/core"
	"github.com/evolvefd/evolvefd/internal/texttable"
)

// fdList collects repeated -fd flags.
type fdList []string

func (f *fdList) String() string { return strings.Join(*f, "; ") }

func (f *fdList) Set(v string) error {
	*f = append(*f, v)
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fdrepair:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("fdrepair", flag.ContinueOnError)
	var fds fdList
	var (
		csvPath     = fs.String("csv", "", "CSV file holding the relation (required)")
		all         = fs.Bool("all", false, "find every repair instead of the first (minimal) one")
		maxAdded    = fs.Int("max-added", 0, "bound on attributes added per repair (0 = unbounded)")
		maxGoodness = fs.Int("max-goodness", -1, "discard candidates with |goodness| above this (-1 = off)")
		minimal     = fs.Bool("minimal", false, "prune repairs that are supersets of other repairs")
		balanced    = fs.Bool("balanced", false, "use the §4.4 objective (size + inconsistency + |goodness|) instead of minimal-first")
		interactive = fs.Bool("interactive", false, "ask the designer to accept/skip/drop each proposal")
		discover    = fs.Bool("discover", false, "list minimal exact FDs instead of repairing (-max-lhs bounds antecedents)")
		maxLHS      = fs.Int("max-lhs", 2, "antecedent size bound for -discover (at least 1)")
		parallelism = fs.Int("parallelism", 0, "repair search workers (0 = GOMAXPROCS, 1 = serial); results are identical at any setting")
	)
	fs.Var(&fds, "fd", "functional dependency \"X1,X2 -> Y\" (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Out-of-range bounds are refused rather than silently reinterpreted.
	switch {
	case *maxLHS < 1:
		return fmt.Errorf("-max-lhs must be at least 1, got %d", *maxLHS)
	case *maxAdded < 0:
		return fmt.Errorf("-max-added must not be negative, got %d", *maxAdded)
	case *maxGoodness < -1:
		return fmt.Errorf("-max-goodness must be -1 (off) or a non-negative bound, got %d", *maxGoodness)
	case *parallelism < 0:
		return fmt.Errorf("-parallelism must not be negative, got %d", *parallelism)
	case *csvPath == "":
		return fmt.Errorf("-csv is required")
	case len(fds) == 0 && !*discover:
		return fmt.Errorf("at least one -fd is required (or -discover)")
	}
	rel, err := evolvefd.OpenCSV(*csvPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "loaded %s: %d attributes × %d tuples\n", rel.Name(), rel.NumCols(), rel.NumRows())

	session := evolvefd.NewSession(rel)
	if *discover { // -discover wins over -interactive and ignores -fd
		return runDiscover(stdout, session, *maxLHS)
	}
	if err := defineAll(session, fds); err != nil {
		return err
	}
	opts := evolvefd.Options{
		FirstOnly:   !*all,
		MaxAdded:    *maxAdded,
		MaxGoodness: evolvefd.GoodnessLimit(*maxGoodness), // -1 is no threshold
		MinimalOnly: *minimal,
		Balanced:    *balanced,
		Parallelism: *parallelism,
	}
	if *interactive {
		return runInteractive(stdin, stdout, session, opts)
	}
	return runBatch(stdout, session, opts)
}

// defineAll declares the -fd specs on the session as F1, F2, …,
// decomposing multi-attribute consequents into one FD per consequent
// attribute (F2.1, F2.2, …).
func defineAll(session *evolvefd.Session, specs []string) error {
	schema := session.Relation().Schema()
	for i, spec := range specs {
		parsed, err := core.ParseFD(schema, "F"+strconv.Itoa(i+1), spec)
		if err != nil {
			return err
		}
		for _, fd := range parsed.Decompose() {
			body := fmt.Sprintf("[%s] -> [%s]",
				strings.Join(schema.NameSet(fd.X), ", "),
				strings.Join(schema.NameSet(fd.Y), ", "))
			if err := session.Define(fd.Label, body); err != nil {
				return err
			}
		}
	}
	return nil
}

// runDiscover lists the minimal exact FDs of the instance — the §2
// "discover everything" baseline, exposed for comparison.
func runDiscover(w io.Writer, s *evolvefd.Session, maxLHS int) error {
	fds, err := s.Discover(evolvefd.DiscoveryOptions{MaxLHS: maxLHS})
	if err != nil {
		return err
	}
	tab := texttable.New(fmt.Sprintf("\nminimal exact FDs with ≤%d antecedent attributes", maxLHS),
		"#", "FD").AlignRight(0)
	for i, fd := range fds {
		tab.Add(strconv.Itoa(i+1), fd.FD)
	}
	if _, err := io.WriteString(w, tab.Render()); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%d minimal FDs found\n", len(fds))
	return err
}

// runBatch prints the violated FDs in repair order, then the satisfied ones
// (which have no rank), then the repairs of each violated FD.
func runBatch(w io.Writer, s *evolvefd.Session, opts evolvefd.Options) error {
	status := texttable.New("\nfunctional dependencies (repair order)",
		"FD", "confidence", "goodness", "status", "rank").AlignRight(1, 2, 4)
	addRow := func(fd string, m evolvefd.Measures, state, rank string) {
		status.Add(fd, fmt.Sprintf("%s = %.3f", m.ConfidenceRatio, m.Confidence),
			strconv.Itoa(m.Goodness), state, rank)
	}
	violated := s.Check()
	for _, v := range violated {
		addRow(v.FD, v.Measures, "violated", fmt.Sprintf("%.3f", v.Rank))
	}
	for _, label := range s.Labels() {
		m, err := s.Measures(label)
		if err != nil {
			return err
		}
		if !m.Exact {
			continue
		}
		fd, err := s.FDText(label)
		if err != nil {
			return err
		}
		addRow(fd, m, "satisfied", "-")
	}
	if _, err := io.WriteString(w, status.Render()); err != nil {
		return err
	}

	for _, v := range violated {
		repairs, err := s.Repair(v.Label, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nrepairs for %s:\n", v.FD)
		if len(repairs) == 0 {
			fmt.Fprintln(w, "  none found within the configured bounds")
			continue
		}
		tab := texttable.New("", "add to antecedent", "repaired FD", "confidence", "goodness").AlignRight(3)
		for _, rep := range repairs {
			tab.Add("+{"+strings.Join(rep.Added, ",")+"}", rep.FD,
				rep.Measures.ConfidenceRatio, strconv.Itoa(rep.Measures.Goodness))
		}
		if _, err := io.WriteString(w, tab.Render()); err != nil {
			return err
		}
	}
	return nil
}

// runInteractive drives the semi-automatic designer loop on a terminal: one
// validation round over the session. For each violated FD the proposals are
// printed and the designer answers with a number (accept that proposal),
// "s" (skip) or "d" (drop the FD).
func runInteractive(stdin io.Reader, w io.Writer, s *evolvefd.Session, opts evolvefd.Options) error {
	reader := bufio.NewScanner(stdin)
	var summary strings.Builder
	for i, v := range s.Check() {
		repairs, err := s.Repair(v.Label, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nviolated: %s  (%s)\n", v.FD, measuresText(v.Measures))
		fmt.Fprintf(&summary, "%d. %s  (%s, rank %.3f)\n", i+1, v.FD, measuresText(v.Measures), v.Rank)
		if len(repairs) == 0 {
			fmt.Fprintln(w, "  no repair exists; [s]kip or [d]rop?")
		} else {
			for j, rep := range repairs {
				fmt.Fprintf(w, "  [%d] add {%s}  (%s)\n", j+1, strings.Join(rep.Added, ","), measuresText(rep.Measures))
				fmt.Fprintf(&summary, "     candidate +{%s} (%s)\n", strings.Join(rep.Added, ","), measuresText(rep.Measures))
			}
			fmt.Fprintln(w, "  accept which? number, [s]kip, or [d]rop")
		}
		switch choice := askDecision(reader, w, len(repairs)); {
		case choice > 0:
			if err := s.Accept(v.Label, repairs[choice-1]); err != nil {
				return err
			}
			fmt.Fprintf(&summary, "   → accepted: %s\n", repairs[choice-1].FD)
		case choice < 0:
			if err := s.Drop(v.Label); err != nil {
				return err
			}
			summary.WriteString("   → dropped\n")
		default:
			summary.WriteString("   → skipped\n")
		}
	}
	if summary.Len() == 0 {
		summary.WriteString("all functional dependencies are satisfied\n")
	}
	fmt.Fprintf(w, "\nsession summary:\n%s", summary.String())
	if s.Consistent() {
		fmt.Fprintln(w, "all remaining dependencies are satisfied")
	} else {
		fmt.Fprintln(w, "some dependencies remain violated")
	}
	return nil
}

// askDecision reads the designer's verdict on n proposals: k ≥ 1 accepts
// proposal k, −1 drops the FD, 0 (also on end of input) skips it.
func askDecision(reader *bufio.Scanner, w io.Writer, n int) int {
	for reader.Scan() {
		switch answer := strings.TrimSpace(strings.ToLower(reader.Text())); answer {
		case "s", "":
			return 0
		case "d":
			return -1
		default:
			if k, err := strconv.Atoi(answer); err == nil && k >= 1 && k <= n {
				return k
			}
			fmt.Fprintln(w, "  ? number, s, or d")
		}
	}
	return 0
}

// measuresText renders measures compactly, e.g. "c=0.500 (2/4), g=-2".
func measuresText(m evolvefd.Measures) string {
	return fmt.Sprintf("c=%.3f (%s), g=%d", m.Confidence, m.ConfidenceRatio, m.Goodness)
}
