// fdrepair is the paper's prototype workflow as a command-line tool: load a
// relation from CSV, declare functional dependencies, detect which ones the
// data violates, and print ranked antecedent extensions that repair them
// (§6: "users connect to a … database and visualize its relations and all
// FDs defined on each relation; then … they can start the process of FD
// validation").
//
// Usage:
//
//	fdrepair -csv places.csv -fd "District,Region -> AreaCode" -fd "Zip -> City,State"
//	fdrepair -csv data.csv -fd "a -> b" -all -max-added 2
//	fdrepair -csv data.csv -fd "a -> b" -interactive   # designer loop
//	fdrepair -csv data.csv -fd "a -> b" -balanced      # §4.4 objective function
//	fdrepair -csv data.csv -discover -max-lhs 2        # §2 discovery baseline
//	fdrepair -csv data.csv -fd "a -> b" -watch         # streaming append/re-check REPL
//	fdrepair -csv data.csv -fd "a -> b" -watch -data-dir state/   # durable REPL
//	fdrepair -watch -data-dir state/                   # recover after a restart
//	fdrepair -follow state/                            # read-only replica of a -watch session
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
	"github.com/evolvefd/evolvefd/internal/discovery"
	"github.com/evolvefd/evolvefd/internal/pli"
	"github.com/evolvefd/evolvefd/internal/relation"
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
		maxLHS      = fs.Int("max-lhs", 2, "antecedent size bound for -discover and the -watch 'disc' command")
		watch       = fs.Bool("watch", false, "streaming REPL: append tuples and re-check incrementally")
		dataDir     = fs.String("data-dir", "", "persist the -watch session (write-ahead log + snapshots) in this directory; rerun with the same directory to recover after a restart")
		follow      = fs.String("follow", "", "tail another fdrepair session's -data-dir as a read-only replica (REPL; no other flags apply)")
		parallelism = fs.Int("parallelism", 0, "repair search workers (0 = GOMAXPROCS, 1 = serial); results are identical at any setting")
	)
	fs.Var(&fds, "fd", "functional dependency \"X1,X2 -> Y\" (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir != "" && !*watch {
		return fmt.Errorf("-data-dir only applies to -watch sessions")
	}
	if *follow != "" {
		if *watch || *csvPath != "" || len(fds) > 0 || *discover || *interactive {
			return fmt.Errorf("-follow is a read-only replica of an existing session; it takes no -csv, -fd, -watch, -discover or -interactive")
		}
		f, err := evolvefd.OpenFollower(*follow, evolvefd.FollowerOptions{})
		if err != nil {
			return err
		}
		if _, err := f.CatchUp(); err != nil {
			fmt.Fprintln(stdout, "warning: initial catch-up failed, serving last checkpoint:", err)
		}
		fmt.Fprintf(stdout, "following %s: %d live tuples, %d FDs at generation %d\n",
			*follow, f.LiveRows(), len(f.Labels()), f.Stats().Seq)
		defer trapSignals(f, stdout)()
		return runFollow(stdin, stdout, f, evolvefd.Options{FirstOnly: !*all, MaxAdded: *maxAdded,
			MinimalOnly: *minimal, Balanced: *balanced, Parallelism: *parallelism}, *maxLHS)
	}
	// A -watch restart recovers relation AND dependencies from the data
	// directory, so neither -csv nor -fd is needed then.
	recovering := *watch && *dataDir != "" && evolvefd.HasSessionState(*dataDir)
	if *csvPath == "" && !recovering {
		return fmt.Errorf("-csv is required")
	}
	if len(fds) == 0 && !*discover && !recovering {
		return fmt.Errorf("at least one -fd is required (or -discover)")
	}
	var rel *relation.Relation
	if !recovering {
		var err error
		rel, err = relation.ReadCSVFile(*csvPath, relation.CSVOptions{InferKinds: true})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "loaded %s: %d attributes × %d tuples\n", rel.Name(), rel.NumCols(), rel.NumRows())
	}

	// -watch and -interactive drive a Session, which counts incrementally;
	// -discover and batch repair count with partitions.
	sessionOpts := evolvefd.Options{
		FirstOnly:   !*all,
		MaxAdded:    *maxAdded,
		MinimalOnly: *minimal,
		Balanced:    *balanced,
		Parallelism: *parallelism,
	}
	if *maxGoodness >= 0 {
		sessionOpts.MaxGoodness = evolvefd.GoodnessLimit(*maxGoodness)
	}
	if *watch {
		var session *evolvefd.Session
		switch {
		case recovering:
			var err error
			session, err = evolvefd.OpenSession(*dataDir)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "recovered session from %s: %d live tuples, %d FDs\n",
				*dataDir, session.LiveRows(), len(session.Labels()))
			if len(fds) > 0 {
				fmt.Fprintln(stdout, "note: -fd flags ignored; dependencies were recovered from the session state")
				fds = nil
			}
		case *dataDir != "":
			var err error
			session, err = evolvefd.NewDurableSession(rel, *dataDir, evolvefd.DurabilityOptions{})
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "persisting session state in %s\n", *dataDir)
		default:
			session = evolvefd.NewSession(rel)
			fmt.Fprintln(stdout, "note: state is ephemeral — set -data-dir to persist this session across restarts")
		}
		if err := defineAll(session, fds); err != nil {
			return err
		}
		defer trapSignals(session, stdout)()
		return runWatch(stdin, stdout, session, sessionOpts, *maxLHS)
	}

	if *interactive && !*discover { // -discover wins over -interactive
		session := evolvefd.NewSession(rel)
		if err := defineAll(session, fds); err != nil {
			return err
		}
		return runInteractive(stdin, stdout, session, sessionOpts)
	}
	if *discover {
		return runDiscover(stdout, pli.NewPLICounter(rel), *maxLHS)
	}
	parsed, err := parseAll(rel.Schema(), fds)
	if err != nil {
		return err
	}

	opts := core.RepairOptions{
		FirstOnly:       !*all,
		MaxAdded:        *maxAdded,
		PruneNonMinimal: *minimal,
		Parallelism:     *parallelism,
		Candidates:      core.CandidateOptions{Parallelism: *parallelism},
	}
	if *balanced {
		opts.Objective = core.ObjectiveBalanced
	}
	if *maxGoodness >= 0 {
		opts.Candidates.MaxGoodness = maxGoodness
	}

	return runBatch(stdout, pli.NewPLICounter(rel), parsed, opts)
}

// parseAll parses the -fd specs as F1, F2, …, decomposing multi-attribute
// consequents into one FD per consequent attribute (F2.1, F2.2, …).
func parseAll(schema *relation.Schema, specs []string) ([]core.FD, error) {
	var parsed []core.FD
	for i, spec := range specs {
		fd, err := core.ParseFD(schema, "F"+strconv.Itoa(i+1), spec)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, fd.Decompose()...)
	}
	return parsed, nil
}

// defineAll declares the -fd specs on a session, so -watch and -interactive
// see the dependency set the batch mode parses.
func defineAll(session *evolvefd.Session, specs []string) error {
	schema := session.Relation().Schema()
	parsed, err := parseAll(schema, specs)
	if err != nil {
		return err
	}
	for _, fd := range parsed {
		body := fmt.Sprintf("[%s] -> [%s]",
			strings.Join(schema.NameSet(fd.X), ", "),
			strings.Join(schema.NameSet(fd.Y), ", "))
		if err := session.Define(fd.Label, body); err != nil {
			return err
		}
	}
	return nil
}

// runDiscover lists the minimal exact FDs of the instance — the §2
// "discover everything" baseline, exposed for comparison.
func runDiscover(w io.Writer, counter pli.SearchCounter, maxLHS int) error {
	schema := counter.Relation().Schema()
	fds, stats := discovery.MinimalFDs(counter, discovery.Options{MaxLHS: maxLHS})
	tab := texttable.New(
		fmt.Sprintf("\nminimal exact FDs with ≤%d antecedent attributes (%d exactness checks)",
			maxLHS, stats.Checked),
		"#", "FD").AlignRight(0)
	for i, fd := range fds {
		tab.Add(fmt.Sprintf("%d", i+1), fd.FormatWith(schema))
	}
	if _, err := io.WriteString(w, tab.Render()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%d minimal FDs found\n", len(fds))
	return err
}

func runBatch(w io.Writer, counter pli.Counter, fds []core.FD, opts core.RepairOptions) error {
	schema := counter.Relation().Schema()
	ranked := core.OrderFDs(counter, fds, core.ScopeAllAttributes)

	status := texttable.New("\nfunctional dependencies (repair order)",
		"FD", "confidence", "goodness", "status", "rank").AlignRight(1, 2, 4)
	for _, rf := range ranked {
		state := "violated"
		if rf.Measures.Exact() {
			state = "satisfied"
		}
		status.Add(rf.FD.FormatWith(schema),
			fmt.Sprintf("%s = %.3f", rf.Measures.ConfidenceRatio(), rf.Measures.Confidence),
			fmt.Sprintf("%d", rf.Measures.Goodness), state,
			fmt.Sprintf("%.3f", rf.Rank))
	}
	if _, err := io.WriteString(w, status.Render()); err != nil {
		return err
	}

	for _, rf := range core.Violated(ranked) {
		res := core.FindRepairs(counter, rf.FD, opts)
		fmt.Fprintf(w, "\nrepairs for %s (%d candidates evaluated in %s):\n",
			rf.FD.FormatWith(schema), res.Stats.Evaluated, res.Stats.Elapsed.Round(100_000).String())
		if len(res.Repairs) == 0 {
			fmt.Fprintln(w, "  none found within the configured bounds")
			continue
		}
		tab := texttable.New("", "add to antecedent", "repaired FD", "confidence", "goodness").AlignRight(3)
		for _, rep := range res.Repairs {
			tab.Add("+{"+schema.FormatSet(rep.Added)+"}",
				rep.FD.FormatWith(schema),
				rep.Measures.ConfidenceRatio(),
				fmt.Sprintf("%d", rep.Measures.Goodness))
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
