// Command benchmark is the repository's benchmark: four workloads that each
// run the paper's periodic-validation loop end to end — serve traffic on
// durable tenants, crash and recover, repair, discover and evolve — check
// every output against a naive oracle, and print every metric by name.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 24

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object a run prints last.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload name, or all")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", defaultSeconds, "measured time per run on the reference host; the fixed op counts grow and shrink with it")
	trace := fs.Int("trace", 0, "1: traced run, prints the per-layer metrics and the ledger")
	traceOut := fs.String("trace-out", "", "traced run: write the spans to this file as JSON lines")
	scaleName := fs.String("scale", "full", "full or smoke (about 1/50 of the sizes)")
	aa := fs.Int("aa", 0, "A/A mode: run two sets of N untraced runs per workload and compare their medians")
	dataDir := fs.String("datadir", "", "scratch directory for tenant state (default: .bench_build/run-<pid>)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sc, ok := scales[*scaleName]
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown scale %q\n", *scaleName)
		return 2
	}
	var selected []plan
	if *workload == "all" {
		selected = plans
	} else {
		p, err := planByName(*workload)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		selected = []plan{p}
	}
	if *dataDir == "" {
		*dataDir = filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	}
	if *aa > 0 {
		return runAA(selected, *aa, *seed, *seconds, *scaleName, stdout, stderr)
	}

	code := 0
	for _, p := range selected {
		cfg := runConfig{
			plan: p.sized(sc, *seconds), scale: sc, seed: *seed, seconds: *seconds,
			trace: *trace != 0, traceOut: *traceOut, dataDir: *dataDir,
		}
		res, err := runWorkload(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", p.name, err)
			return 1
		}
		line, err := report(stdout, cfg, res)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", p.name, err)
			return 1
		}
		fmt.Fprintln(stdout, line)
		if res.verdict.failed > 0 {
			for _, msg := range res.verdict.messages {
				fmt.Fprintln(stderr, "benchmark: FAILED:", msg)
			}
			code = 1
		}
	}
	return code
}

// report prints the run for a reader — environment, notes, every metric
// with its unit, the ledger — and returns the result line: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func report(w io.Writer, cfg runConfig, res *runResult) (string, error) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  scale %s  trace %v\n",
		cfg.plan.name, cfg.seed, cfg.seconds, cfg.scale.name, cfg.trace)
	fmt.Fprintf(w, "%s rows(tenant/repair/discover)=%d/%d/%d\n",
		envLine(), cfg.plan.serve.rows, cfg.plan.repair.rows, cfg.plan.discover.rows)
	for _, note := range res.notes {
		fmt.Fprintln(w, " ", note)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	out := resultLine{
		Correct:   res.verdict.failed == 0,
		Attempted: res.verdict.attempted,
		Failed:    res.verdict.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, group := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range group {
			if val, ok := res.metrics[d.name]; ok {
				fmt.Fprintf(w, "  %-42s %16.4f %s\n", d.name, val, d.unit)
			}
		}
	}
	for _, d := range defs {
		val, ok := res.metrics[d.name]
		if !ok || math.IsNaN(val) || math.IsInf(val, 0) {
			return "", fmt.Errorf("metric %s was not measured (%v)", d.name, val)
		}
		out.Metrics[d.name] = metricValue{Value: val, Unit: d.unit}
	}
	if res.ledger != nil {
		printLedger(w, res.ledger)
	}
	line, err := json.Marshal(out)
	return string(line), err
}

func envLine() string {
	return fmt.Sprintf("env: cores=%d GOMAXPROCS=%d go=%s commit=%s clients=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), numClients())
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
