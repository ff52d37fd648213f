// fdbench regenerates the paper's tables and figures.
//
// Usage:
//
//	fdbench -list
//	fdbench -experiment table5 -sf 0.01
//	fdbench -experiment all -scale 0.05
//	fdbench -experiment table5 -sf 0.1 -cpuprofile cpu.out
//
// Scale 1 / SF 1 approach the paper's sizes (the "1GB" TPC-H database is
// SF 1); defaults keep every experiment in laptop range. See EXPERIMENTS.md
// for recorded paper-vs-measured results.
//
// -cpuprofile / -memprofile write pprof profiles of the run. Performance is
// measured by benchmark/ (see benchmark/README.md), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"github.com/evolvefd/evolvefd/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fdbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("fdbench", flag.ContinueOnError)
	var (
		experiment  = fs.String("experiment", "all", "experiment id to run, or 'all'")
		list        = fs.Bool("list", false, "list available experiments and exit")
		scale       = fs.Float64("scale", 0, "dataset scale in (0,1]; 0 = default")
		sf          = fs.Float64("sf", 0, "TPC-H scale factor; 0 = default, 1 = paper's 1GB")
		seed        = fs.Int64("seed", 0, "generator seed; 0 = default")
		maxAdded    = fs.Int("max-added", 0, "repair search depth bound; 0 = experiment default")
		parallelism = fs.Int("parallelism", 0, "repair search workers; 0 = GOMAXPROCS")
		cpuprofile  = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile  = fs.String("memprofile", "", "write a pprof heap profile after the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-18s %s\n", e.ID, e.Title)
		}
		return nil
	}
	cfg := bench.Config{
		Scale:       *scale,
		SF:          *sf,
		Seed:        *seed,
		MaxAdded:    *maxAdded,
		Parallelism: *parallelism,
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fdbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile is stable
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "fdbench: memprofile:", err)
			}
		}()
	}

	var selected []bench.Experiment
	if *experiment == "all" {
		selected = bench.All()
	} else {
		e, ok := bench.Lookup(*experiment)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", *experiment)
		}
		selected = []bench.Experiment{e}
	}
	for _, e := range selected {
		if err := bench.RunOne(e, cfg, os.Stdout); err != nil {
			return err
		}
	}
	return nil
}
