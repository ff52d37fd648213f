package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runAA is the A/A report the bounds are set from: two sets of n untraced
// runs of this same binary, each run a fresh process with its own seed, and
// per workload and end-to-end metric both medians, their relative
// difference in the metric's worse direction, each set's quartile spread,
// and the bound. A metric whose spread or difference does not stay inside
// its bound is not steady enough to gate on.
func runAA(selected []plan, n int, seed int64, seconds float64, scaleName string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, envLine())
	code := 0
	for _, p := range selected {
		var sets [2]map[string][]float64
		for set := range sets {
			sets[set] = make(map[string][]float64)
			for i := 0; i < n; i++ {
				runSeed := seed + int64(set*n+i)
				line, err := runChild(exe, p.name, runSeed, seconds, scaleName, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: %s seed %d: %v\n", p.name, runSeed, err)
					return 1
				}
				if !line.Correct {
					code = 1
				}
				for name, mv := range line.Metrics {
					sets[set][name] = append(sets[set][name], mv.Value)
				}
			}
		}
		fmt.Fprintf(stdout, "\nA/A %s: 2 sets of %d runs, %gs each\n", p.name, n, seconds)
		fmt.Fprintf(stdout, "%-26s %12s %12s %8s %8s %8s %6s\n", "metric", "median A", "median B", "worse%", "iqrA%", "iqrB%", "bound%")
		for _, d := range endToEnd {
			a, b := median(sets[0][d.name]), median(sets[1][d.name])
			worse := (b - a) / a
			if d.better == "higher" {
				worse = -worse
			}
			spreadA, spreadB := quartileSpread(sets[0][d.name]), quartileSpread(sets[1][d.name])
			flag := ""
			if worse > d.bound || max(spreadA, spreadB) > d.bound {
				flag = "  UNSTEADY"
				code = 1
			}
			fmt.Fprintf(stdout, "%-26s %12.4f %12.4f %8.2f %8.2f %8.2f %6.0f%s\n",
				d.name, a, b, 100*worse, 100*spreadA, 100*spreadB, 100*d.bound, flag)
		}
	}
	return code
}

func runChild(exe, workload string, seed int64, seconds float64, scaleName string, stderr io.Writer) (*resultLine, error) {
	cmd := exec.Command(exe,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-scale", scaleName, "-trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &line, nil
}
