package main

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// captureStdout runs fn while stdout is redirected to a pipe.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	runErr := fn()
	w.Close()
	var buf strings.Builder
	chunk := make([]byte, 64*1024)
	for {
		n, err := r.Read(chunk)
		buf.Write(chunk[:n])
		if err != nil {
			break
		}
	}
	return buf.String(), runErr
}

func TestList(t *testing.T) {
	out, err := captureStdout(t, func() error { return run([]string{"-list"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"table1", "table5", "table7", "figure3", "theorem1", "ablation-count"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q", want)
		}
	}
}

// TestReadmeRegistryTable checks that README's registry table lists exactly
// the experiment IDs -list prints.
func TestReadmeRegistryTable(t *testing.T) {
	out, err := captureStdout(t, func() error { return run([]string{"-list"}) })
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		listed = append(listed, strings.Fields(line)[0])
	}
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "| ID | Regenerates |")
	if !ok {
		t.Fatal("README has no registry table")
	}
	table, _, _ = strings.Cut(table, "\n\n")
	var documented []string
	for _, line := range strings.Split(table, "\n") {
		first, _, _ := strings.Cut(strings.TrimPrefix(line, "|"), "|")
		for _, m := range regexp.MustCompile("`([a-z0-9-]+)`").FindAllStringSubmatch(first, -1) {
			documented = append(documented, m[1])
		}
	}
	slices.Sort(listed)
	slices.Sort(documented)
	if !slices.Equal(listed, documented) {
		t.Errorf("README registry table lists %v, -list prints %v", documented, listed)
	}
}

func TestRunSingleExperiment(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-experiment", "table1"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Municipal") || !strings.Contains(out, "Table 1") {
		t.Errorf("table1 output wrong:\n%s", out)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	_, err := captureStdout(t, func() error {
		return run([]string{"-experiment", "table99"})
	})
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v", err)
	}
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("bad flag must error")
	}
}

func TestProfileFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	_, err := captureStdout(t, func() error {
		return run([]string{
			"-experiment", "ablation-parallel", "-scale", "0.002", "-seed", "3",
			"-cpuprofile", cpu, "-memprofile", mem,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, profile := range []string{cpu, mem} {
		if st, err := os.Stat(profile); err != nil || st.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", profile, err)
		}
	}
}

func TestRunAllTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	out, err := captureStdout(t, func() error {
		return run([]string{"-experiment", "all", "-scale", "0.002", "-sf", "0.001", "-seed", "3"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "==== table8") {
		t.Errorf("RunAll output truncated:\n%.2000s", out)
	}
}
