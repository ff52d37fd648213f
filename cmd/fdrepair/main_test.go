package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/evolvefd/evolvefd/internal/datasets"
)

func placesCSV(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "places.csv")
	if err := datasets.Places().WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBatchFindAll(t *testing.T) {
	path := placesCSV(t)
	var out bytes.Buffer
	err := run([]string{"-csv", path, "-fd", "District,Region -> AreaCode", "-all"},
		strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"9 attributes × 11 tuples",
		"violated",
		"+{Municipal}",
		"+{PhNo}",
		"4/4",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	// Municipal (goodness 0) must be listed before PhNo (goodness 3).
	if strings.Index(text, "+{Municipal}") > strings.Index(text, "+{PhNo}") {
		t.Error("repairs not in rank order")
	}
}

// TestParallelismFlagInvariant: -parallelism must change only the wall
// clock, never the printed repairs.
func TestParallelismFlagInvariant(t *testing.T) {
	path := placesCSV(t)
	elapsed := regexp.MustCompile(`evaluated in [^)]+\)`)
	outputs := make([]string, 0, 3)
	for _, workers := range []string{"1", "2", "8"} {
		var out bytes.Buffer
		err := run([]string{
			"-csv", path, "-fd", "District,Region -> AreaCode", "-all",
			"-parallelism", workers,
		}, strings.NewReader(""), &out)
		if err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, elapsed.ReplaceAllString(out.String(), "evaluated)"))
	}
	for i := 1; i < len(outputs); i++ {
		if outputs[i] != outputs[0] {
			t.Fatalf("output differs between -parallelism settings:\n%s\n----\n%s",
				outputs[0], outputs[i])
		}
	}
}

func TestBatchSatisfiedFD(t *testing.T) {
	path := placesCSV(t)
	var out bytes.Buffer
	err := run([]string{"-csv", path, "-fd", "District -> Region"},
		strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "satisfied") {
		t.Errorf("satisfied FD not reported:\n%s", out.String())
	}
	if strings.Contains(out.String(), "repairs for") {
		t.Error("satisfied FD must not trigger a repair search")
	}
}

func TestBatchNoRepairExists(t *testing.T) {
	path := placesCSV(t)
	var out bytes.Buffer
	err := run([]string{"-csv", path, "-fd", "PhNo, Zip -> Street"},
		strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "none found") {
		t.Errorf("unrepairable FD must say so:\n%s", out.String())
	}
}

func TestGoodnessThresholdFlag(t *testing.T) {
	path := placesCSV(t)
	var out bytes.Buffer
	err := run([]string{"-csv", path, "-fd", "District,Region -> AreaCode", "-all", "-max-goodness", "0"},
		strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "+{PhNo}") {
		t.Error("goodness threshold should filter PhNo (g=3)")
	}
	if !strings.Contains(out.String(), "+{Municipal}") {
		t.Error("Municipal (g=0) should survive the threshold")
	}
}

func TestInteractiveAcceptAndDrop(t *testing.T) {
	path := placesCSV(t)
	var out bytes.Buffer
	// F1 proposals → accept the first; F3 has none → drop.
	stdin := strings.NewReader("1\nd\n")
	err := run([]string{
		"-csv", path, "-interactive",
		"-fd", "District,Region -> AreaCode",
		"-fd", "PhNo, Zip -> Street",
	}, stdin, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"accepted", "dropped", "all remaining dependencies are satisfied"} {
		if !strings.Contains(text, want) {
			t.Errorf("interactive output missing %q:\n%s", want, text)
		}
	}
}

func TestInteractiveSkipLeavesViolation(t *testing.T) {
	path := placesCSV(t)
	var out bytes.Buffer
	err := run([]string{"-csv", path, "-interactive", "-fd", "District,Region -> AreaCode"},
		strings.NewReader("s\n"), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "some dependencies remain violated") {
		t.Errorf("skip must leave violations:\n%s", out.String())
	}
}

func TestInteractiveBadInputReprompts(t *testing.T) {
	path := placesCSV(t)
	var out bytes.Buffer
	err := run([]string{"-csv", path, "-interactive", "-fd", "District,Region -> AreaCode"},
		strings.NewReader("zzz\n99\n1\n"), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "accepted") {
		t.Errorf("re-prompt then accept failed:\n%s", out.String())
	}
}

func TestFlagErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fd", "a -> b"}, strings.NewReader(""), &out); err == nil {
		t.Error("missing -csv must error")
	}
	path := placesCSV(t)
	if err := run([]string{"-csv", path}, strings.NewReader(""), &out); err == nil {
		t.Error("missing -fd must error")
	}
	if err := run([]string{"-csv", path, "-fd", "Ghost -> District"}, strings.NewReader(""), &out); err == nil {
		t.Error("bad FD must error")
	}
	if err := run([]string{"-csv", path, "-fd", "District -> Region", "-strategy", "sort"},
		strings.NewReader(""), &out); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Errorf("-strategy must be an unknown flag, got %v", err)
	}
	if err := run([]string{"-csv", "/nonexistent.csv", "-fd", "a -> b"}, strings.NewReader(""), &out); err == nil {
		t.Error("missing file must error")
	}
}

func TestFDListFlag(t *testing.T) {
	var l fdList
	if err := l.Set("a -> b"); err != nil {
		t.Fatal(err)
	}
	if err := l.Set("c -> d"); err != nil {
		t.Fatal(err)
	}
	if l.String() != "a -> b; c -> d" {
		t.Fatalf("String = %q", l.String())
	}
}

func TestDiscoverMode(t *testing.T) {
	path := placesCSV(t)
	var out bytes.Buffer
	err := run([]string{"-csv", path, "-discover", "-max-lhs", "1"},
		strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	// Municipal → AreaCode is exact on Places (Table 1's best candidate).
	if !strings.Contains(text, "[Municipal] -> [AreaCode]") {
		t.Errorf("discover output missing Municipal→AreaCode:\n%s", text)
	}
	if !strings.Contains(text, "minimal FDs found") {
		t.Errorf("summary line missing:\n%s", text)
	}
}

func TestBalancedFlag(t *testing.T) {
	path := placesCSV(t)
	var out bytes.Buffer
	err := run([]string{"-csv", path, "-fd", "District,Region -> AreaCode", "-balanced"},
		strings.NewReader(""), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "+{Municipal}") {
		t.Errorf("balanced repair output wrong:\n%s", out.String())
	}
}

// TestReadmeFlagTable keeps README's fdrepair flag table honest: every flag
// it documents must be defined, so a deleted flag cannot linger in the docs.
func TestReadmeFlagTable(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "**`fdrepair`**")
	if !ok {
		t.Fatal("README has no fdrepair section")
	}
	_, table, _ := strings.Cut(section, "| Flag | Meaning |")
	table, _, _ = strings.Cut(table, "\n\n")
	row := regexp.MustCompile("(?m)^\\| `(-[a-z-]+)")
	flags := row.FindAllStringSubmatch(table, -1)
	if len(flags) == 0 {
		t.Fatal("README's fdrepair flag table is empty")
	}
	for _, m := range flags {
		err := run([]string{m[1]}, strings.NewReader(""), &bytes.Buffer{})
		if err != nil && strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("README documents %s, which fdrepair does not define", m[1])
		}
	}
}
