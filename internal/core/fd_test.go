package core

import (
	"strings"
	"testing"

	"github.com/evolvefd/evolvefd/internal/bitset"
	"github.com/evolvefd/evolvefd/internal/relation"
)

func placesSchema(t testing.TB) *relation.Schema {
	t.Helper()
	s, err := relation.SchemaOf(
		"District", "Region", "Municipal", "AreaCode", "PhNo",
		"Street", "Zip", "City", "State")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewFDValidation(t *testing.T) {
	if _, err := NewFD("F", bitset.Set{}, bitset.New(1)); err == nil {
		t.Error("empty antecedent must be rejected")
	}
	if _, err := NewFD("F", bitset.New(0), bitset.Set{}); err == nil {
		t.Error("empty consequent must be rejected")
	}
	if _, err := NewFD("F", bitset.New(0, 1), bitset.New(1)); err == nil {
		t.Error("overlapping antecedent/consequent must be rejected")
	}
	fd, err := NewFD("F", bitset.New(0, 1), bitset.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if fd.Size() != 3 {
		t.Errorf("Size = %d, want 3", fd.Size())
	}
}

func TestNewFDClonesInputs(t *testing.T) {
	x, y := bitset.New(0), bitset.New(1)
	fd := MustFD("F", x, y)
	x.Add(5)
	if fd.X.Contains(5) {
		t.Fatal("FD must clone its attribute sets")
	}
}

func TestParseFD(t *testing.T) {
	s := placesSchema(t)
	fd, err := ParseFD(s, "F1", "District, Region -> AreaCode")
	if err != nil {
		t.Fatal(err)
	}
	if !fd.X.Equal(bitset.New(0, 1)) || !fd.Y.Equal(bitset.New(3)) {
		t.Fatalf("parsed FD wrong: %v", fd)
	}
	// Paper's bracketed style with the unicode arrow.
	fd2, err := ParseFD(s, "F1", "[District, Region] → [AreaCode]")
	if err != nil {
		t.Fatal(err)
	}
	if !fd.Equal(fd2) {
		t.Fatal("bracketed form should parse identically")
	}
	if got := fd.FormatWith(s); got != "F1: [District, Region] -> [AreaCode]" {
		t.Fatalf("FormatWith = %q", got)
	}
}

func TestParseFDErrors(t *testing.T) {
	s := placesSchema(t)
	for _, bad := range []string{
		"District, Region",     // no arrow
		"-> AreaCode",          // empty antecedent
		"District ->",          // empty consequent
		"Ghost -> AreaCode",    // unknown attribute
		"District -> Ghost",    // unknown consequent
		"District -> District", // trivial
	} {
		if _, err := ParseFD(s, "F", bad); err == nil {
			t.Errorf("ParseFD(%q) should fail", bad)
		}
	}
}

func TestDecompose(t *testing.T) {
	s := placesSchema(t)
	fd, err := ParseFD(s, "F2", "Zip -> City, State")
	if err != nil {
		t.Fatal(err)
	}
	parts := fd.Decompose()
	if len(parts) != 2 {
		t.Fatalf("decompose len = %d", len(parts))
	}
	if parts[0].FormatWith(s) != "F2.1: [Zip] -> [City]" {
		t.Errorf("part 0 = %s", parts[0].FormatWith(s))
	}
	if parts[1].FormatWith(s) != "F2.2: [Zip] -> [State]" {
		t.Errorf("part 1 = %s", parts[1].FormatWith(s))
	}
	// Single-consequent FDs decompose to themselves, keeping the label.
	single, _ := ParseFD(s, "F1", "District -> AreaCode")
	if got := single.Decompose(); len(got) != 1 || got[0].Label != "F1" {
		t.Fatalf("single decompose = %v", got)
	}
}

func TestOverlapAndExtension(t *testing.T) {
	s := placesSchema(t)
	f2, _ := ParseFD(s, "F2", "Zip -> City, State")
	f3, _ := ParseFD(s, "F3", "PhNo, Zip -> Street")
	if got := f2.Overlap(f3); got != 1 { // Zip
		t.Fatalf("overlap = %d, want 1", got)
	}
	ext := f2.WithExtendedAntecedent(bitset.New(0))
	if !ext.X.Equal(bitset.New(0, 6)) || !ext.Y.Equal(f2.Y) {
		t.Fatalf("extension wrong: %v", ext)
	}
	if !strings.HasPrefix(ext.Label, "F2") {
		t.Fatalf("extension label = %q", ext.Label)
	}
	// Extending must not mutate the original.
	if f2.X.Contains(0) {
		t.Fatal("WithExtendedAntecedent mutated the source FD")
	}
}

func TestFDString(t *testing.T) {
	fd := MustFD("F", bitset.New(0), bitset.New(1))
	if got := fd.String(); got != "F: {0} -> {1}" {
		t.Fatalf("String = %q", got)
	}
	anon := MustFD("", bitset.New(2), bitset.New(3))
	if got := anon.String(); got != "{2} -> {3}" {
		t.Fatalf("String = %q", got)
	}
	// Discovery's cover is unlabelled; the facade renders it with FormatWith.
	if got := anon.FormatWith(placesSchema(t)); got != "[Municipal] -> [AreaCode]" {
		t.Fatalf("unlabelled FormatWith = %q", got)
	}
}
