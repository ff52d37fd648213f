package core

import (
	"testing"

	"github.com/evolvefd/evolvefd/internal/pli"
	"github.com/evolvefd/evolvefd/internal/relation"
)

// appendRelation builds a small relation with appendable rows for cache
// tests: a, b, c string columns.
func appendRelation(t *testing.T, rows [][]string) *relation.Relation {
	t.Helper()
	schema, err := relation.SchemaOf("a", "b", "c")
	if err != nil {
		t.Fatal(err)
	}
	r := relation.New("t", schema)
	for _, row := range rows {
		if err := r.AppendStrings(row...); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func cacheFDs(t *testing.T, r *relation.Relation) (ab, ac FD) {
	t.Helper()
	var err error
	if ab, err = ParseFD(r.Schema(), "Fab", "a -> b"); err != nil {
		t.Fatal(err)
	}
	if ac, err = ParseFD(r.Schema(), "Fac", "a -> c"); err != nil {
		t.Fatal(err)
	}
	return ab, ac
}

func TestMeasureCacheAgreesWithCompute(t *testing.T) {
	r := appendRelation(t, [][]string{
		{"x", "1", "p"}, {"x", "2", "p"}, {"y", "1", "q"},
	})
	fdAB, fdAC := cacheFDs(t, r)
	mc := NewMeasureCache(pli.NewIncrementalCounter(r))
	for _, fd := range []FD{fdAB, fdAC} {
		want := Compute(pli.NewPLICounter(r), fd)
		if got := mc.Compute(fd); got != want {
			t.Fatalf("%s: cached measures %+v, want %+v", fd.Label, got, want)
		}
	}
}

func TestMeasureCacheReusesUnchangedFDs(t *testing.T) {
	r := appendRelation(t, [][]string{
		{"x", "1", "p"}, {"x", "2", "p"}, {"y", "1", "q"},
	})
	fdAB, fdAC := cacheFDs(t, r)
	mc := NewMeasureCache(pli.NewIncrementalCounter(r))
	mc.Compute(fdAB)
	mc.Compute(fdAC)
	if hits, misses := mc.Stats(); hits != 0 || misses != 2 {
		t.Fatalf("cold stats = %d/%d, want 0 hits 2 misses", hits, misses)
	}
	// Same instance: both recomputations are hits.
	mc.Compute(fdAB)
	mc.Compute(fdAC)
	if hits, _ := mc.Stats(); hits != 2 {
		t.Fatalf("warm hits = %d, want 2", hits)
	}
	// Append a tuple that duplicates an existing (a,b) pair but introduces a
	// fresh c value: a→b's three projections are unchanged (hit), a→c's π_C
	// and π_AC grew (miss).
	if err := r.AppendStrings("x", "1", "r"); err != nil {
		t.Fatal(err)
	}
	mAB := mc.Compute(fdAB)
	mAC := mc.Compute(fdAC)
	hits, misses := mc.Stats()
	if hits != 3 || misses != 3 {
		t.Fatalf("post-append stats = %d hits %d misses, want 3/3", hits, misses)
	}
	// Both answers must still equal a from-scratch computation.
	if want := Compute(pli.NewPLICounter(r), fdAB); mAB != want {
		t.Fatalf("a→b after append = %+v, want %+v", mAB, want)
	}
	if want := Compute(pli.NewPLICounter(r), fdAC); mAC != want {
		t.Fatalf("a→c after append = %+v, want %+v", mAC, want)
	}
}

func TestMeasureCacheEvict(t *testing.T) {
	r := appendRelation(t, [][]string{
		{"x", "1", "p"}, {"x", "2", "p"}, {"y", "1", "q"},
	})
	fdAB, fdAC := cacheFDs(t, r)
	mc := NewMeasureCache(pli.NewIncrementalCounter(r))
	mc.Compute(fdAB)
	mc.Compute(fdAC)
	if got := mc.Size(); got != 2 {
		t.Fatalf("size = %d, want 2", got)
	}
	mc.Evict(fdAB)
	if got := mc.Size(); got != 1 {
		t.Fatalf("size after evict = %d, want 1", got)
	}
	// The evicted FD recomputes (a fresh miss); the survivor still hits.
	mc.Compute(fdAB)
	mc.Compute(fdAC)
	if hits, misses := mc.Stats(); hits != 1 || misses != 3 {
		t.Fatalf("post-evict stats = %d hits %d misses, want 1/3", hits, misses)
	}
	// Evicting an absent entry is a no-op.
	mc.Evict(fdAB)
	mc.Evict(fdAB)
	if got := mc.Size(); got != 1 {
		t.Fatalf("size after double evict = %d, want 1", got)
	}
}

func TestMeasureCacheEmptyRelationGenerations(t *testing.T) {
	// Regression for the empty-relation stamp bug: measures computed on an
	// empty instance (vacuously exact) must not be reused after the first
	// rows arrive.
	r := appendRelation(t, nil)
	fdAB, _ := cacheFDs(t, r)
	mc := NewMeasureCache(pli.NewIncrementalCounter(r))
	if m := mc.Compute(fdAB); !m.Exact() {
		t.Fatalf("empty instance must be vacuously exact, got %+v", m)
	}
	for _, row := range [][]string{{"x", "1", "p"}, {"x", "2", "p"}} {
		if err := r.AppendStrings(row...); err != nil {
			t.Fatal(err)
		}
	}
	m := mc.Compute(fdAB)
	if m.Exact() {
		t.Fatalf("a → b is violated by the appended rows, got stale %+v", m)
	}
	if want := Compute(pli.NewPLICounter(r), fdAB); m != want {
		t.Fatalf("post-append measures = %+v, want %+v", m, want)
	}
}

func TestOrderFDsCachedMatchesOrderFDs(t *testing.T) {
	r := appendRelation(t, [][]string{
		{"x", "1", "p"}, {"x", "2", "p"}, {"y", "1", "q"}, {"z", "3", "q"},
	})
	fdAB, fdAC := cacheFDs(t, r)
	fds := []FD{fdAB, fdAC}
	mc := NewMeasureCache(pli.NewIncrementalCounter(r))
	got := OrderFDsCached(mc, fds, ScopeAllAttributes)
	want := OrderFDs(pli.NewPLICounter(r), fds, ScopeAllAttributes)
	if len(got) != len(want) {
		t.Fatalf("len = %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i].FD.Label != want[i].FD.Label || got[i].Rank != want[i].Rank ||
			got[i].Measures != want[i].Measures {
			t.Fatalf("rank %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestMeasureCacheSurvivesCompaction(t *testing.T) {
	r := appendRelation(t, [][]string{
		{"x", "1", "p"}, {"x", "1", "p"}, {"x", "2", "p"}, {"y", "1", "q"},
	})
	fdAB, fdAC := cacheFDs(t, r)
	counter := pli.NewIncrementalCounter(r)
	mc := NewMeasureCache(counter)
	m0, m1 := mc.Compute(fdAB), mc.Compute(fdAC)
	// Delete one half of the duplicated (x,1,p) pair: no projection count
	// changes, then squeeze the tombstone out. The remap preserves the count
	// stamps, so both measures must be served from cache across the epoch
	// boundary — and still agree with a from-scratch computation.
	if err := counter.Delete(1); err != nil {
		t.Fatal(err)
	}
	if counter.Compact() == nil {
		t.Fatal("Compact returned nil with a tombstone present")
	}
	if got := mc.Compute(fdAB); got != m0 {
		t.Fatalf("a→b changed across compaction: %+v vs %+v", got, m0)
	}
	if got := mc.Compute(fdAC); got != m1 {
		t.Fatalf("a→c changed across compaction: %+v vs %+v", got, m1)
	}
	if hits, misses := mc.Stats(); hits != 2 || misses != 2 {
		t.Fatalf("post-compaction stats = %d hits %d misses, want 2/2", hits, misses)
	}
	if got := mc.EpochSurvivals(); got != 2 {
		t.Fatalf("EpochSurvivals = %d, want 2", got)
	}
	for _, fd := range []FD{fdAB, fdAC} {
		if want, got := Compute(pli.NewPLICounter(r), fd), mc.Compute(fd); got != want {
			t.Fatalf("%s post-compaction = %+v, want %+v", fd.Label, got, want)
		}
	}
	// A second epoch: this time the compaction follows a delete that does
	// change a→b's projections (the only y row — id 2 in the new epoch —
	// leaves), so a→b recomputes while nothing is wrongly reused.
	if err := counter.Delete(2); err != nil {
		t.Fatal(err)
	}
	if counter.Compact() == nil {
		t.Fatal("second Compact returned nil")
	}
	for _, fd := range []FD{fdAB, fdAC} {
		if want, got := Compute(pli.NewPLICounter(r), fd), mc.Compute(fd); got != want {
			t.Fatalf("%s after epoch 2 = %+v, want %+v", fd.Label, got, want)
		}
	}
}
