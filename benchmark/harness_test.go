package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, tc := range []struct{ p, want float64 }{
		{50, 50}, {95, 100}, {90, 90}, {91, 100}, {10, 10}, {1, 10}, {100, 100},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(p%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{15, 50}, {20, 50}, {40, 75}, {100, 90}, {200, 95}, {1000, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", tc.n, got, tc.want)
		}
	}
}

func TestMedianAndQuartileSpreadMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	xs := []float64{9, 1, 4, 10, 2, 7, 3, 8, 5, 6}
	if got := median(xs); got != 5.5 {
		t.Errorf("median = %g, want 5.5", got)
	}
	if got := quartileSpread(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("quartileSpread = %g, want 1", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0].
	if got := quartileSpread([]float64{4, 1, 2}); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("quartileSpread of three = %g, want 1.5", got)
	}
}

func TestSelfTimeSubtractsMergedChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "serve.handler", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "wal.write", Start: 20, End: 30},
		{ID: 4, Parent: 2, Name: "wal.fsync", Start: 25, End: 60},  // overlaps span 3
		{ID: 5, Parent: 2, Name: "wal.fsync", Start: 80, End: 120}, // runs past its parent
	}
	self := selfTimes(spans)
	want := map[int32]int64{1: 20, 2: 80 - 40 - 10, 3: 10, 4: 35, 5: 40}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestSpanAnalysisAttributesWALToItsRequest(t *testing.T) {
	tr := newTracer()
	c := tr.startOp("client.request", "append", 0)
	h := tr.start("serve.handler", c)
	tr.bind(h)
	parent := tr.bound()
	w := tr.start("wal.write", parent)
	tr.endN(w, 114)
	s := tr.start("wal.fsync", parent)
	tr.end(s)
	tr.unbind()
	tr.end(h)
	tr.endN(c, 16)
	if id := tr.bound(); id != 0 {
		t.Fatalf("goroutine still bound to span %d after unbind", id)
	}
	a := analyseSpans(tr.snapshot())
	if len(a.requests) != 1 {
		t.Fatalf("%d requests, want 1", len(a.requests))
	}
	r := a.requests[0]
	if r.op != "append" || r.rows != 16 || r.writes != 1 || r.fsyncs != 1 || r.walBytes != 114 {
		t.Errorf("request = %+v", r)
	}
	if r.clientUs < r.handlerUs || r.handlerUs < r.walUs {
		t.Errorf("spans do not nest: client %g, handler %g, wal %g", r.clientUs, r.handlerUs, r.walUs)
	}
}

func TestCrashFSCutsFilesBackToSyncedLength(t *testing.T) {
	dir := t.TempDir()
	cfs := newCrashFS(nil)
	logPath := filepath.Join(dir, "wal.log")
	f, err := cfs.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("0123456789"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("ABCDE")) // acknowledged by nobody: never synced

	// A snapshot written to a temp name, synced, then renamed keeps its
	// bytes under the new name; an unsynced one is cut to nothing.
	tmp, name, err := cfs.CreateTemp(dir, "snap-*")
	if err != nil {
		t.Fatal(err)
	}
	tmp.Write([]byte("snapshot"))
	tmp.Sync()
	tmp.Close()
	snapPath := filepath.Join(dir, "snapshot-1")
	if err := cfs.Rename(name, snapPath); err != nil {
		t.Fatal(err)
	}
	loose, err := cfs.Create(filepath.Join(dir, "loose"))
	if err != nil {
		t.Fatal(err)
	}
	loose.Write([]byte("xyz"))

	if got := cfs.totals(dir); got.writes != 4 || got.fsyncs != 2 || got.bytes != 10+5+8+3 {
		t.Errorf("totals = %+v", got)
	}
	lost, err := cfs.Crash()
	if err != nil {
		t.Fatal(err)
	}
	if lost != 5+3 {
		t.Errorf("lost %d bytes, want 8", lost)
	}
	for path, want := range map[string]string{logPath: "0123456789", snapPath: "snapshot", filepath.Join(dir, "loose"): ""} {
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Errorf("%s holds %q (%v), want %q", filepath.Base(path), got, err, want)
		}
	}
}

func TestCrashFSTakesExistingBytesAsDurable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	if err := os.WriteFile(path, []byte("recovered"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfs := newCrashFS(nil)
	f, err := cfs.OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("+tail"))
	if _, err := cfs.Crash(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "recovered" {
		t.Errorf("file holds %q, want %q", got, "recovered")
	}
}

func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	_, a := genTable(500, rand.New(rand.NewSource(7)))
	_, b := genTable(500, rand.New(rand.NewSource(7)))
	_, c := genTable(500, rand.New(rand.NewSource(8)))
	same, differs := true, false
	for i := range a {
		same = same && a[i] == b[i]
		differs = differs || a[i] != c[i]
	}
	if !same || !differs {
		t.Errorf("same seed equal: %v; other seed differs: %v", same, differs)
	}
}

func TestCellTextIsInjective(t *testing.T) {
	if len(commentWords) < numCommentWord {
		t.Fatalf("%d comment words, need %d", len(commentWords), numCommentWord)
	}
	seen := make(map[string]bool)
	for _, w := range commentWords[:numCommentWord] {
		if seen[w] {
			t.Errorf("comment word %q repeats: two codes would render the same text", w)
		}
		seen[w] = true
	}
	d := domainsFor(10000)
	rng := rand.New(rand.NewSource(1))
	for _, seed := range []int64{1, 2, 3} {
		cd := newCodec(d, seed)
		for c := 0; c < numCols; c++ {
			text := make(map[string]int32)
			lo, size := d.extent(c)
			for i := 0; i < 2000; i++ {
				code := d.draw(c, rng)
				if sp := cd.spell(c, code); int(sp) < lo || int(sp) >= lo+size {
					t.Fatalf("column %s: code %d spelled %d, outside [%d, %d)", colNames[c], code, sp, lo, lo+size)
				}
				s := string(cd.appendCell(nil, c, code))
				if prev, ok := text[s]; ok && prev != code {
					t.Fatalf("column %s: codes %d and %d both render %q", colNames[c], prev, code, s)
				}
				text[s] = code
			}
		}
	}
	// Small extents are permuted completely: every code, every spelling.
	cd := newCodec(d, 9)
	for _, c := range []int{colLinenumber, colReturnflag, colLinestatus, colShipmode, colShipdate} {
		lo, size := d.extent(c)
		seen := make(map[int32]bool)
		for code := lo; code < lo+size; code++ {
			seen[cd.spell(c, int32(code))] = true
		}
		if len(seen) != size {
			t.Errorf("column %s: %d codes spell %d values", colNames[c], size, len(seen))
		}
	}
	// With the identity spelling the text is the code's plain rendering.
	cd = &codec{domains: d}
	for c := range cd.mul {
		cd.mul[c] = 1
	}
	r := row{1, 2, 3, 4, 5, 90000, 10, 8, 1, 0, 0, numDates - 1, 29, 2, 4, 65}
	want := []string{"1", "2", "3", "4", "5", "900.00", "0.10", "0.08", "N", "F",
		"1992-01-01", "1998-12-28", "1992-02-02", "NONE", "REG AIR", "above above about"}
	for c, cell := range cd.cells(r) {
		if cell != want[c] {
			t.Errorf("%s renders %q, want %q", colNames[c], cell, want[c])
		}
	}
	if cd.textLen(r) != len("12345900.000.100.08NF1992-01-011998-12-281992-02-02NONEREG AIRabove above about") {
		t.Errorf("textLen = %d", cd.textLen(r))
	}
}

func TestMirrorCompactionRenumbersLikeTheRelation(t *testing.T) {
	dom, rows := genTable(300, rand.New(rand.NewSource(3)))
	cd := newCodec(dom, 17)
	mir := newMirror(rows)
	rel, err := loadRelation("t", cd, rows)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for round := 0; round < 3; round++ {
		ids := mir.pickLive(40, rng)
		if err := rel.Delete(ids...); err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			mir.delete(id)
		}
		for i := 0; i < 25; i++ {
			r := cd.fresh(rng)
			if err := rel.AppendStrings(cd.cells(r)...); err != nil {
				t.Fatal(err)
			}
			mir.append(r)
		}
		rel.Compact()
		mir.compact()
		if rel.NumRows() != len(mir.rows) || rel.LiveRows() != mir.liveRows() {
			t.Fatalf("round %d: relation has %d rows, mirror %d", round, rel.NumRows(), len(mir.rows))
		}
		// Same ids, same tuples: the ids a client sends next stay valid.
		for id := range mir.rows {
			one := newMirror(mir.rows[id : id+1])
			other, err := rel.Filter("one", func(r int) bool { return r == id })
			if err != nil {
				t.Fatal(err)
			}
			if relationHash(other) != one.contentHash(cd) {
				t.Fatalf("round %d: row %d differs after compaction", round, id)
			}
		}
		for _, id := range mir.pickLive(50, rng) {
			if mir.dead[id] || mir.pos[id] < 0 || mir.live[mir.pos[id]] != int32(id) {
				t.Fatalf("round %d: live index broken at id %d", round, id)
			}
		}
	}
	if relationHash(rel) != mir.contentHash(cd) {
		t.Error("content digests differ")
	}
}

func TestOracleCountsAndExactness(t *testing.T) {
	// a -> b holds (1→1, 2→2), a -> c does not (a=1 maps to c 7 and 8).
	mk := func(a, b, c int32) row { return row{a, b, c} }
	mir := newMirror([]row{mk(1, 1, 7), mk(1, 1, 8), mk(2, 2, 7), mk(2, 2, 7), mk(3, 2, 9)})
	if got := mir.distinct([]int{0}); got != 3 {
		t.Errorf("distinct(a) = %d, want 3", got)
	}
	if got := mir.distinct([]int{0, 2}); got != 4 {
		t.Errorf("distinct(a,c) = %d, want 4", got)
	}
	if !mir.exact([]int{0}, 1) || mir.exact([]int{0}, 2) {
		t.Error("exactness of a->b / a->c wrong")
	}
	if got := mir.counts([]int{0}, 2); got.ratio() != "3/4" || got.goodness() != 0 || got.exact() {
		t.Errorf("counts(a->c) = %+v", got)
	}
	mir.delete(1) // removes the (1,1,8) tuple: a -> c now holds
	if !mir.exact([]int{0}, 2) || mir.distinct([]int{0, 2}) != 3 {
		t.Error("tombstoned row still counted")
	}

	// All sixteen columns overflow 64 bits several times over: the densify
	// path must still tell rows apart exactly.
	_, rows := genTable(2000, rand.New(rand.NewSource(5)))
	rows = append(rows, rows[10], rows[20]) // two duplicates
	big := newMirror(rows)
	all := make([]int, numCols)
	for c := range all {
		all[c] = c
	}
	naive := make(map[row]bool)
	for _, r := range rows {
		naive[r] = true
	}
	if got := big.distinct(all); got != len(naive) || got > 2000 {
		t.Errorf("distinct over all columns = %d, want %d", got, len(naive))
	}
}

func TestManifestMatchesTheDeclaredMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var manifest struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Workloads) != len(plans) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d plans", len(manifest.Workloads), len(plans))
	}
	for i, p := range plans {
		if w := manifest.Workloads[i]; w.Name != p.name || w.Why != p.why {
			t.Errorf("workload %d: manifest has %q / %q", i, w.Name, w.Why)
		}
		if len(p.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", p.name, len(p.why))
		}
	}
	check := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d declared", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (bounded && g.Bound != d.bound) {
				t.Errorf("%s %d: manifest %+v, declared %+v", kind, i, g, d)
			}
			if bounded && (d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s: bound %g outside (0, 0.25]", d.name, d.bound)
			}
		}
	}
	check("end_to_end", manifest.EndToEnd, endToEnd, true)
	check("per_layer", manifest.PerLayer, perLayer, false)
	if manifest.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the binary's default is %d", manifest.RunSeconds, defaultSeconds)
	}
}

func TestLatencySelectionAndThroughputBySlices(t *testing.T) {
	const traceSlice = 250 * time.Millisecond
	res := &serveResult{wall: 4 * traceSlice, slice: traceSlice}
	for i := 0; i < 40; i++ {
		at := time.Duration(i) * traceSlice / 10 // ten requests per slice
		kind := opCheck
		if i%4 == 0 {
			kind = opAppend
		}
		res.samples = append(res.samples, sample{kind: kind, traced: tracedAt(at, traceSlice), start: int64(at), lat: int64(i+1) * 1e6})
	}
	checks := res.latenciesMs(func(k opKind) bool { return k == opCheck })
	if len(checks) != 30 || checks[0] != 2 || checks[29] != 40 {
		t.Errorf("check latencies = %v", checks)
	}
	perSec := 10 / traceSlice.Seconds()
	if on, off := res.throughputBy(true), res.throughputBy(false); math.Abs(on-perSec) > 1e-9 || math.Abs(off-perSec) > 1e-9 {
		t.Errorf("throughput on/off = %g/%g, want %g", on, off, perSec)
	}
}
