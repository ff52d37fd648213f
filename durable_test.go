package evolvefd_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	evolvefd "github.com/evolvefd/evolvefd"
	"github.com/evolvefd/evolvefd/internal/datasets"
	"github.com/evolvefd/evolvefd/internal/relation"
	"github.com/evolvefd/evolvefd/internal/wal"
)

// noFsync keeps the crash-injection suites fast: records still reach the
// file in order (which is what dir copies observe), only the fsync syscall
// is skipped.
var noFsync = evolvefd.DurabilityOptions{GroupCommit: 1, NoFsync: true}

// copyDir snapshots a session data directory into a fresh temp dir — the
// test stand-in for the on-disk state an OS crash would leave behind.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// durState is the comparable footprint of a session used by the crash
// matrix: the bit-exact relation serialization plus the FD set.
type durState struct {
	rel    string
	labels []string
	live   int
}

func captureState(s *evolvefd.Session) durState {
	return durState{
		rel:    string(s.Relation().AppendBinary(nil)),
		labels: s.Labels(),
		live:   s.LiveRows(),
	}
}

func placesRow(i int) []string {
	return []string{
		fmt.Sprintf("District%d", i), "RegionX", "TownX", "555",
		fmt.Sprintf("700%04d", i), "Elm St", "99999", "Springfield", "WA",
	}
}

func TestDurableSessionRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	// Default options: the one test that exercises the real fsync path.
	s, err := evolvefd.NewDurableSession(datasets.Places(), dir, evolvefd.DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.DataDir() != dir {
		t.Fatalf("DataDir = %q, want %q", s.DataDir(), dir)
	}
	for _, label := range []string{"F1", "F2", "F3"} {
		if err := s.Define(label, datasets.PlacesFDs()[label]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AppendStrings(placesRow(0)...); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(2); err != nil {
		t.Fatal(err)
	}
	// Accept a computed repair, so the evolved antecedent must survive
	// recovery too.
	sugs, err := s.Repair("F1", evolvefd.DefaultOptions())
	if err != nil || len(sugs) == 0 {
		t.Fatalf("repair: %v, %d suggestions", err, len(sugs))
	}
	if err := s.Accept("F1", sugs[0]); err != nil {
		t.Fatal(err)
	}
	if err := s.Drop("F3"); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := captureState(s)
	wantFD, _ := s.FDText("F1")
	wantMeasures := make(map[string]evolvefd.Measures)
	for _, label := range s.Labels() {
		m, err := s.Measures(label)
		if err != nil {
			t.Fatal(err)
		}
		wantMeasures[label] = m
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	if err := s.AppendStrings(placesRow(1)...); !errors.Is(err, evolvefd.ErrSessionClosed) {
		t.Fatalf("append after close: %v", err)
	}

	r, err := evolvefd.OpenSession(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := captureState(r); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered state diverged:\n got %d rel bytes, labels %v, live %d\nwant %d rel bytes, labels %v, live %d",
			len(got.rel), got.labels, got.live, len(want.rel), want.labels, want.live)
	}
	if gotFD, _ := r.FDText("F1"); gotFD != wantFD {
		t.Fatalf("accepted FD: got %q want %q", gotFD, wantFD)
	}
	for label, m := range wantMeasures {
		got, err := r.Measures(label)
		if err != nil {
			t.Fatal(err)
		}
		if got != m {
			t.Fatalf("measures %s: got %+v want %+v", label, got, m)
		}
	}
	// The recovered session keeps logging: mutate, close, recover again.
	if err := r.AppendStrings(placesRow(2)...); err != nil {
		t.Fatal(err)
	}
	want2 := captureState(r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := evolvefd.OpenSession(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := captureState(r2); !reflect.DeepEqual(got, want2) {
		t.Fatal("second recovery diverged")
	}
}

func TestDurableSessionDirValidation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	s, err := evolvefd.NewDurableSession(datasets.Places(), dir, noFsync)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := evolvefd.NewDurableSession(datasets.Places(), dir, noFsync); err == nil {
		t.Fatal("NewDurableSession reused a directory with state")
	}
	if _, err := evolvefd.OpenSession(t.TempDir()); err == nil {
		t.Fatal("OpenSession succeeded on an empty directory")
	}
	if es := evolvefd.NewSession(datasets.Places()); es.DataDir() != "" || es.Flush() != nil || es.Close() != nil {
		t.Fatal("ephemeral session durability hooks are not no-ops")
	}
}

// TestDurableCrashMatrix is the byte-granular crash-injection matrix
// (single log generation): a scripted mutation sequence is logged, then the
// log is truncated at EVERY byte offset and bit-flipped at EVERY byte
// offset, and each damaged directory must recover to exactly the state
// after the surviving prefix of complete records — never an error, never a
// partial mutation.
func TestDurableCrashMatrix(t *testing.T) {
	base := filepath.Join(t.TempDir(), "data")
	s, err := evolvefd.NewDurableSession(datasets.Places(), base, noFsync)
	if err != nil {
		t.Fatal(err)
	}
	// Mutation-only script (no Compact: rotation is covered by the fallback
	// and kill-point tests); states[k] is the expected recovery after the
	// first k records survive.
	script := []func() error{
		func() error { return s.Define("F1", datasets.PlacesFDs()["F1"]) },
		func() error { return s.AppendStrings(placesRow(0)...) },
		func() error { return s.Delete(0, 4) },
		func() error { return s.Define("F4", datasets.PlacesF4()) },
		func() error { return s.UpdateStrings(6, placesRow(1)...) },
		func() error {
			return s.Append(
				relation.String("D2"), relation.String("R2"), relation.String("M2"),
				relation.String("555"), relation.String("7001"), relation.String("Oak"),
				relation.String("11111"), relation.String("C2"), relation.String("S2"))
		},
		func() error { return s.Drop("F4") },
		func() error { return s.Delete(1) },
	}
	states := []durState{captureState(s)}
	for i, step := range script {
		if err := step(); err != nil {
			t.Fatalf("script step %d: %v", i, err)
		}
		states = append(states, captureState(s))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	logName := filepath.Base(wal.LogPath(base, 1))
	logBytes, err := os.ReadFile(wal.LogPath(base, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Record boundaries, for mapping a byte offset to the surviving prefix.
	var bounds []int
	for off := 0; off < len(logBytes); {
		_, n, ok := wal.NextRecord(logBytes[off:])
		if !ok {
			t.Fatalf("closed log has invalid record at %d", off)
		}
		off += n
		bounds = append(bounds, off)
	}
	if len(bounds) != len(script) {
		t.Fatalf("log holds %d records, script ran %d ops", len(bounds), len(script))
	}
	recordsBefore := func(off int) int {
		n := 0
		for n < len(bounds) && bounds[n] <= off {
			n++
		}
		return n
	}
	recoverTo := func(t *testing.T, dir string) *evolvefd.Session {
		t.Helper()
		r, err := evolvefd.OpenSessionOptions(dir, noFsync)
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		return r
	}
	for cut := 0; cut <= len(logBytes); cut++ {
		dir := copyDir(t, base)
		if err := os.Truncate(filepath.Join(dir, logName), int64(cut)); err != nil {
			t.Fatal(err)
		}
		r := recoverTo(t, dir)
		wantK := recordsBefore(cut)
		if got := captureState(r); !reflect.DeepEqual(got, states[wantK]) {
			t.Fatalf("truncate@%d: recovered to wrong state (want after %d ops)", cut, wantK)
		}
		r.Close()
	}
	for off := 0; off < len(logBytes); off++ {
		dir := copyDir(t, base)
		mut := append([]byte{}, logBytes...)
		mut[off] ^= 0x20
		if err := os.WriteFile(filepath.Join(dir, logName), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		// The framing layer decides how much survives the flip (a flip in a
		// length prefix can drop earlier than the containing record); the
		// session must land on exactly that prefix.
		payloads, _ := wal.ScanRecords(mut)
		wantK := len(payloads)
		if wantK > recordsBefore(off+1) && off >= bounds[0] {
			t.Fatalf("corrupt@%d: framing kept %d records past the damage", off, wantK)
		}
		r := recoverTo(t, dir)
		if got := captureState(r); !reflect.DeepEqual(got, states[wantK]) {
			t.Fatalf("corrupt@%d: recovered to wrong state (want after %d ops)", off, wantK)
		}
		r.Close()
	}
}

// TestDurableGroupCommitCrash pins the group-commit durability contract: a
// crash loses at most the buffered suffix, and an explicit Flush drains it.
func TestDurableGroupCommitCrash(t *testing.T) {
	base := filepath.Join(t.TempDir(), "data")
	opts := evolvefd.DurabilityOptions{GroupCommit: 100, NoFsync: true}
	s, err := evolvefd.NewDurableSession(datasets.Places(), base, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before := s.LiveRows()
	for i := 0; i < 5; i++ {
		if err := s.AppendStrings(placesRow(i)...); err != nil {
			t.Fatal(err)
		}
	}
	r, err := evolvefd.OpenSessionOptions(copyDir(t, base), noFsync)
	if err != nil {
		t.Fatal(err)
	}
	if r.LiveRows() != before {
		t.Fatalf("unflushed batch leaked: recovered %d rows, want %d", r.LiveRows(), before)
	}
	r.Close()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err = evolvefd.OpenSessionOptions(copyDir(t, base), noFsync)
	if err != nil {
		t.Fatal(err)
	}
	if r.LiveRows() != before+5 {
		t.Fatalf("after flush: recovered %d rows, want %d", r.LiveRows(), before+5)
	}
	r.Close()
}

// TestDurableSnapshotFallback makes the newest snapshot unreadable — by a
// flipped bit, or by a well-checksummed header of a format version the
// decoder does not read: recovery must fall back to its predecessor, replay
// across the generation boundary to the identical final state, and write a
// fresh checkpoint that supersedes the damaged file for the next recovery.
func TestDurableSnapshotFallback(t *testing.T) {
	t.Run("bit flip", func(t *testing.T) {
		testSnapshotFallback(t, func(data []byte) { data[len(data)/2] ^= 0xff })
	})
	t.Run("unsupported version", func(t *testing.T) {
		testSnapshotFallback(t, func(data []byte) {
			body := data[:len(data)-4]
			body[len("EVFDSNP1")] = 2 // the version byte follows the magic
			binary.LittleEndian.PutUint32(data[len(body):], crc32.ChecksumIEEE(body))
		})
	})
}

func testSnapshotFallback(t *testing.T, damage func(snapshot []byte)) {
	base := filepath.Join(t.TempDir(), "data")
	s, err := evolvefd.NewDurableSession(datasets.Places(), base, noFsync)
	if err != nil {
		t.Fatal(err)
	}
	s.MustDefine("F1", datasets.PlacesFDs()["F1"])
	s.MustDefine("F2", datasets.PlacesFDs()["F2"])
	if err := s.Delete(1, 5, 9); err != nil {
		t.Fatal(err)
	}
	s.Compact() // checkpoint: snapshot 2, log 2
	if err := s.AppendStrings(placesRow(3)...); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(0); err != nil {
		t.Fatal(err)
	}
	want := captureState(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snapPath := wal.SnapshotPath(base, 2)
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	damage(data)
	if err := os.WriteFile(snapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := evolvefd.OpenSessionOptions(base, noFsync)
	if err != nil {
		t.Fatalf("fallback recovery failed: %v", err)
	}
	if got := captureState(r); !reflect.DeepEqual(got, want) {
		t.Fatal("fallback recovery diverged from pre-crash state")
	}
	r.Close()
	snaps, _, err := wal.ListStatesFS(nil, base)
	if err != nil {
		t.Fatal(err)
	}
	if snaps[len(snaps)-1] <= 2 {
		t.Fatalf("no superseding checkpoint after fallback: snapshots %v", snaps)
	}
	// The next recovery must take the fresh checkpoint, not the corpse.
	r2, err := evolvefd.OpenSessionOptions(base, noFsync)
	if err != nil {
		t.Fatal(err)
	}
	if got := captureState(r2); !reflect.DeepEqual(got, want) {
		t.Fatal("post-fallback recovery diverged")
	}
	r2.Close()
	// With every snapshot destroyed, recovery must refuse, not fabricate.
	snaps, _, _ = wal.ListStatesFS(nil, base)
	for _, seq := range snaps {
		p := wal.SnapshotPath(base, seq)
		d, _ := os.ReadFile(p)
		if len(d) > 0 {
			d[len(d)-1] ^= 0xff
			os.WriteFile(p, d, 0o644)
		}
	}
	if _, err := evolvefd.OpenSessionOptions(base, noFsync); err == nil {
		t.Fatal("recovery succeeded with every snapshot corrupt")
	}
}

// killStep is one recorded operation of the differential op stream: applied
// once to the durable session while recording, then replayed verbatim onto
// ephemeral twins.
type killStep struct {
	desc  string
	apply func(*evolvefd.Session) error
}

var killSpecs = []datasets.ColumnSpec{
	{Name: "A", Card: 12},
	{Name: "B", Card: 8},
	{Name: "R", Card: 4},
	{Name: "C", Card: 10, DerivedFrom: []int{0, 2}}, // A,R -> C exact; A -> C approximate
	{Name: "D", Card: 6, DerivedFrom: []int{1}},     // B -> D exact
}

var killFDs = map[string]string{"FA": "A -> C", "FB": "B -> D"}

func rowCells(r *evolvefd.Relation, row int) []string {
	cells := make([]string, r.NumCols())
	for col := range cells {
		cells[col] = r.Value(row, col).String()
	}
	return cells
}

// liveRow picks a random live row id, deterministically under rng.
func liveRow(rng *rand.Rand, r *evolvefd.Relation) int {
	for {
		row := rng.Intn(r.NumRows())
		if !r.IsDeleted(row) {
			return row
		}
	}
}

// makeKillStream generates the differential op stream by applying each step
// to the durable session as it is drawn (so row ids are always valid at
// draw time) and recording it for twin replay. The before hook fires at
// every step boundary, letting the differential copy the data directory at
// exact op counts; pass nil when no captures are needed.
func makeKillStream(t *testing.T, s *evolvefd.Session, rng *rand.Rand, pool *evolvefd.Relation, poolStart, n int, before func(int)) []killStep {
	t.Helper()
	steps := make([]killStep, 0, n)
	next := poolStart
	for i := 0; i < n; i++ {
		if before != nil {
			before(i)
		}
		var st killStep
		roll := rng.Intn(100)
		switch {
		case roll < 40 && next < pool.NumRows():
			cells := rowCells(pool, next)
			next++
			st = killStep{desc: "append", apply: func(s *evolvefd.Session) error { return s.AppendStrings(cells...) }}
		case roll < 65:
			row := liveRow(rng, s.Relation())
			st = killStep{desc: fmt.Sprintf("delete %d", row), apply: func(s *evolvefd.Session) error { return s.Delete(row) }}
		case roll < 90:
			row := liveRow(rng, s.Relation())
			cells := rowCells(pool, poolStart+rng.Intn(pool.NumRows()-poolStart))
			st = killStep{desc: fmt.Sprintf("update %d", row), apply: func(s *evolvefd.Session) error { return s.UpdateStrings(row, cells...) }}
		default:
			st = killStep{desc: "compact", apply: func(s *evolvefd.Session) error { s.Compact(); return nil }}
		}
		if err := st.apply(s); err != nil {
			t.Fatalf("stream step %d (%s): %v", i, st.desc, err)
		}
		steps = append(steps, st)
	}
	return steps
}

// assertDifferential compares a recovered session against its uninterrupted
// ephemeral twin on the surfaces the paper's workflow reads: the instance
// itself, the measures of every defined FD, the repair suggestions, and the
// discovered minimal cover — all must be bit-identical.
func assertDifferential(t *testing.T, ctx string, rec, twin *evolvefd.Session) {
	t.Helper()
	if !bytes.Equal(rec.Relation().AppendBinary(nil), twin.Relation().AppendBinary(nil)) {
		t.Fatalf("%s: recovered relation is not bit-identical to the twin", ctx)
	}
	if rec.Epoch() != twin.Epoch() {
		t.Fatalf("%s: epoch %d vs %d", ctx, rec.Epoch(), twin.Epoch())
	}
	if !reflect.DeepEqual(rec.Labels(), twin.Labels()) {
		t.Fatalf("%s: labels %v vs %v", ctx, rec.Labels(), twin.Labels())
	}
	for _, label := range twin.Labels() {
		mr, err1 := rec.Measures(label)
		mt, err2 := twin.Measures(label)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: measures %s: %v / %v", ctx, label, err1, err2)
		}
		if mr != mt {
			t.Fatalf("%s: measures %s: %+v vs %+v", ctx, label, mr, mt)
		}
		sr, err1 := rec.Repair(label, evolvefd.DefaultOptions())
		st, err2 := twin.Repair(label, evolvefd.DefaultOptions())
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: repair %s: %v / %v", ctx, label, err1, err2)
		}
		if !reflect.DeepEqual(sr, st) {
			t.Fatalf("%s: repair %s diverged:\n rec %+v\ntwin %+v", ctx, label, sr, st)
		}
	}
	cr, err1 := rec.DiscoverIncremental(evolvefd.DiscoveryOptions{})
	ct, err2 := twin.DiscoverIncremental(evolvefd.DiscoveryOptions{})
	if err1 != nil || err2 != nil {
		t.Fatalf("%s: discover: %v / %v", ctx, err1, err2)
	}
	if !reflect.DeepEqual(cr, ct) {
		t.Fatalf("%s: minimal cover diverged:\n rec %+v\ntwin %+v", ctx, cr, ct)
	}
}

// TestDurableKillPointDifferential is the acceptance differential: a
// durable session absorbs a random DML stream (appends, deletes, updates,
// compactions) with synchronous logging; at random kill points the data
// directory is copied (the state a crash would leave), recovered, and
// compared against an uninterrupted ephemeral twin fed the same prefix.
// Measures, repair suggestions and the discovered minimal cover must be
// bit-identical at every kill point.
func TestDurableKillPointDifferential(t *testing.T) {
	const loaded, total, nsteps = 300, 400, 120
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			pool := datasets.Synthesize("kill", total, seed, killSpecs)
			base := filepath.Join(t.TempDir(), "data")
			s, err := evolvefd.NewDurableSession(datasets.Synthesize("kill", loaded, seed, killSpecs), base, noFsync)
			if err != nil {
				t.Fatal(err)
			}
			for _, label := range []string{"FA", "FB"} {
				s.MustDefine(label, killFDs[label])
			}
			if _, err := s.DiscoverIncremental(evolvefd.DiscoveryOptions{}); err != nil {
				t.Fatal(err)
			}
			// Kill points: a handful of random step indices plus the very end.
			killSet := map[int]bool{nsteps: true}
			for len(killSet) < 7 {
				killSet[rng.Intn(nsteps)] = true
			}
			copies := make(map[int]string)
			grab := func(k int) {
				if killSet[k] {
					copies[k] = copyDir(t, base)
				}
			}
			steps := makeKillStream(t, s, rng, pool, loaded, nsteps, grab)
			grab(nsteps)
			s.Close()

			kills := make([]int, 0, len(copies))
			for k := range copies {
				kills = append(kills, k)
			}
			sort.Ints(kills)
			for _, k := range kills {
				rec, err := evolvefd.OpenSessionOptions(copies[k], noFsync)
				if err != nil {
					t.Fatalf("kill@%d: recovery failed: %v", k, err)
				}
				twin := evolvefd.NewSession(datasets.Synthesize("kill", loaded, seed, killSpecs))
				for _, label := range []string{"FA", "FB"} {
					twin.MustDefine(label, killFDs[label])
				}
				for i := 0; i < k; i++ {
					if err := steps[i].apply(twin); err != nil {
						t.Fatalf("kill@%d: twin replay step %d (%s): %v", k, i, steps[i].desc, err)
					}
				}
				assertDifferential(t, fmt.Sprintf("kill@%d", k), rec, twin)
				rec.Close()
			}
		})
	}
}

// TestDurableRecoveryProperty is the satellite property test: for random
// op interleavings, Close + OpenSession must yield a session whose
// Suggestions, MemStats, Generation and Epoch are identical to the live
// session's — recovery is invisible to every observable the advisor loop
// reads.
func TestDurableRecoveryProperty(t *testing.T) {
	const loaded, total, nsteps = 250, 350, 80
	for _, seed := range []int64{3, 11, 29} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			pool := datasets.Synthesize("prop", total, seed, killSpecs)
			base := filepath.Join(t.TempDir(), "data")
			opts := evolvefd.DurabilityOptions{GroupCommit: 4, NoFsync: true}
			s, err := evolvefd.NewDurableSession(datasets.Synthesize("prop", loaded, seed, killSpecs), base, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, label := range []string{"FA", "FB"} {
				s.MustDefine(label, killFDs[label])
			}
			// Seed the discoverer, then checkpoint so the snapshot carries
			// discovery borders — the recovered side must resume them, not
			// re-search the lattice.
			if _, err := s.DiscoverIncremental(evolvefd.DiscoveryOptions{}); err != nil {
				t.Fatal(err)
			}
			s.Compact()
			makeKillStream(t, s, rng, pool, loaded, nsteps, nil)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := evolvefd.OpenSessionOptions(base, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			// Identical probe order on both sessions, then compare every
			// observable.
			sugsLive, err1 := s.Suggestions()
			sugsRec, err2 := r.Suggestions()
			if err1 != nil || err2 != nil {
				t.Fatalf("suggestions: %v / %v", err1, err2)
			}
			if !reflect.DeepEqual(sugsLive, sugsRec) {
				t.Fatalf("suggestions diverged:\nlive %+v\n rec %+v", sugsLive, sugsRec)
			}
			if g1, g2 := s.Generation(), r.Generation(); g1 != g2 {
				t.Fatalf("generation %d vs %d", g1, g2)
			}
			if e1, e2 := s.Epoch(), r.Epoch(); e1 != e2 {
				t.Fatalf("epoch %d vs %d", e1, e2)
			}
			if m1, m2 := s.MemStats(), r.MemStats(); m1 != m2 {
				t.Fatalf("memstats diverged:\nlive %+v\n rec %+v", m1, m2)
			}
		})
	}
}

// TestDurableCrashMatrixSnapshotBitFlip extends the crash matrix to the
// snapshot file: a single bit flipped anywhere in the newest snapshot must
// never corrupt recovery — the checksum rejects the file, the previous
// generation takes over, and replay across the boundary lands on the exact
// pre-crash state.
func TestDurableCrashMatrixSnapshotBitFlip(t *testing.T) {
	base := filepath.Join(t.TempDir(), "data")
	s, err := evolvefd.NewDurableSession(datasets.Places(), base, noFsync)
	if err != nil {
		t.Fatal(err)
	}
	s.MustDefine("F1", datasets.PlacesFDs()["F1"])
	if err := s.Delete(2, 7); err != nil {
		t.Fatal(err)
	}
	s.Compact() // snapshot 2, log 2
	if err := s.AppendStrings(placesRow(4)...); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateStrings(4, placesRow(11)...); err != nil {
		t.Fatal(err)
	}
	want := captureState(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snapBytes, err := os.ReadFile(wal.SnapshotPath(base, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Sample bit positions across the whole file — header, body and trailing
	// checksum included — plus the exact first and last bytes.
	stride := len(snapBytes)/48 + 1
	offsets := []int{0, len(snapBytes) - 1}
	for off := stride; off < len(snapBytes)-1; off += stride {
		offsets = append(offsets, off)
	}
	for _, off := range offsets {
		dir := copyDir(t, base)
		p := wal.SnapshotPath(dir, 2)
		mut := append([]byte{}, snapBytes...)
		mut[off] ^= 1 << uint(off%8)
		if err := os.WriteFile(p, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := evolvefd.OpenSessionOptions(dir, noFsync)
		if err != nil {
			t.Fatalf("flip at %d: recovery failed: %v", off, err)
		}
		if got := captureState(r); !reflect.DeepEqual(got, want) {
			t.Fatalf("flip at %d: fallback recovery diverged", off)
		}
		r.Close()
		// The fallback must have written a superseding checkpoint so the next
		// recovery does not depend on the damaged file.
		snaps, _, err := wal.ListStatesFS(nil, dir)
		if err != nil {
			t.Fatal(err)
		}
		if snaps[len(snaps)-1] <= 2 {
			t.Fatalf("flip at %d: no superseding checkpoint: %v", off, snaps)
		}
	}
}

// TestDurableSizeRotation: with MaxLogBytes set, the session seals the log
// with a checkpoint marker whenever it grows past the bound — so log growth
// between compactions stays bounded, retention discards settled generations,
// the epoch is untouched (no compaction ran), and recovery across the
// checkpoint-sealed generations is exact.
func TestDurableSizeRotation(t *testing.T) {
	base := filepath.Join(t.TempDir(), "data")
	opts := evolvefd.DurabilityOptions{GroupCommit: 1, NoFsync: true, MaxLogBytes: 1024}
	s, err := evolvefd.NewDurableSession(datasets.Places(), base, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.MustDefine("F1", datasets.PlacesFDs()["F1"])
	epochBefore := s.Epoch()
	for i := 0; i < 60; i++ {
		if err := s.AppendStrings(placesRow(i)...); err != nil {
			t.Fatal(err)
		}
	}
	if s.Epoch() != epochBefore {
		t.Fatalf("size rotation moved the epoch %d -> %d; only compaction may", epochBefore, s.Epoch())
	}
	snaps, logs, err := wal.ListStatesFS(nil, base)
	if err != nil {
		t.Fatal(err)
	}
	head := snaps[len(snaps)-1]
	if head < 4 {
		t.Fatalf("60 appends under a 1KiB bound rotated only to generation %d", head)
	}
	// Retention keeps exactly the newest generation and its fallback.
	if len(snaps) != 2 || len(logs) != 2 {
		t.Fatalf("retention kept %d snapshots, %d logs; want 2 each", len(snaps), len(logs))
	}
	for _, seq := range logs {
		fi, err := os.Stat(wal.LogPath(base, seq))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > opts.MaxLogBytes+256 {
			t.Fatalf("log %d grew to %d bytes past the %d bound", seq, fi.Size(), opts.MaxLogBytes)
		}
	}
	want := captureState(s)
	r, err := evolvefd.OpenSessionOptions(copyDir(t, base), opts)
	if err != nil {
		t.Fatalf("recovery across size rotations: %v", err)
	}
	defer r.Close()
	if got := captureState(r); !reflect.DeepEqual(got, want) {
		t.Fatal("recovery across size rotations diverged")
	}
	if r.Epoch() != epochBefore {
		t.Fatalf("replayed checkpoint seals moved the epoch to %d", r.Epoch())
	}
}
