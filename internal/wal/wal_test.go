package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/evolvefd/evolvefd/internal/discovery"
	"github.com/evolvefd/evolvefd/internal/relation"
)

// sampleOps covers every op kind and every value kind.
func sampleOps() []Op {
	return []Op{
		{Kind: OpDefine, Label: "F1", Spec: "a, b -> c"},
		{Kind: OpAppend, Tuple: []relation.Value{relation.String("x"), relation.Int(-7), relation.Float(2.5), relation.Bool(true), relation.Null}},
		{Kind: OpAppendStrings, Cells: []string{"y", "3", "", "NULL"}},
		{Kind: OpDelete, Rows: []int{4, 0, 17}},
		{Kind: OpUpdate, Row: 2, Tuple: []relation.Value{relation.Null, relation.Int(0)}},
		{Kind: OpUpdateStrings, Row: 9, Cells: []string{"z"}},
		{Kind: OpAccept, Label: "F1", Names: []string{"region", "district"}},
		{Kind: OpDrop, Label: "F1"},
		{Kind: OpCompact},
		{Kind: OpCheckpoint},
	}
}

func TestOpRoundTrip(t *testing.T) {
	for _, op := range sampleOps() {
		payload := EncodeOp(nil, op)
		got, err := DecodeOp(payload)
		if err != nil {
			t.Fatalf("op %d: %v", op.Kind, err)
		}
		if !reflect.DeepEqual(got, op) {
			t.Fatalf("op %d: got %+v want %+v", op.Kind, got, op)
		}
		// Only the two seal markers license a follower to leave a segment.
		if seal := op.Kind == OpCompact || op.Kind == OpCheckpoint; SealOp(payload) != seal {
			t.Fatalf("op %d: SealOp = %v, want %v", op.Kind, !seal, seal)
		}
	}
	if SealOp(nil) {
		t.Fatal("an empty payload is not a seal marker")
	}
}

func TestDecodeOpRejects(t *testing.T) {
	if _, err := DecodeOp(nil); err == nil {
		t.Fatal("empty payload decoded")
	}
	if _, err := DecodeOp([]byte{77}); err == nil {
		t.Fatal("unknown kind decoded")
	}
	if _, err := DecodeOp(append(EncodeOp(nil, Op{Kind: OpCompact}), 0)); err == nil {
		t.Fatal("trailing garbage decoded")
	}
	for _, op := range sampleOps() {
		payload := EncodeOp(nil, op)
		for n := 0; n < len(payload); n++ {
			if _, err := DecodeOp(payload[:n]); err == nil && n > 0 {
				// Some prefixes are legitimately complete ops (OpCompact is one
				// byte); those must round-trip instead.
				if trunc, err2 := DecodeOp(payload[:n]); err2 != nil || !bytes.Equal(EncodeOp(nil, trunc), payload[:n]) {
					t.Fatalf("op %d truncated at %d: inconsistent decode", op.Kind, n)
				}
			}
		}
	}
}

// TestRecordFramingMatrix is the byte-level crash matrix: a log of framed
// records, truncated at every byte offset and corrupted at every byte
// offset, must always scan to a prefix of complete records — and at offsets
// on record boundaries, to exactly the records before the cut.
func TestRecordFramingMatrix(t *testing.T) {
	var log []byte
	var bounds []int // byte offset after each record
	payloads := make([][]byte, 0, len(sampleOps()))
	for _, op := range sampleOps() {
		p := EncodeOp(nil, op)
		payloads = append(payloads, p)
		log = AppendRecord(log, p)
		bounds = append(bounds, len(log))
	}
	recordsBefore := func(off int) int {
		n := 0
		for n < len(bounds) && bounds[n] <= off {
			n++
		}
		return n
	}
	for cut := 0; cut <= len(log); cut++ {
		got, valid := ScanRecords(log[:cut])
		want := recordsBefore(cut)
		if len(got) != want {
			t.Fatalf("truncate@%d: %d records, want %d", cut, len(got), want)
		}
		if want > 0 && valid != bounds[want-1] {
			t.Fatalf("truncate@%d: valid=%d, want %d", cut, valid, bounds[want-1])
		}
		for i, p := range got {
			if !bytes.Equal(p, payloads[i]) {
				t.Fatalf("truncate@%d: record %d corrupted", cut, i)
			}
		}
	}
	for off := 0; off < len(log); off++ {
		mut := append([]byte{}, log...)
		mut[off] ^= 0x01
		got, _ := ScanRecords(mut)
		// The record containing the flipped byte must not survive; all
		// records before it must.
		limit := recordsBefore(off)
		if len(got) < limit {
			t.Fatalf("corrupt@%d: lost %d intact records", off, limit-len(got))
		}
		for i := 0; i < limit; i++ {
			if !bytes.Equal(got[i], payloads[i]) {
				t.Fatalf("corrupt@%d: intact record %d changed", off, i)
			}
		}
		if len(got) > limit && bytes.Equal(got[limit], payloads[limit]) {
			t.Fatalf("corrupt@%d: damaged record %d scanned as valid original", off, limit)
		}
	}
}

func TestLogGroupCommit(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal-test.log")
	l, err := CreateFS(nil, path, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	rec := func(i int) []byte { return EncodeOp(nil, Op{Kind: OpDelete, Rows: []int{i}}) }
	for i := 0; i < 7; i++ {
		if err := l.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	// 7 records at group 3: two full groups hit the file, one buffers.
	got, _, _, err := ReadLogFS(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("before flush: %d records on disk, want 6", len(got))
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	got, valid, size, err := ReadLogFS(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 || valid != size {
		t.Fatalf("after flush: %d records, valid %d of %d", len(got), valid, size)
	}
	// Written is what size-based rotation reads: the flushed file size.
	if l.Written() != size || l.Path() != path || l.Err() != nil {
		t.Fatalf("log reports %d bytes at %q (err %v), file has %d at %q", l.Written(), l.Path(), l.Err(), size, path)
	}
	for i, p := range got {
		if !bytes.Equal(p, rec(i)) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTruncateTornAndAppend(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal-torn.log")
	l, err := CreateFS(nil, path, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(EncodeOp(nil, Op{Kind: OpCompact}))
	l.Append(EncodeOp(nil, Op{Kind: OpDrop, Label: "F9"}))
	l.Close()
	// Tear the final record in half, recover, and append a fresh one.
	data, _ := os.ReadFile(path)
	os.WriteFile(path, data[:len(data)-3], 0o644)
	_, valid, size, err := ReadLogFS(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if valid >= size {
		t.Fatalf("tear not detected: valid %d size %d", valid, size)
	}
	if err := TruncateTornFS(nil, path, valid); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenAppendFS(nil, path, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	l2.Append(EncodeOp(nil, Op{Kind: OpDelete, Rows: []int{1}}))
	l2.Close()
	payloads, valid, size, err := ReadLogFS(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 2 || valid != size {
		t.Fatalf("after recovery append: %d records, valid %d of %d", len(payloads), valid, size)
	}
	if op, err := DecodeOp(payloads[1]); err != nil || op.Kind != OpDelete {
		t.Fatalf("appended record = %+v, %v", op, err)
	}
}

func TestLogCreateRefusesExisting(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal-x.log")
	l, err := CreateFS(nil, path, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := CreateFS(nil, path, 1, true); err == nil {
		t.Fatal("Create reused an existing log file")
	}
}

// snapshotFixture builds a Snapshot with every optional part populated.
func snapshotFixture(t *testing.T) *Snapshot {
	t.Helper()
	schema, err := relation.NewSchema(
		relation.Column{Name: "a", Kind: relation.KindString},
		relation.Column{Name: "b", Kind: relation.KindInt},
		relation.Column{Name: "c", Kind: relation.KindInt},
	)
	if err != nil {
		t.Fatal(err)
	}
	rel := relation.New("snap", schema)
	rel.MustAppend(relation.String("x"), relation.Int(1), relation.Int(1))
	rel.MustAppend(relation.String("x"), relation.Int(1), relation.Int(2))
	rel.MustAppend(relation.String("y"), relation.Int(2), relation.Int(3))
	return &Snapshot{
		Seq:         7,
		Generation:  42,
		Compactions: 3,
		Rel:         rel,
		FDs: []DefinedFD{
			{Label: "F1", Spec: "[a] -> [b]"},
			{Label: "F2", Spec: "[a, b] -> [c]"},
		},
		Disc: &DiscState{
			MaxLHS:         2,
			HasConsequents: true,
			Consequents:    []int{1, 2},
			Borders: discovery.BorderSnapshot{
				MaxLHS:   2,
				Eligible: []int{0, 1, 2},
				States: []discovery.ConsequentSnapshot{
					{Y: 1, Valid: [][]int{{0}}, Invalid: []discovery.WitnessSnapshot{{X: []int{2}, W1: 0, W2: 1}}},
					{Y: 2, Valid: nil, Invalid: []discovery.WitnessSnapshot{{X: []int{0, 1}, W1: 0, W2: 1}}},
				},
			},
			LastCover: []string{"k1", "k2\x00sub"},
			LastExact: []LabelExact{{Label: "F1", Exact: true}, {Label: "F2", Exact: false}},
		},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	snap := snapshotFixture(t)
	blob := EncodeSnapshot(snap)
	got, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != snap.Seq || got.Generation != snap.Generation || got.Compactions != snap.Compactions {
		t.Fatalf("header: got %d/%d/%d", got.Seq, got.Generation, got.Compactions)
	}
	if !bytes.Equal(got.Rel.AppendBinary(nil), snap.Rel.AppendBinary(nil)) {
		t.Fatal("relation did not round-trip")
	}
	if !reflect.DeepEqual(got.FDs, snap.FDs) {
		t.Fatalf("FDs: got %+v", got.FDs)
	}
	if !reflect.DeepEqual(got.Disc, snap.Disc) {
		t.Fatalf("Disc: got %+v want %+v", got.Disc, snap.Disc)
	}
	// Without discovery state the optional section must vanish cleanly.
	snap.Disc = nil
	got, err = DecodeSnapshot(EncodeSnapshot(snap))
	if err != nil {
		t.Fatal(err)
	}
	if got.Disc != nil {
		t.Fatal("nil Disc did not round-trip")
	}
}

// TestSnapshotCorruptionMatrix flips one bit at every byte offset of an
// encoded snapshot: the trailing CRC must reject every single one — a
// snapshot is trusted state, so unlike the log there is no "valid prefix".
func TestSnapshotCorruptionMatrix(t *testing.T) {
	blob := EncodeSnapshot(snapshotFixture(t))
	for off := 0; off < len(blob); off++ {
		mut := append([]byte{}, blob...)
		mut[off] ^= 0x10
		if _, err := DecodeSnapshot(mut); err == nil {
			t.Fatalf("corruption at offset %d decoded successfully", off)
		}
	}
	for n := 0; n < len(blob); n++ {
		if _, err := DecodeSnapshot(blob[:n]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", n)
		}
	}
}

func TestWriteSnapshotAtomic(t *testing.T) {
	dir := t.TempDir()
	snap := snapshotFixture(t)
	if err := WriteSnapshotFS(nil, dir, snap, true); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshotFS(nil, dir, snap.Seq)
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != snap.Generation {
		t.Fatalf("generation %d, want %d", got.Generation, snap.Generation)
	}
	// Overwrite with new content; no temp files may linger.
	snap.Generation = 99
	if err := WriteSnapshotFS(nil, dir, snap, true); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("dir holds %d entries after overwrite", len(entries))
	}
	got, err = ReadSnapshotFS(nil, dir, snap.Seq)
	if err != nil || got.Generation != 99 {
		t.Fatalf("after overwrite: gen %d, %v", got.Generation, err)
	}
}

func TestListStatesAndPrune(t *testing.T) {
	dir := t.TempDir()
	for _, seq := range []uint64{1, 2, 3} {
		if err := WriteFileAtomicFS(nil, SnapshotPath(dir, seq), []byte("s"), false); err != nil {
			t.Fatal(err)
		}
		if err := WriteFileAtomicFS(nil, LogPath(dir, seq), []byte("l"), false); err != nil {
			t.Fatal(err)
		}
	}
	os.WriteFile(filepath.Join(dir, "unrelated.txt"), []byte("x"), 0o644)
	snaps, logs, err := ListStatesFS(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snaps, []uint64{1, 2, 3}) || !reflect.DeepEqual(logs, []uint64{1, 2, 3}) {
		t.Fatalf("ListStates = %v, %v", snaps, logs)
	}
	PruneFS(nil, dir, 2)
	snaps, logs, _ = ListStatesFS(nil, dir)
	if !reflect.DeepEqual(snaps, []uint64{2, 3}) || !reflect.DeepEqual(logs, []uint64{2, 3}) {
		t.Fatalf("after prune: %v, %v", snaps, logs)
	}
	if _, err := os.Stat(filepath.Join(dir, "unrelated.txt")); err != nil {
		t.Fatal("prune touched an unrelated file")
	}
}

// FuzzWALReplay is the fuzz target over log replay: arbitrary bytes are
// scanned into records and each record decoded as an op — no panic, no
// over-allocation — and every op that decodes must survive an
// encode/decode round (fixed point after one decode).
func FuzzWALReplay(f *testing.F) {
	var seed []byte
	for _, op := range sampleOps() {
		seed = AppendRecord(seed, EncodeOp(nil, op))
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-5])
	f.Add(EncodeSnapshot(&Snapshot{Seq: 1, Rel: func() *relation.Relation {
		schema, _ := relation.NewSchema(relation.Column{Name: "a", Kind: relation.KindInt})
		r := relation.New("f", schema)
		r.MustAppend(relation.Int(5))
		return r
	}()}))
	f.Fuzz(func(t *testing.T, data []byte) {
		payloads, valid := ScanRecords(data)
		if valid > len(data) {
			t.Fatalf("valid %d beyond input %d", valid, len(data))
		}
		for _, p := range payloads {
			op, err := DecodeOp(p)
			if err != nil {
				continue
			}
			re := EncodeOp(nil, op)
			again, err := DecodeOp(re)
			if err != nil {
				t.Fatalf("re-decode of op %d failed: %v", op.Kind, err)
			}
			if !reflect.DeepEqual(again, op) {
				t.Fatalf("op %d is not a decode fixed point", op.Kind)
			}
		}
		// The same bytes might be a snapshot; decoding must never panic, and
		// a successful decode must re-encode decodably.
		snap, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if _, err := DecodeSnapshot(EncodeSnapshot(snap)); err != nil {
			t.Fatalf("snapshot re-decode failed: %v", err)
		}
	})
}
