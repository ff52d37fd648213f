package wal

import (
	"errors"
	"path/filepath"
	"syscall"
	"testing"
)

// TestStickyFailedFsync is the satellite regression: after a failed fsync
// the writer must return the original error from every later Append and
// Flush — the kernel may have dropped the dirty pages, so a silent retry
// would report durability the disk never provided.
func TestStickyFailedFsync(t *testing.T) {
	dir := t.TempDir()
	efs := NewErrFS(nil)
	boom := errors.New("simulated fsync failure")
	l, err := CreateFS(efs, LogPath(dir, 1), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(EncodeOp(nil, Op{Kind: OpDrop, Label: "F1"})); err != nil {
		t.Fatalf("healthy append: %v", err)
	}
	efs.FailFsyncAfter(0, boom)
	if err := l.Append([]byte("doomed")); !errors.Is(err, boom) {
		t.Fatalf("append after fsync failure: %v, want %v", err, boom)
	}
	// The disk is healthy again, but the writer must not care: the dropped
	// pages are gone and only a rotation makes durability whole.
	efs.ClearFaults()
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte("still doomed")); !errors.Is(err, boom) {
			t.Fatalf("append %d after recovery: %v, want sticky %v", i, err, boom)
		}
	}
	if err := l.Flush(); !errors.Is(err, boom) {
		t.Fatalf("flush: %v, want sticky %v", err, boom)
	}
	if err := l.Close(); !errors.Is(err, boom) {
		t.Fatalf("close: %v, want sticky %v", err, boom)
	}
	// On disk: the pre-failure record, plus at most the record whose fsync
	// failed (its bytes were written; only their durability is unknown).
	// Nothing appended after the failure may ever reach the file.
	payloads, _, _, err := ReadLogFS(nil, LogPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) > 2 {
		t.Fatalf("log holds %d records; the sticky-failed writer kept writing", len(payloads))
	}
	for _, p := range payloads {
		if string(p) == "still doomed" {
			t.Fatal("a post-failure append reached the log")
		}
	}
}

// TestStickyFailedWrite: a torn write (short write + error) leaves a
// complete-record prefix on disk and wedges the writer.
func TestStickyFailedWrite(t *testing.T) {
	dir := t.TempDir()
	efs := NewErrFS(nil)
	boom := errors.New("simulated torn write")
	l, err := CreateFS(efs, LogPath(dir, 1), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	first := EncodeOp(nil, Op{Kind: OpDefine, Label: "F1", Spec: "[a] -> [b]"})
	if err := l.Append(first); err != nil {
		t.Fatal(err)
	}
	// Tear the next flush mid-record: only 5 bytes of the framed record land.
	efs.TornWriteAfter(0, 5, boom)
	if err := l.Append(EncodeOp(nil, Op{Kind: OpDrop, Label: "F1"})); !errors.Is(err, boom) {
		t.Fatalf("torn append: %v, want %v", err, boom)
	}
	if err := l.Append(first); !errors.Is(err, boom) {
		t.Fatalf("append after tear: %v, want sticky %v", err, boom)
	}
	l.Close()
	payloads, valid, size, err := ReadLogFS(nil, LogPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 1 || string(payloads[0]) != string(first) {
		t.Fatalf("recovered %d records; want exactly the pre-tear record", len(payloads))
	}
	if valid >= size {
		t.Fatalf("valid %d, size %d: the torn tail should be visible", valid, size)
	}
	if err := TruncateTornFS(nil, LogPath(dir, 1), valid); err != nil {
		t.Fatal(err)
	}
	if _, _, size, _ := ReadLogFS(nil, LogPath(dir, 1)); size != valid {
		t.Fatalf("truncate left %d bytes, want %d", size, valid)
	}
}

// TestDiskFull: writes past the byte budget fail with ENOSPC, persist only
// the budgeted prefix, and wedge the writer like any other write failure.
func TestDiskFull(t *testing.T) {
	dir := t.TempDir()
	efs := NewErrFS(nil)
	l, err := CreateFS(efs, LogPath(dir, 1), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	rec := EncodeOp(nil, Op{Kind: OpDefine, Label: "F1", Spec: "[a] -> [b]"})
	framed := AppendRecord(nil, rec)
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	efs.LimitBytes(int64(len(framed) / 2))
	if err := l.Append(rec); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append on full disk: %v, want ENOSPC", err)
	}
	if err := l.Append(rec); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append after full disk: %v, want sticky ENOSPC", err)
	}
	l.Close()
	payloads, valid, size, err := ReadLogFS(nil, LogPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 1 {
		t.Fatalf("recovered %d records, want 1", len(payloads))
	}
	if valid >= size {
		t.Fatal("the half-written record should be a visible torn tail")
	}
}

// TestFlipBitOnRead: a bit flip injected on the read path ends the valid
// record prefix at the damaged record without touching the file.
func TestFlipBitOnRead(t *testing.T) {
	dir := t.TempDir()
	efs := NewErrFS(nil)
	path := LogPath(dir, 1)
	l, err := CreateFS(nil, path, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for i := 0; i < 3; i++ {
		rec := EncodeOp(nil, Op{Kind: OpDrop, Label: "F1"})
		l.Append(rec)
		n += int64(len(AppendRecord(nil, rec)))
	}
	l.Close()
	// Flip one payload bit in the second record.
	recLen := n / 3
	efs.FlipBit(filepath.Base(path), recLen+recordHeader, 0x04)
	payloads, valid, _, err := ReadLogFS(efs, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 1 || valid != recLen {
		t.Fatalf("flipped read: %d records, valid %d; want 1 record, valid %d", len(payloads), valid, recLen)
	}
	// The tail is complete-but-invalid — corruption, not a torn write.
	data, _ := efs.ReadFile(path)
	if !CorruptTail(data[valid:]) {
		t.Fatal("CorruptTail did not classify a bit-flipped record as corrupt")
	}
	// The file underneath is untouched.
	if payloads, _, _, _ := ReadLogFS(nil, path); len(payloads) != 3 {
		t.Fatalf("underlying file damaged: %d records", len(payloads))
	}
}

// TestTransientReads: FailReads injects n read failures, then the file
// reads normally — the retry scenario a tailing follower must survive.
func TestTransientReads(t *testing.T) {
	dir := t.TempDir()
	efs := NewErrFS(nil)
	path := LogPath(dir, 3)
	if err := WriteFileAtomicFS(efs, path, AppendRecord(nil, []byte("x")), false); err != nil {
		t.Fatal(err)
	}
	flaky := errors.New("simulated transient read error")
	efs.FailReads(filepath.Base(path), 2, flaky)
	for i := 0; i < 2; i++ {
		if _, err := efs.ReadFile(path); !errors.Is(err, flaky) {
			t.Fatalf("read %d: %v, want %v", i, err, flaky)
		}
	}
	if _, err := efs.ReadFile(path); err != nil {
		t.Fatalf("read after faults drained: %v", err)
	}
	if _, _, reads := efs.Counts(); reads != 3 {
		t.Fatalf("injector counted %d reads, want 3", reads)
	}
}

// TestCorruptTailClassification pins the boundary between "wait" and
// "quarantine" for a live tailer.
func TestCorruptTailClassification(t *testing.T) {
	rec := AppendRecord(nil, []byte("payload"))
	if CorruptTail(nil) || CorruptTail(rec[:3]) || CorruptTail(rec[:recordHeader]) || CorruptTail(rec[:len(rec)-1]) {
		t.Fatal("short tails misclassified as corrupt")
	}
	flipped := append([]byte{}, rec...)
	flipped[recordHeader] ^= 0x01
	if !CorruptTail(flipped) {
		t.Fatal("complete record with bad payload not classified as corrupt")
	}
	huge := append([]byte{0xff, 0xff, 0xff, 0xff}, rec[4:]...)
	if !CorruptTail(huge) {
		t.Fatal("impossible length not classified as corrupt")
	}
}

// TestPins: pin files lower the retention floor, move with the follower,
// and vanish on removal, without ever appearing as session state.
func TestPins(t *testing.T) {
	dir := t.TempDir()
	if _, ok := MinPinned(nil, dir); ok {
		t.Fatal("empty dir reports a pin")
	}
	if err := WritePin(nil, dir, "f1", 7); err != nil {
		t.Fatal(err)
	}
	if err := WritePin(nil, dir, "f2", 4); err != nil {
		t.Fatal(err)
	}
	if min, ok := MinPinned(nil, dir); !ok || min != 4 {
		t.Fatalf("MinPinned = %d, %v; want 4, true", min, ok)
	}
	if err := WritePin(nil, dir, "f2", 9); err != nil {
		t.Fatal(err)
	}
	if min, _ := MinPinned(nil, dir); min != 7 {
		t.Fatalf("after f2 advanced: MinPinned = %d, want 7", min)
	}
	snaps, logs, err := ListStatesFS(nil, dir)
	if err != nil || len(snaps) != 0 || len(logs) != 0 {
		t.Fatalf("pins leaked into ListStates: %v %v %v", snaps, logs, err)
	}
	if err := RemovePin(nil, dir, "f1"); err != nil {
		t.Fatal(err)
	}
	if err := RemovePin(nil, dir, "f1"); err != nil {
		t.Fatalf("removing a missing pin: %v", err)
	}
	if min, ok := MinPinned(nil, dir); !ok || min != 9 {
		t.Fatalf("after removal: MinPinned = %d, %v; want 9, true", min, ok)
	}
}

// TestVerifySnapshot: the cheap retention gate accepts a clean snapshot and
// rejects damage, absence and truncation.
func TestVerifySnapshot(t *testing.T) {
	dir := t.TempDir()
	snap := snapshotFixture(t)
	if err := WriteSnapshotFS(nil, dir, snap, true); err != nil {
		t.Fatal(err)
	}
	if !VerifySnapshot(nil, dir, snap.Seq) {
		t.Fatal("clean snapshot rejected")
	}
	if VerifySnapshot(nil, dir, snap.Seq+1) {
		t.Fatal("missing snapshot verified")
	}
	efs := NewErrFS(nil)
	efs.FlipBit(filepath.Base(SnapshotPath(dir, snap.Seq)), 20, 0x80)
	if VerifySnapshot(efs, dir, snap.Seq) {
		t.Fatal("bit-flipped snapshot verified")
	}
	if err := WriteFileAtomicFS(nil, SnapshotPath(dir, 99), []byte("EVFDSN"), false); err != nil {
		t.Fatal(err)
	}
	if VerifySnapshot(nil, dir, 99) {
		t.Fatal("truncated snapshot verified")
	}
}
