package wal

import (
	"fmt"
)

// Log is an append-only record log with group commit: records accumulate in
// an in-process buffer and are written and fsynced together every
// groupCommit records (or on an explicit Flush). A crash loses at most the
// unflushed suffix; it never exposes a half-written record to recovery,
// because recovery stops at the first record whose checksum fails.
//
// A failed write or fsync makes the log sticky-failed: the pages the kernel
// dropped (or never accepted) are unknowable, so retrying over them could
// silently reorder or lose records. Every later Append and Flush returns the
// original error; the owning session rotates to a fresh log generation (via
// a checkpoint) to make durability whole again.
//
// A Log is not safe for concurrent use; the owning session serialises
// mutations already.
type Log struct {
	f       File
	path    string
	buf     []byte
	pending int
	group   int
	noFsync bool
	written int64
	err     error
}

// CreateFS creates a fresh log file at path (which must not exist — log
// sequence numbers are never reused). groupCommit ≤ 1 means every record is
// flushed synchronously; noFsync skips the fsync for tests and benchmarks
// that measure everything but the disk.
func CreateFS(fsys FS, path string, groupCommit int, noFsync bool) (*Log, error) {
	f, err := OrOS(fsys).Create(path)
	if err != nil {
		return nil, err
	}
	return newLog(f, path, groupCommit, noFsync), nil
}

// OpenAppendFS opens an existing log file (creating it if absent, for the
// crash-between-snapshot-and-rotation window) for appending. The caller must
// have truncated any torn tail first (TruncateTornFS), or the appended records
// would hide behind it forever.
func OpenAppendFS(fsys FS, path string, groupCommit int, noFsync bool) (*Log, error) {
	f, err := OrOS(fsys).OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return newLog(f, path, groupCommit, noFsync), nil
}

func newLog(f File, path string, groupCommit int, noFsync bool) *Log {
	if groupCommit < 1 {
		groupCommit = 1
	}
	return &Log{f: f, path: path, group: groupCommit, noFsync: noFsync}
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Written returns the bytes appended to this log generation, buffered
// records included — the size the file will have once flushed, used by the
// owning session's size-based rotation policy.
func (l *Log) Written() int64 { return l.written }

// Err returns the sticky failure, if any.
func (l *Log) Err() error { return l.err }

// Append frames payload as one record and buffers it, flushing when the
// group-commit quota is reached. An error means the record's durability is
// unknown and the log is sticky-failed from here on.
func (l *Log) Append(payload []byte) error {
	if l.err != nil {
		return l.err
	}
	before := len(l.buf)
	l.buf = AppendRecord(l.buf, payload)
	l.written += int64(len(l.buf) - before)
	l.pending++
	if l.pending >= l.group {
		return l.Flush()
	}
	return nil
}

// Flush writes and fsyncs every buffered record. A no-op when nothing is
// pending; returns the sticky failure once one occurred, so a crash-window
// Close after a failed group commit cannot masquerade as success.
func (l *Log) Flush() error {
	if l.err != nil {
		return l.err
	}
	if l.pending == 0 {
		return nil
	}
	if _, err := l.f.Write(l.buf); err != nil {
		l.err = fmt.Errorf("wal: write %s: %w", l.path, err)
		return l.err
	}
	l.buf = l.buf[:0]
	l.pending = 0
	if l.noFsync {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		// The kernel may have dropped the dirty pages it failed to sync; a
		// silent retry would report durability the disk never provided.
		l.err = fmt.Errorf("wal: fsync %s: %w", l.path, err)
		return l.err
	}
	return nil
}

// Close flushes pending records and closes the file.
func (l *Log) Close() error {
	flushErr := l.Flush()
	closeErr := l.f.Close()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// ReadLogFS reads a log file and splits it into its valid record prefix,
// returning the payloads and the byte length of that prefix. A torn or
// corrupt tail is not an error — valid simply stops short of the file size;
// only I/O failures are.
func ReadLogFS(fsys FS, path string) (payloads [][]byte, valid int64, size int64, err error) {
	data, err := OrOS(fsys).ReadFile(path)
	if err != nil {
		return nil, 0, 0, err
	}
	p, v := ScanRecords(data)
	return p, int64(v), int64(len(data)), nil
}

// TruncateTornFS truncates the log file at path to valid bytes, discarding a
// torn tail so appended records follow the last complete one.
func TruncateTornFS(fsys FS, path string, valid int64) error {
	return OrOS(fsys).Truncate(path, valid)
}
