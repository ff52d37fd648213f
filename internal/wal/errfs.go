package wal

import (
	"path/filepath"
	"sync"
	"syscall"
)

// ErrFS wraps an FS and injects the I/O faults the durability and
// replication layers claim to survive: fsync failures, short (torn) writes,
// disk-full, bit flips visible on read, and transient read errors. Rules
// match on the file's base name, so tests need not thread temp-dir prefixes
// into their fault programs; an empty name matches every file.
//
// ErrFS is safe for concurrent use. It is not test-only scaffolding: the
// engine's robustness claims (leader fails sticky, follower quarantines and
// resyncs) are only claims until an injected fault exercises them, which is
// why the injector ships with the package it attacks.
type ErrFS struct {
	inner FS

	mu sync.Mutex
	// syncsLeft counts fsyncs that still succeed; once it reaches zero every
	// Sync fails with syncErr. -1 disables the rule.
	syncsLeft int
	syncErr   error
	// writesLeft counts writes that still succeed; the next write after that
	// persists only tornKeep bytes and fails with tornErr. -1 disables.
	writesLeft int
	tornKeep   int
	tornErr    error
	// budget is the bytes the disk will still accept; writes past it persist
	// the budgeted prefix and fail with ENOSPC. -1 means unlimited.
	budget int64
	// readFaults maps base name -> transient ReadFile failures remaining.
	readFaults map[string]*readFault
	// flips maps base name -> bit flips applied to ReadFile results.
	flips map[string][]bitFlip

	writes, syncs, reads int
}

type readFault struct {
	left int
	err  error
}

type bitFlip struct {
	off  int64
	mask byte
}

// NewErrFS wraps inner (nil means the real filesystem) with no faults armed.
func NewErrFS(inner FS) *ErrFS {
	return &ErrFS{
		inner:      OrOS(inner),
		syncsLeft:  -1,
		writesLeft: -1,
		budget:     -1,
		readFaults: make(map[string]*readFault),
		flips:      make(map[string][]bitFlip),
	}
}

// FailFsyncAfter lets n more fsyncs succeed, then fails every later one with
// err — the page-cache-dropped-my-data scenario a writer must treat as fatal.
func (e *ErrFS) FailFsyncAfter(n int, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.syncsLeft, e.syncErr = n, err
}

// TornWriteAfter lets n more writes succeed, then tears the next one: only
// keep bytes reach the file and the write reports err.
func (e *ErrFS) TornWriteAfter(n, keep int, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.writesLeft, e.tornKeep, e.tornErr = n, keep, err
}

// LimitBytes arms the disk-full fault: writes consume the budget and the
// first byte past it fails with ENOSPC (persisting the budgeted prefix, as a
// real full disk does).
func (e *ErrFS) LimitBytes(n int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.budget = n
}

// FailReads makes the next n ReadFile calls on base name fail with err —
// the transient I/O error a tailing follower must retry through.
func (e *ErrFS) FailReads(name string, n int, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.readFaults[name] = &readFault{left: n, err: err}
}

// FlipBit makes every later ReadFile of base name return its content with
// the bit mask at byte off flipped — bit rot as the reader observes it,
// without mutating the file underneath other readers.
func (e *ErrFS) FlipBit(name string, off int64, mask byte) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.flips[name] = append(e.flips[name], bitFlip{off: off, mask: mask})
}

// ClearFaults disarms every rule; counters keep counting.
func (e *ErrFS) ClearFaults() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.syncsLeft, e.writesLeft, e.budget = -1, -1, -1
	e.readFaults = make(map[string]*readFault)
	e.flips = make(map[string][]bitFlip)
}

// Counts reports how many writes, fsyncs and whole-file reads passed through
// the injector, for tests asserting retry and backoff behaviour.
func (e *ErrFS) Counts() (writes, syncs, reads int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.writes, e.syncs, e.reads
}

// admitWrite decides the fate of an n-byte write: how many bytes to persist
// and which error (if any) to report after persisting them.
func (e *ErrFS) admitWrite(n int) (keep int, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.writes++
	if e.writesLeft == 0 {
		e.writesLeft = -1 // the torn write fires once
		keep = e.tornKeep
		if keep > n {
			keep = n
		}
		return keep, e.tornErr
	}
	if e.writesLeft > 0 {
		e.writesLeft--
	}
	if e.budget >= 0 {
		if int64(n) > e.budget {
			keep = int(e.budget)
			e.budget = 0
			return keep, syscall.ENOSPC
		}
		e.budget -= int64(n)
	}
	return n, nil
}

func (e *ErrFS) admitSync() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.syncs++
	if e.syncsLeft < 0 {
		return nil
	}
	if e.syncsLeft == 0 {
		return e.syncErr
	}
	e.syncsLeft--
	return nil
}

func (e *ErrFS) admitRead(path string, data []byte, readErr error) ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.reads++
	name := filepath.Base(path)
	for _, key := range []string{name, ""} {
		if f, ok := e.readFaults[key]; ok && f.left > 0 {
			f.left--
			return nil, f.err
		}
	}
	if readErr != nil {
		return nil, readErr
	}
	if flips := e.flips[name]; len(flips) > 0 {
		data = append([]byte(nil), data...)
		for _, fl := range flips {
			if fl.off >= 0 && fl.off < int64(len(data)) {
				data[fl.off] ^= fl.mask
			}
		}
	}
	return data, nil
}

type errFile struct {
	fs    *ErrFS
	inner File
}

func (f *errFile) Write(p []byte) (int, error) {
	keep, err := f.fs.admitWrite(len(p))
	if keep > 0 {
		if n, werr := f.inner.Write(p[:keep]); werr != nil {
			return n, werr
		}
	}
	if err != nil {
		return keep, err
	}
	return len(p), nil
}

func (f *errFile) Sync() error {
	if err := f.fs.admitSync(); err != nil {
		return err
	}
	return f.inner.Sync()
}

func (f *errFile) Close() error { return f.inner.Close() }

func (e *ErrFS) Create(path string) (File, error) {
	f, err := e.inner.Create(path)
	if err != nil {
		return nil, err
	}
	return &errFile{fs: e, inner: f}, nil
}

func (e *ErrFS) OpenAppend(path string) (File, error) {
	f, err := e.inner.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &errFile{fs: e, inner: f}, nil
}

func (e *ErrFS) CreateTemp(dir, pattern string) (File, string, error) {
	f, name, err := e.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, "", err
	}
	return &errFile{fs: e, inner: f}, name, nil
}

func (e *ErrFS) ReadFile(path string) ([]byte, error) {
	data, err := e.inner.ReadFile(path)
	return e.admitRead(path, data, err)
}

func (e *ErrFS) ReadDir(dir string) ([]string, error) { return e.inner.ReadDir(dir) }

func (e *ErrFS) Size(path string) (int64, error) { return e.inner.Size(path) }

func (e *ErrFS) Truncate(path string, size int64) error { return e.inner.Truncate(path, size) }

func (e *ErrFS) Rename(oldPath, newPath string) error { return e.inner.Rename(oldPath, newPath) }

func (e *ErrFS) Remove(path string) error { return e.inner.Remove(path) }

func (e *ErrFS) MkdirAll(dir string) error { return e.inner.MkdirAll(dir) }

func (e *ErrFS) SyncDir(dir string) error { return e.inner.SyncDir(dir) }
