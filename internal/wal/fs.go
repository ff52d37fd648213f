package wal

import (
	"errors"
	"io/fs"
	"os"
)

// FS abstracts the filesystem operations the durability and replication
// layers perform, so fault-injection tests (see ErrFS) can interpose on
// every write, fsync and read the write-ahead log, the snapshots and a
// follower's tail reads issue. The production implementation is OS, which
// every …FS function of this package also uses when handed a nil FS.
//
// The surface is deliberately the WAL's needs, not a general VFS: append
// writers, whole-file reads, atomic rename, directory listing. Anything the
// engine cannot survive failing is behind this interface.
type FS interface {
	// Create opens a fresh file for writing; it fails if path exists (log
	// sequence numbers are never reused).
	Create(path string) (File, error)
	// OpenAppend opens path for appending, creating it if absent.
	OpenAppend(path string) (File, error)
	// CreateTemp creates a temp file in dir for WriteFileAtomicFS, returning
	// the handle and its name.
	CreateTemp(dir, pattern string) (File, string, error)
	// ReadFile reads the whole file.
	ReadFile(path string) ([]byte, error)
	// ReadDir lists the file names in dir (subdirectories excluded).
	ReadDir(dir string) ([]string, error)
	// Size returns the byte size of path.
	Size(path string) (int64, error)
	// Truncate cuts path to size bytes.
	Truncate(path string, size int64) error
	// Rename atomically replaces newPath with oldPath.
	Rename(oldPath, newPath string) error
	// Remove deletes path.
	Remove(path string) error
	// MkdirAll creates dir and its missing parents.
	MkdirAll(dir string) error
	// SyncDir fsyncs the directory itself, making renames durable.
	SyncDir(dir string) error
}

// File is the writable-handle half of FS.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Create(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
}

func (osFS) OpenAppend(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

func (osFS) CreateTemp(dir, pattern string) (File, string, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, "", err
	}
	return f, f.Name(), nil
}

func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		names = append(names, e.Name())
	}
	return names, nil
}

func (osFS) Size(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

func (osFS) Truncate(path string, size int64) error { return os.Truncate(path, size) }

func (osFS) Rename(oldPath, newPath string) error { return os.Rename(oldPath, newPath) }

func (osFS) Remove(path string) error { return os.Remove(path) }

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	syncErr := d.Sync()
	closeErr := d.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// OrOS resolves a possibly-nil FS to the real filesystem, so every entry
// point accepts "nil means OS" without each caller spelling it out.
func OrOS(f FS) FS {
	if f == nil {
		return OS
	}
	return f
}

// IsNotExist reports whether err means the file is absent, for callers that
// treat a missing log or snapshot as state rather than failure.
func IsNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }
