package main

import (
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/evolvefd/evolvefd/internal/wal"
)

// crashFS is the wal.FS every durable tenant of the benchmark writes
// through. It does four jobs at the one seam the program offers:
//
//   - it is the device: a write goes to the real file, a flush is a blocking
//     system call of a fixed length (deviceFlush) in place of the sandbox's
//     fsync. That fsync is no device's either — a virtio disk over the host's
//     page cache — and its latency follows the neighbours' I/O: within one
//     13 s serve-write stage its per-second median moved between 121 and
//     269 µs, and ten runs of one binary spread by 16-29% in throughput. With
//     the fixed flush they spread by 4%. What a crash leaves on disk is
//     decided below, not by the kernel, so nothing is lost with the fsync;
//   - it counts writes, fsyncs and bytes per directory (one directory per
//     tenant), which gives the exact WAL figures;
//   - in a traced run it records a wal.write / wal.fsync span for every
//     call made by a goroutine that is serving a traced request, parented
//     to that request's handler span;
//   - it remembers, per file, how many bytes were written and how many of
//     them an fsync has covered, so that Crash can cut every file back to
//     what a power loss would have left. Killing the process would leave
//     the OS cache intact and prove nothing.
//
// Renames and removals are treated as durable at once: the model is about
// acknowledged appends surviving, not about directory-entry ordering.
type crashFS struct {
	wal.FS // the real filesystem; reads and directory calls pass straight through
	tr     *tracer

	mu    sync.Mutex
	files map[string]*fileState
	open  map[*crashFile]struct{}
	dirs  map[string]*ioCounts
}

type fileState struct {
	written, synced int64
}

// ioCounts are the I/O totals of one directory.
type ioCounts struct {
	writes, fsyncs, bytes atomic.Int64
}

type ioTotals struct {
	writes, fsyncs, bytes int64
}

func (a ioTotals) add(b ioTotals) ioTotals {
	return ioTotals{a.writes + b.writes, a.fsyncs + b.fsyncs, a.bytes + b.bytes}
}

func (a ioTotals) sub(b ioTotals) ioTotals {
	return ioTotals{a.writes - b.writes, a.fsyncs - b.fsyncs, a.bytes - b.bytes}
}

func newCrashFS(tr *tracer) *crashFS {
	return &crashFS{
		FS:    wal.OS,
		tr:    tr,
		files: make(map[string]*fileState),
		open:  make(map[*crashFile]struct{}),
		dirs:  make(map[string]*ioCounts),
	}
}

// totals reports the I/O a directory has seen so far.
func (c *crashFS) totals(dir string) ioTotals {
	c.mu.Lock()
	d := c.dirs[filepath.Clean(dir)]
	c.mu.Unlock()
	if d == nil {
		return ioTotals{}
	}
	return ioTotals{d.writes.Load(), d.fsyncs.Load(), d.bytes.Load()}
}

type crashFile struct {
	fs    *crashFS
	f     wal.File
	state *fileState
	dir   *ioCounts
}

// track registers an opened file. size is what the file already held, all
// of it taken as durable.
func (c *crashFS) track(path string, f wal.File, size int64) *crashFile {
	path = filepath.Clean(path)
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.files[path]
	if st == nil {
		st = &fileState{written: size, synced: size}
		c.files[path] = st
	}
	dir := filepath.Dir(path)
	d := c.dirs[dir]
	if d == nil {
		d = new(ioCounts)
		c.dirs[dir] = d
	}
	cf := &crashFile{fs: c, f: f, state: st, dir: d}
	c.open[cf] = struct{}{}
	return cf
}

func (c *crashFS) Create(path string) (wal.File, error) {
	f, err := c.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return c.track(path, f, 0), nil
}

func (c *crashFS) OpenAppend(path string) (wal.File, error) {
	size, err := c.FS.Size(path)
	if err != nil {
		size = 0
	}
	f, err := c.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return c.track(path, f, size), nil
}

func (c *crashFS) CreateTemp(dir, pattern string) (wal.File, string, error) {
	f, name, err := c.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, "", err
	}
	return c.track(name, f, 0), name, nil
}

func (f *crashFile) Write(p []byte) (int, error) {
	var id int32
	tr := f.fs.tr
	if tr != nil {
		if parent := tr.bound(); parent != 0 {
			id = tr.start("wal.write", parent)
		}
	}
	n, err := f.f.Write(p)
	if id != 0 {
		tr.endN(id, int64(n))
	}
	f.dir.writes.Add(1)
	f.dir.bytes.Add(int64(n))
	f.fs.mu.Lock()
	f.state.written += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f *crashFile) Sync() error {
	var id int32
	tr := f.fs.tr
	if tr != nil {
		if parent := tr.bound(); parent != 0 {
			id = tr.start("wal.fsync", parent)
		}
	}
	deviceFlush()
	if id != 0 {
		tr.end(id)
	}
	f.dir.fsyncs.Add(1)
	f.fs.mu.Lock()
	f.state.synced = f.state.written
	f.fs.mu.Unlock()
	return nil
}

// flushTime is how long the modelled device takes to make a file's written
// bytes durable: about what the sandbox's fsync takes on a quiet day.
const flushTime = 150 * time.Microsecond

// deviceFlush blocks the calling thread in a system call for flushTime, the
// way an fsync does, so the scheduler hands the processor on exactly as it
// does around the real thing (time.Sleep parks the goroutine instead, and
// rounds up to a millisecond).
func deviceFlush() {
	ts := syscall.NsecToTimespec(int64(flushTime))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

func (f *crashFile) Close() error {
	f.fs.mu.Lock()
	delete(f.fs.open, f)
	f.fs.mu.Unlock()
	return f.f.Close()
}

func (c *crashFS) Truncate(path string, size int64) error {
	if err := c.FS.Truncate(path, size); err != nil {
		return err
	}
	c.mu.Lock()
	if st := c.files[filepath.Clean(path)]; st != nil {
		st.written = min(st.written, size)
		st.synced = min(st.synced, size)
	}
	c.mu.Unlock()
	return nil
}

func (c *crashFS) Rename(oldPath, newPath string) error {
	if err := c.FS.Rename(oldPath, newPath); err != nil {
		return err
	}
	oldPath, newPath = filepath.Clean(oldPath), filepath.Clean(newPath)
	c.mu.Lock()
	if st := c.files[oldPath]; st != nil {
		delete(c.files, oldPath)
		c.files[newPath] = st
	}
	c.mu.Unlock()
	return nil
}

func (c *crashFS) Remove(path string) error {
	if err := c.FS.Remove(path); err != nil {
		return err
	}
	c.mu.Lock()
	delete(c.files, filepath.Clean(path))
	c.mu.Unlock()
	return nil
}

// Crash simulates a power loss: every open handle is closed without a sync
// and every file is cut back to the bytes an fsync had covered. It returns
// how many written bytes were lost. The crashFS must not be used afterwards.
func (c *crashFS) Crash() (lost int64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for f := range c.open {
		f.f.Close()
	}
	c.open = nil
	for path, st := range c.files {
		if st.synced < st.written {
			lost += st.written - st.synced
			if e := c.FS.Truncate(path, st.synced); e != nil && err == nil {
				err = e
			}
		}
	}
	return lost, err
}
