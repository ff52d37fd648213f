package wal

import (
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// File naming: snapshot seq S lives in snap-<S>.snap, and the records after
// it in wal-<S>.log. Sequence numbers are zero-padded so lexical order is
// numeric order. Followers register the oldest sequence they still need in
// pin-<id>.pin files, which retention honours and ListStates ignores.
const (
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	logPrefix  = "wal-"
	logSuffix  = ".log"
	pinPrefix  = "pin-"
	pinSuffix  = ".pin"
)

// SnapshotPath returns the path of snapshot seq under dir.
func SnapshotPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016d%s", snapPrefix, seq, snapSuffix))
}

// LogPath returns the path of log seq under dir.
func LogPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016d%s", logPrefix, seq, logSuffix))
}

// PinPath returns the path of follower id's pin file under dir.
func PinPath(dir, id string) string {
	return filepath.Join(dir, pinPrefix+id+pinSuffix)
}

// ListStatesFS scans dir and returns the snapshot and log sequence numbers
// present, each sorted ascending. Unrelated files (pins included) are
// ignored.
func ListStatesFS(fsys FS, dir string) (snaps, logs []uint64, err error) {
	names, err := OrOS(fsys).ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, name := range names {
		if seq, ok := parseSeq(name, snapPrefix, snapSuffix); ok {
			snaps = append(snaps, seq)
		} else if seq, ok := parseSeq(name, logPrefix, logSuffix); ok {
			logs = append(logs, seq)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(logs, func(i, j int) bool { return logs[i] < logs[j] })
	return snaps, logs, nil
}

func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	seq, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// WritePin records that follower id still needs snapshot/log sequences ≥ seq,
// lowering the leader's retention floor until the pin moves or disappears. A
// pin is advisory liveness state, not durable state — it is rewritten on
// every follower sync — so it skips the fsync a snapshot would pay.
func WritePin(fsys FS, dir, id string, seq uint64) error {
	return WriteFileAtomicFS(fsys, PinPath(dir, id), []byte(strconv.FormatUint(seq, 10)), false)
}

// RemovePin drops follower id's pin. Missing pins are not an error.
func RemovePin(fsys FS, dir, id string) error {
	if err := OrOS(fsys).Remove(PinPath(dir, id)); err != nil && !IsNotExist(err) {
		return err
	}
	return nil
}

// MinPinned returns the lowest sequence any pin file in dir still needs, and
// whether one exists. Unparsable pins are ignored rather than wedging
// retention forever.
func MinPinned(fsys FS, dir string) (uint64, bool) {
	f := OrOS(fsys)
	names, err := f.ReadDir(dir)
	if err != nil {
		return 0, false
	}
	min, found := uint64(0), false
	for _, name := range names {
		if !strings.HasPrefix(name, pinPrefix) || !strings.HasSuffix(name, pinSuffix) {
			continue
		}
		data, err := f.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSpace(string(data)), 10, 64)
		if err != nil {
			continue
		}
		if !found || seq < min {
			min, found = seq, true
		}
	}
	return min, found
}

// PruneFS removes every snapshot and log file whose sequence is below keep.
// Removal failures are ignored — stale generations are garbage, not state.
func PruneFS(fsys FS, dir string, keep uint64) {
	f := OrOS(fsys)
	snaps, logs, err := ListStatesFS(f, dir)
	if err != nil {
		return
	}
	for _, seq := range snaps {
		if seq < keep {
			f.Remove(SnapshotPath(dir, seq))
		}
	}
	for _, seq := range logs {
		if seq < keep {
			f.Remove(LogPath(dir, seq))
		}
	}
}

// WriteFileAtomicFS writes data to path via a temp file in the same directory
// and a rename, so path either holds the old content or all of the new one —
// never a prefix. With fsync, the file is synced before the rename and the
// directory after it, making the swap durable, not just atomic.
func WriteFileAtomicFS(fsys FS, path string, data []byte, fsync bool) error {
	f := OrOS(fsys)
	dir := filepath.Dir(path)
	tmp, tmpName, err := f.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	cleanup := func(err error) error {
		tmp.Close()
		f.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if fsync {
		if err := tmp.Sync(); err != nil {
			return cleanup(err)
		}
	}
	if err := tmp.Close(); err != nil {
		return cleanup(err)
	}
	if err := f.Rename(tmpName, path); err != nil {
		f.Remove(tmpName)
		return err
	}
	if fsync {
		f.SyncDir(dir)
	}
	return nil
}
