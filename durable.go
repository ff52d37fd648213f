package evolvefd

import (
	"errors"
	"fmt"
	"sort"

	"github.com/evolvefd/evolvefd/internal/discovery"
	"github.com/evolvefd/evolvefd/internal/wal"
)

// ErrSessionClosed is returned by mutating operations on a Session whose
// durable state was Closed.
var ErrSessionClosed = errors.New("evolvefd: session is closed")

// DurabilityOptions tunes a durable session's write-ahead logging. The zero
// value is the safe configuration: every mutation is written and fsynced
// before the call returns.
type DurabilityOptions struct {
	// GroupCommit batches this many mutation records per fsync: records
	// buffer in process and hit the disk together, amortising the sync cost
	// under bulk loads. A crash loses at most the buffered suffix — never a
	// torn half-mutation. ≤ 1 means every record is flushed synchronously;
	// call Flush to force out a partial batch.
	GroupCommit int
	// NoFsync skips fsync entirely (records are still written in order), for
	// tests and benchmarks where the OS page cache is durability enough.
	NoFsync bool
	// MaxLogBytes bounds a log generation's size: once the live log grows past
	// it, the session seals the generation with a checkpoint record and rolls
	// a fresh snapshot+log pair, so the log no longer grows without bound
	// between compactions. ≤ 0 disables size-based rotation (compactions still
	// rotate).
	MaxLogBytes int64
	// FS overrides the filesystem every durable operation (log appends,
	// fsyncs, snapshot writes, retention, recovery reads) runs over; nil means
	// the real one. Fault-injection tests pass a wal.ErrFS here.
	FS wal.FS
}

// durability is the Session's WAL attachment: the data directory, the live
// log generation, and a sticky error — once a log write fails, later
// mutations must not be logged (the gap would corrupt replay), so logging
// stops and the error surfaces on Flush/Close. A successful checkpoint
// clears the sticky error: the snapshot captures the full state, making the
// broken log tail irrelevant.
type durability struct {
	dir    string
	opts   DurabilityOptions
	log    *wal.Log
	seq    uint64
	closed bool
	err    error
}

// NewDurableSession opens a session over rel whose every mutation is
// write-ahead logged under dir (created if missing; it must not already
// hold session state — recover that with OpenSession instead). The initial
// state is captured as snapshot 1 immediately, so the directory is
// recoverable from the first mutation on.
func NewDurableSession(rel *Relation, dir string, opts DurabilityOptions) (*Session, error) {
	if err := wal.OrOS(opts.FS).MkdirAll(dir); err != nil {
		return nil, err
	}
	snaps, logs, err := wal.ListStatesFS(opts.FS, dir)
	if err != nil {
		return nil, err
	}
	if len(snaps) > 0 || len(logs) > 0 {
		return nil, fmt.Errorf("evolvefd: %s already holds session state; use OpenSession", dir)
	}
	s := NewSession(rel)
	if err := wal.WriteSnapshotFS(opts.FS, dir, s.snapshotLocked(1), opts.NoFsync); err != nil {
		return nil, err
	}
	log, err := wal.CreateFS(opts.FS, wal.LogPath(dir, 1), opts.GroupCommit, opts.NoFsync)
	if err != nil {
		return nil, err
	}
	s.dur = &durability{dir: dir, opts: opts, log: log, seq: 1}
	return s, nil
}

// HasSessionState reports whether dir holds durable session state (a
// snapshot or write-ahead log) that OpenSession could recover. A missing or
// empty directory reports false.
func HasSessionState(dir string) bool {
	snaps, logs, err := wal.ListStatesFS(nil, dir)
	return err == nil && (len(snaps) > 0 || len(logs) > 0)
}

// OpenSession recovers a durable session from dir: it loads the newest
// valid snapshot, replays the write-ahead log tail one record at a time
// through the code path every live mutation takes, and truncates any torn
// final record. The cost is O(snapshot + tail), not O(history) — the
// relation's columns load without re-interning, the counter resumes its
// generation clock, and the discovery borders import without re-searching
// the lattice.
func OpenSession(dir string) (*Session, error) {
	return OpenSessionOptions(dir, DurabilityOptions{})
}

// OpenSessionOptions is OpenSession with explicit durability tuning for the
// recovered session's future mutations.
func OpenSessionOptions(dir string, opts DurabilityOptions) (*Session, error) {
	snaps, logs, err := wal.ListStatesFS(opts.FS, dir)
	if err != nil {
		return nil, err
	}
	if len(snaps) == 0 {
		return nil, fmt.Errorf("evolvefd: no snapshot in %s (not a session directory?)", dir)
	}
	s, chosen, fellBack, firstErr := restoreNewestSnapshot(opts.FS, dir, snaps, 0)
	if s == nil {
		return nil, fmt.Errorf("evolvefd: no usable snapshot in %s: %w", dir, firstErr)
	}
	maxSeq := chosen
	if n := len(logs); n > 0 && logs[n-1] > maxSeq {
		maxSeq = logs[n-1]
	}
	for seq := chosen; seq <= maxSeq; seq++ {
		path := wal.LogPath(dir, seq)
		payloads, valid, size, err := wal.ReadLogFS(opts.FS, path)
		if wal.IsNotExist(err) {
			if seq == maxSeq {
				// The crash hit between writing snapshot maxSeq and creating
				// its log: nothing happened after the snapshot.
				continue
			}
			return nil, fmt.Errorf("evolvefd: log %d missing from %s", seq, dir)
		}
		if err != nil {
			return nil, err
		}
		if valid < size {
			// Only the final log may end in a torn record; earlier logs were
			// sealed by a flush before their snapshot was written, so a bad
			// record there is damage recovery must not paper over.
			if seq != maxSeq {
				return nil, fmt.Errorf("evolvefd: log %d in %s is corrupt before the final log", seq, dir)
			}
			if err := wal.TruncateTornFS(opts.FS, path, valid); err != nil {
				return nil, err
			}
		}
		for i, payload := range payloads {
			op, err := wal.DecodeOp(payload)
			if err != nil {
				return nil, fmt.Errorf("evolvefd: log %d record %d: %w", seq, i, err)
			}
			if err := s.Apply(op); err != nil {
				return nil, fmt.Errorf("evolvefd: replay log %d record %d: %w", seq, i, err)
			}
		}
	}
	log, err := wal.OpenAppendFS(opts.FS, wal.LogPath(dir, maxSeq), opts.GroupCommit, opts.NoFsync)
	if err != nil {
		return nil, err
	}
	// Attached only now, so the replay above logged and checkpointed nothing.
	s.dur = &durability{dir: dir, opts: opts, log: log, seq: maxSeq}
	if fellBack {
		// A newer-but-corrupt snapshot is still on disk and would be probed
		// first by the next recovery; supersede it with a fresh checkpoint.
		// The marker is OpCheckpoint, not OpCompact: no compaction ran, and a
		// replay of this log from an older generation must not invent one.
		s.mu.Lock()
		s.checkpointLocked(wal.OpCheckpoint)
		err := s.dur.err
		s.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// restoreNewestSnapshot probes snaps (ascending sequence numbers listed from
// dir) newest-first and restores a session from the first one past minSeq
// that reads back and restores cleanly. A corrupt snapshot falls back to its
// predecessor, whose log chain still reaches the present because Compact
// records are logical and two generations are retained; fellBack reports
// that happened and firstErr why. A nil session means no snapshot past
// minSeq was usable (firstErr is nil when there was none to try).
func restoreNewestSnapshot(fsys wal.FS, dir string, snaps []uint64, minSeq uint64) (s *Session, seq uint64, fellBack bool, firstErr error) {
	for i := len(snaps) - 1; i >= 0 && snaps[i] > minSeq; i-- {
		snap, err := wal.ReadSnapshotFS(fsys, dir, snaps[i])
		if err == nil {
			s, err = restoreSnapshot(snap)
		}
		if err == nil {
			return s, snaps[i], fellBack, firstErr
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("snapshot %d: %w", snaps[i], err)
		}
		fellBack = true
	}
	return nil, 0, fellBack, firstErr
}

// restoreSnapshot rebuilds a Session from a decoded snapshot: relation and
// counter (with the generation clock resumed), defined FDs applied as one
// batch of defines, and the discovery borders re-imported with full
// validation against the restored instance.
func restoreSnapshot(snap *wal.Snapshot) (*Session, error) {
	s := NewSession(snap.Rel)
	s.counter.RestoreGeneration(snap.Generation)
	if err := s.counter.ImportIndexes(snap.Indexes); err != nil {
		return nil, err
	}
	s.compactions = snap.Compactions
	defines := make([]wal.Op, len(snap.FDs))
	for i, dfd := range snap.FDs {
		defines[i] = wal.Op{Kind: wal.OpDefine, Label: dfd.Label, Spec: dfd.Spec}
	}
	if err := s.Apply(defines...); err != nil {
		return nil, err
	}
	if snap.Disc != nil {
		dopts := discovery.Options{MaxLHS: snap.Disc.MaxLHS}
		if snap.Disc.HasConsequents {
			dopts.Consequents = append([]int{}, snap.Disc.Consequents...)
		}
		disc, err := discovery.RestoreDiscoverer(s.counter, dopts, &snap.Disc.Borders)
		if err != nil {
			return nil, err
		}
		s.disc = disc
		s.discOpts = dopts
		s.lastCover = make(map[string]bool, len(snap.Disc.LastCover))
		for _, key := range snap.Disc.LastCover {
			s.lastCover[key] = true
		}
		s.lastExact = make(map[string]bool, len(snap.Disc.LastExact))
		for _, le := range snap.Disc.LastExact {
			if _, ok := s.fds[le.Label]; !ok {
				return nil, fmt.Errorf("exactness baseline names undefined FD %q", le.Label)
			}
			s.lastExact[le.Label] = le.Exact
		}
	}
	return s, nil
}

// DataDir returns the session's durable data directory, or "" for an
// ephemeral (NewSession) session.
func (s *Session) DataDir() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.dur == nil {
		return ""
	}
	return s.dur.dir
}

// Flush forces every buffered write-ahead record to disk — the group-commit
// drain point for callers that batch mutations. A nil return means every
// mutation applied so far is durable. On an ephemeral session it is a no-op.
func (s *Session) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.dur
	if d == nil || d.closed {
		return s.durErrLocked()
	}
	if err := d.log.Flush(); err != nil && d.err == nil {
		d.err = err
	}
	return s.durErrLocked()
}

// Close flushes and closes the session's write-ahead log. The session stays
// readable, but every later mutation fails with ErrSessionClosed — its
// effect could no longer be made durable. Close is idempotent and returns
// the first logging error the session swallowed, if any: a non-nil return
// means some suffix of mutations may not have reached disk.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.dur
	if d == nil {
		return nil
	}
	if !d.closed {
		d.closed = true
		if err := d.log.Close(); err != nil && d.err == nil {
			d.err = err
		}
	}
	return s.durErrLocked()
}

// durErrLocked returns the sticky durability error, if any.
func (s *Session) durErrLocked() error {
	if s.dur == nil {
		return nil
	}
	return s.dur.err
}

// logOp appends one mutation record to the write-ahead log; apply calls it
// right after the op took effect (only ops that cannot fail on replay are
// logged). Logging stops at the first error — a gap mid-log would make
// replay diverge — and the error surfaces on Flush/Close.
func (s *Session) logOp(op wal.Op) {
	d := s.dur
	if d == nil || d.err != nil {
		return
	}
	if err := d.log.Append(wal.EncodeOp(nil, op)); err != nil {
		d.err = err
		return
	}
	if max := d.opts.MaxLogBytes; max > 0 && d.log.Written() >= max {
		s.checkpointLocked(wal.OpCheckpoint)
	}
}

// checkpointLocked seals the current log generation and establishes the
// next one: the marker record (OpCompact when a compaction just ran,
// OpCheckpoint for a pure size-based rotation) is flushed to the old log,
// the full state is written as snapshot seq+1 via temp-file-and-rename, the
// log rotates, and old generations are pruned. Retention keeps a
// one-generation fallback (the newest snapshot could prove unreadable), it
// never prunes past what a registered follower pin still needs, and it does
// not advance at all unless the snapshot it would trust reads back clean.
func (s *Session) checkpointLocked(marker byte) {
	d := s.dur
	if d == nil || d.closed {
		return
	}
	if s.disc != nil {
		// A compaction-driven checkpoint synced the discoverer already; a
		// size-based or superseding one must fold pending DML into the borders
		// itself before they are exported.
		s.disc.Sync()
	}
	if d.err == nil {
		if err := d.log.Append(wal.EncodeOp(nil, wal.Op{Kind: marker})); err != nil {
			d.err = err
		} else if err := d.log.Flush(); err != nil {
			d.err = err
		}
	}
	seq := d.seq + 1
	if err := wal.WriteSnapshotFS(d.opts.FS, d.dir, s.snapshotLocked(seq), d.opts.NoFsync); err != nil {
		if d.err == nil {
			d.err = err
		}
		return
	}
	next, err := wal.CreateFS(d.opts.FS, wal.LogPath(d.dir, seq), d.opts.GroupCommit, d.opts.NoFsync)
	if err != nil {
		if d.err == nil {
			d.err = err
		}
		return
	}
	d.log.Close()
	d.log = next
	d.seq = seq
	// The snapshot captures the full state, so even if this generation's log
	// tail was broken, durability is whole again.
	d.err = nil
	floor := seq - 1
	if pin, ok := wal.MinPinned(d.opts.FS, d.dir); ok && pin < floor {
		floor = pin
	}
	if wal.VerifySnapshot(d.opts.FS, d.dir, seq) {
		wal.PruneFS(d.opts.FS, d.dir, floor)
	}
}

// snapshotLocked captures the session's durable state under the held write
// lock. The discoverer, when present, was synced by the surrounding
// compaction, so its exported witnesses are live current-epoch rows.
func (s *Session) snapshotLocked(seq uint64) *wal.Snapshot {
	snap := &wal.Snapshot{
		Seq:         seq,
		Generation:  s.counter.Generation(),
		Compactions: s.compactions,
		Rel:         s.rel,
	}
	schema := s.rel.Schema()
	for _, label := range s.order {
		// Format the bare dependency body (no "label: " prefix): the spec must
		// re-parse through core.ParseFD on recovery, and the label travels in
		// its own field.
		fd := s.fds[label]
		fd.Label = ""
		snap.FDs = append(snap.FDs, wal.DefinedFD{Label: label, Spec: fd.FormatWith(schema)})
	}
	if s.disc != nil {
		d := &wal.DiscState{
			MaxLHS:         s.discOpts.MaxLHS,
			HasConsequents: s.discOpts.Consequents != nil,
			Consequents:    s.discOpts.Consequents,
			Borders:        *s.disc.ExportBorders(),
		}
		for key := range s.lastCover {
			d.LastCover = append(d.LastCover, key)
		}
		sort.Strings(d.LastCover)
		for _, label := range s.order {
			if exact, ok := s.lastExact[label]; ok {
				d.LastExact = append(d.LastExact, wal.LabelExact{Label: label, Exact: exact})
			}
		}
		snap.Disc = d
	}
	// Dump the tracked cluster indexes so recovery decodes its partition
	// state instead of refolding the instance once per tracked set — the
	// bulk of a cold restore on a big relation.
	snap.Indexes = s.counter.ExportIndexes()
	return snap
}
