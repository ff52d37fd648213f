package evolvefd

import (
	"fmt"
	"slices"

	"github.com/evolvefd/evolvefd/internal/bitset"
	"github.com/evolvefd/evolvefd/internal/core"
	"github.com/evolvefd/evolvefd/internal/wal"
)

// Apply runs a batch of mutations all-or-nothing: the whole batch is
// validated before its first op touches the session, so a refused batch (a
// *wal.OpError naming the op) changes nothing and logs nothing. Each public
// mutator is a batch of one; internal/serve applies a write request as one.
func (s *Session) Apply(ops ...wal.Op) error {
	_, err := s.apply(ops)
	return err
}

// apply is the one code path that mutates a session: the public mutators,
// Apply, recovery replay and follower catch-up all run through it. Under one
// write-lock hold it plans the whole batch, then runs each op's step and
// logs the op right after it, so a size-based rotation between two records
// snapshots exactly the logged prefix. Auto-compaction is evaluated once,
// after a batch that deletes. The stats describe the batch's last
// compaction, or the unchanged extent when none ran.
func (s *Session) apply(ops []wal.Op) (CompactionStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := CompactionStats{OldRows: s.rel.NumRows(), NewRows: s.rel.NumRows(), Epoch: s.rel.Epoch()}
	if s.dur != nil && s.dur.closed {
		return st, ErrSessionClosed
	}
	plan, err := s.planLocked(ops, &st)
	if err != nil {
		return st, err
	}
	for i, step := range plan {
		if step == nil {
			continue // the op changes nothing, so there is nothing to log
		}
		if err := step(); err != nil {
			// The plan admitted an op the state refuses: a bug. The applied
			// prefix is logged, so the log still matches the state.
			return st, &wal.OpError{Index: i, Err: err}
		}
		if ops[i].Kind != wal.OpCompact { // a compaction's checkpoint logs it
			s.logOp(ops[i])
		}
	}
	deletes := func(op wal.Op) bool { return op.Kind == wal.OpDelete && len(op.Rows) > 0 }
	if p := s.autoCompact; p != nil && slices.ContainsFunc(ops, deletes) {
		m := s.rel.MemStats()
		if m.Tombstones >= p.minTombstones() && m.TombstoneRatio >= p.ratio() {
			s.compactLocked()
		}
	}
	return st, nil
}

// planLocked validates a batch against the state its earlier ops would
// leave, without touching the session: text cells parse, typed tuples fit
// the schema, row ids name live rows, labels resolve, and every defined or
// accepted FD is well-formed. It returns the step that applies each op
// (nil for an op that changes nothing); a compaction's step sets *st.
func (s *Session) planLocked(ops []wal.Op, st *CompactionStats) ([]func() error, error) {
	extent, tombs := s.rel.NumRows(), s.rel.NumRows()-s.rel.LiveRows()
	compacted := false     // an earlier OpCompact renumbered the live rows
	gone := map[int]bool{} // rows an earlier op deleted
	dead := func(row int) bool {
		return gone[row] || !compacted && row < s.rel.NumRows() && s.rel.IsDeleted(row)
	}
	edits := map[string]core.FD{} // FDs set by earlier ops; a dropped one is zero
	plan := make([]func() error, len(ops))
	for i, op := range ops {
		tuple, err := op.Tuple, error(nil)
		switch op.Kind {
		case wal.OpAppendStrings, wal.OpUpdateStrings:
			tuple, err = s.rel.ParseTuple(op.Cells...)
		case wal.OpAppend, wal.OpUpdate:
			err = s.rel.ValidateTuple(tuple) // widens int values in place
		}
		fd, known := edits[op.Label]
		if !known {
			fd, known = s.fds[op.Label]
		}
		known = known && !fd.X.IsEmpty()
		switch {
		case err != nil:
		case op.Kind == wal.OpAppend || op.Kind == wal.OpAppendStrings:
			extent++
			plan[i] = func() error { return s.rel.Append(tuple...) }
		case op.Kind == wal.OpUpdate || op.Kind == wal.OpUpdateStrings:
			err = s.rel.CheckRow("update", op.Row, extent, dead)
			plan[i] = func() error { return s.counter.Update(op.Row, tuple...) }
		case op.Kind == wal.OpDelete:
			for _, row := range op.Rows {
				if err = s.rel.CheckRow("delete", row, extent, dead); err != nil {
					break
				}
				gone[row] = true
			}
			tombs += len(op.Rows)
			plan[i] = func() error { return s.counter.Delete(op.Rows...) }
		case op.Kind == wal.OpCompact:
			extent, tombs, compacted = extent-tombs, 0, true
			clear(gone)
			plan[i] = func() error { *st = s.compactLocked(); return nil }
		case op.Kind == wal.OpDefine && known:
			err = fmt.Errorf("%w: %q", ErrDuplicateFD, op.Label)
		case op.Kind == wal.OpDefine:
			fd, err = core.ParseFD(s.rel.Schema(), op.Label, op.Spec)
		case op.Kind == wal.OpAccept && !known:
			err = fmt.Errorf("%w %q", ErrUnknownFD, op.Label)
		case op.Kind == wal.OpAccept:
			var added bitset.Set
			if added, err = s.rel.Schema().IndexSet(op.Names...); err == nil {
				// NewFD refuses an added consequent attribute: the FD would be
				// trivial, and its spec would not parse on recovery.
				fd, err = core.NewFD(op.Label, fd.X.Union(added), fd.Y)
			}
		case op.Kind == wal.OpDrop:
			fd = core.FD{}
		case op.Kind != wal.OpCheckpoint: // a seal marker changes nothing
			err = fmt.Errorf("evolvefd: unknown op kind %d", op.Kind)
		}
		if err != nil {
			return nil, &wal.OpError{Index: i, Err: err}
		}
		// An FD op resolves to the label's new FD (zero once dropped); a drop
		// of an unknown label changes nothing.
		if op.Kind == wal.OpDefine || op.Kind == wal.OpAccept || op.Kind == wal.OpDrop && known {
			edits[op.Label] = fd
			plan[i] = func() error { s.setFDLocked(op.Label, fd); return nil }
		}
	}
	return plan, nil
}

// setFDLocked installs fd under label, or drops the label when fd is zero.
// A replaced FD's cached measures are dead weight and are evicted.
func (s *Session) setFDLocked(label string, fd core.FD) {
	if old, ok := s.fds[label]; ok {
		s.cache.Evict(old)
	} else {
		s.order = append(s.order, label)
	}
	if fd.X.IsEmpty() {
		delete(s.fds, label)
		s.order = slices.DeleteFunc(s.order, func(l string) bool { return l == label })
	} else {
		s.fds[label] = fd
	}
}
