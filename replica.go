package evolvefd

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/evolvefd/evolvefd/internal/replica"
	"github.com/evolvefd/evolvefd/internal/wal"
)

// FollowerOptions tunes a follower session. The zero value is usable: real
// filesystem, pin id "follower", unbounded catch-up batches, five retries
// with 5ms exponential backoff.
type FollowerOptions struct {
	// FS overrides the filesystem the follower reads the leader's directory
	// through; nil means the real one. Fault-injection tests pass a
	// wal.ErrFS here.
	FS wal.FS
	// ID names this follower's pin file in the leader's directory, so leader
	// retention keeps the segments the follower still needs. Followers
	// sharing a leader must use distinct ids.
	ID string
	// NoPin disables pinning, for followers over a read-only copy of the
	// leader's directory.
	NoPin bool
	// MaxOpsPerCatchUp bounds the ops one CatchUp call replays (0 means no
	// bound), trading convergence for bounded serving latency under a
	// fast-writing leader.
	MaxOpsPerCatchUp int
	// RetryLimit bounds consecutive retries of a transient read error before
	// CatchUp gives up and returns it (the follower stays usable; a later
	// CatchUp starts fresh). RetryBackoff is the first sleep, doubling per
	// retry. Sleep overrides time.Sleep for tests.
	RetryLimit   int
	RetryBackoff time.Duration
	Sleep        func(time.Duration)
}

// FollowerStats describes a follower's replication progress and health.
type FollowerStats struct {
	// Seq is the leader log generation being tailed; Records and Bytes count
	// everything replayed since OpenFollower, across resyncs.
	Seq     uint64
	Records uint64
	Bytes   int64
	// SegmentLag and ByteLag measure the distance to the leader's durable
	// head as of the last CatchUp or Stats call: how many generations ahead
	// the newest on-disk state is, and roughly how many unconsumed log bytes
	// remain.
	SegmentLag uint64
	ByteLag    int64
	// Retries counts transient read errors survived; Resyncs counts
	// re-bootstraps from a snapshot (after falling behind retention or
	// quarantining corruption); Quarantines counts segments abandoned as
	// corrupt. Degraded is set while the follower serves stale state because
	// no readable snapshot past a quarantined segment exists yet — it clears
	// on the next successful resync.
	Retries     int
	Resyncs     int
	Quarantines int
	Degraded    bool
}

// Follower is a read-only replica of a durable session: it bootstraps from
// the leader's newest valid snapshot, tails the leader's write-ahead log,
// and replays every record through the same code paths recovery uses — so
// at every checkpoint (a CatchUp that drained the log) it answers Check,
// Discover and Suggestions queries identically to the leader.
//
// A follower never mutates the leader's state; the only file it writes in
// the leader's directory is its retention pin. It survives the leader
// compacting mid-tail (the seal marker walks it onto the next generation),
// falling behind retention and segment corruption (resync from the newest
// valid snapshot, surfaced in Stats), and transient read errors (bounded
// retry with exponential backoff).
//
// Follower methods are safe for concurrent use with each other; reads
// observe the state as of the last completed CatchUp.
type Follower struct {
	mu   sync.Mutex
	dir  string
	opts FollowerOptions

	s    *Session
	tail *replica.Tailer

	stats  FollowerStats
	closed bool
	// quarantined is the highest segment abandoned as corrupt; a resync must
	// land strictly past it or it would replay the same damage.
	quarantined uint64
}

// OpenFollower opens a read-only follower over a leader's data directory.
// It bootstraps from the newest valid snapshot but does not replay the log
// tail — call CatchUp to converge on the leader's head.
func OpenFollower(dir string, opts FollowerOptions) (*Follower, error) {
	if opts.ID == "" {
		opts.ID = "follower"
	}
	if opts.RetryLimit <= 0 {
		opts.RetryLimit = 5
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 5 * time.Millisecond
	}
	if opts.Sleep == nil {
		opts.Sleep = time.Sleep
	}
	f := &Follower{dir: dir, opts: opts}
	s, seq, err := f.bootstrap(0)
	if err != nil {
		return nil, err
	}
	f.s = s
	f.tail = replica.NewTailer(opts.FS, dir, seq)
	f.stats.Seq = seq
	f.writePin(seq)
	return f, nil
}

// bootstrap restores a session from the newest snapshot in the leader's
// directory that both reads back valid and lies strictly past minSeq.
func (f *Follower) bootstrap(minSeq uint64) (*Session, uint64, error) {
	snaps, _, err := wal.ListStatesFS(f.opts.FS, f.dir)
	if err != nil {
		return nil, 0, err
	}
	if len(snaps) == 0 {
		return nil, 0, fmt.Errorf("evolvefd: no snapshot in %s (not a leader directory?)", f.dir)
	}
	s, seq, _, firstErr := restoreNewestSnapshot(f.opts.FS, f.dir, snaps, minSeq)
	if s != nil {
		return s, seq, nil
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("no snapshot past %d", minSeq)
	}
	return nil, 0, fmt.Errorf("evolvefd: no usable snapshot in %s: %w", f.dir, firstErr)
}

// CatchUp replays the leader's log from the follower's position toward the
// leader's flushed head, returning how many ops it applied. A nil error
// means the follower either drained everything durable (a checkpoint — its
// answers now match the leader's) or hit its MaxOpsPerCatchUp budget, or is
// serving degraded after unrecoverable corruption (see Stats). A non-nil
// error is a transient failure that outlived the retry budget; the follower
// remains usable and a later CatchUp starts fresh.
func (f *Follower) CatchUp() (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, ErrSessionClosed
	}
	applied, err := f.catchUpLocked()
	f.refreshLocked()
	return applied, err
}

func (f *Follower) catchUpLocked() (int, error) {
	applied := 0
	retries := 0
	corruptRetried := false
	resyncs := 0
	for {
		max := 0
		if b := f.opts.MaxOpsPerCatchUp; b > 0 {
			max = b - applied
			if max <= 0 {
				return applied, nil
			}
		}
		ops, err := f.tail.Poll(max)
		for _, op := range ops {
			if aerr := f.s.Apply(op); aerr != nil {
				// A checksum-valid record the session cannot apply is stream
				// corruption wearing a different coat. The tailer has already
				// moved past the record, so a re-read would silently skip it —
				// quarantine straight away, no retry.
				seq, off := f.tail.Pos()
				err = &replica.CorruptError{Seq: seq, Offset: off, Err: aerr}
				corruptRetried = true
				break
			}
			applied++
		}
		if err == nil {
			if len(ops) == 0 {
				return applied, nil
			}
			retries, corruptRetried = 0, false
			continue
		}
		var cerr *replica.CorruptError
		switch {
		case errors.As(err, &cerr):
			if !corruptRetried {
				// One free re-read shields against racing a leader flush
				// mid-record; real corruption is still corrupt the second time.
				corruptRetried = true
				continue
			}
			corruptRetried = false
			f.stats.Quarantines++
			if cerr.Seq > f.quarantined {
				f.quarantined = cerr.Seq
			}
			if !f.resyncLocked(f.quarantined) {
				// Nothing valid past the damage yet: serve what we have and
				// say so, rather than dying. The next CatchUp tries again.
				f.stats.Degraded = true
				return applied, nil
			}
		case errors.Is(err, replica.ErrFellBehind):
			if resyncs++; resyncs > 3 {
				return applied, fmt.Errorf("evolvefd: follower cannot converge on %s: %w", f.dir, err)
			}
			if !f.resyncLocked(f.quarantined) {
				f.stats.Degraded = true
				return applied, nil
			}
		default:
			if retries >= f.opts.RetryLimit {
				return applied, err
			}
			f.stats.Retries++
			f.opts.Sleep(f.opts.RetryBackoff << retries)
			retries++
		}
	}
}

// resyncLocked re-bootstraps from the newest valid snapshot strictly past
// minSeq, reporting whether one was found.
func (f *Follower) resyncLocked(minSeq uint64) bool {
	s, seq, err := f.bootstrap(minSeq)
	if err != nil {
		return false
	}
	f.s = s
	f.tail.Reset(seq)
	f.stats.Resyncs++
	f.stats.Degraded = false
	return true
}

// refreshLocked updates the position, lag and pin after a catch-up pass.
func (f *Follower) refreshLocked() {
	seq, _ := f.tail.Pos()
	if seq != f.stats.Seq {
		f.writePin(seq)
	}
	f.stats.Seq = seq
	f.stats.Records, f.stats.Bytes = f.tail.Consumed()
	if segs, bytes, err := f.tail.Lag(); err == nil {
		f.stats.SegmentLag, f.stats.ByteLag = segs, bytes
	}
}

// writePin advertises the oldest generation this follower still needs.
// Pinning is advisory — a failure (say, a read-only leader directory) makes
// the follower prunable, not broken — so errors are dropped.
func (f *Follower) writePin(seq uint64) {
	if f.opts.NoPin {
		return
	}
	_ = wal.WritePin(f.opts.FS, f.dir, f.opts.ID, seq)
}

// Stats returns a snapshot of the follower's replication counters, with the
// lag figures refreshed against the leader's directory.
func (f *Follower) Stats() FollowerStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.closed {
		if segs, bytes, err := f.tail.Lag(); err == nil {
			f.stats.SegmentLag, f.stats.ByteLag = segs, bytes
		}
	}
	return f.stats
}

// Close removes the follower's retention pin and marks it closed. The
// replica state stays readable; only CatchUp is refused afterwards.
func (f *Follower) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	if f.opts.NoPin {
		return nil
	}
	return wal.RemovePin(f.opts.FS, f.dir, f.opts.ID)
}

// DataDir returns the leader directory this follower tails.
func (f *Follower) DataDir() string { return f.dir }

// session returns the inner replica session for a read delegation. The
// inner session is ephemeral (its durability hooks are nil), so even the
// delegated methods that touch caches or advisor baselines never write a
// byte anywhere.
func (f *Follower) session() *Session {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.s
}

// Check reports the violated defined FDs as of the last CatchUp.
func (f *Follower) Check() []Violation { return f.session().Check() }

// Measures evaluates one defined FD's measures as of the last CatchUp.
func (f *Follower) Measures(label string) (Measures, error) { return f.session().Measures(label) }

// Repair searches antecedent extensions for a violated FD, read-only.
func (f *Follower) Repair(label string, opts Options) ([]Suggestion, error) {
	return f.session().Repair(label, opts)
}

// Discover runs full FD discovery over the replicated instance.
func (f *Follower) Discover(opts DiscoveryOptions) ([]DiscoveredFD, error) {
	return f.session().Discover(opts)
}

// DiscoverIncremental discovers over the replica's maintained borders.
func (f *Follower) DiscoverIncremental(opts DiscoveryOptions) ([]DiscoveredFD, error) {
	return f.session().DiscoverIncremental(opts)
}

// Suggestions reports the advisor feed as of the last CatchUp. The
// emerged/broken baseline is replica-local state: it matches the leader's
// when the two call Suggestions at the same checkpoints (the baseline is
// itself replicated through snapshots, so a fresh follower starts from the
// leader's last checkpointed baseline).
func (f *Follower) Suggestions() ([]AdvisorSuggestion, error) { return f.session().Suggestions() }

// Labels lists the defined FD labels in definition order.
func (f *Follower) Labels() []string { return f.session().Labels() }

// CacheStats reports the replica's measure-cache reuse counters.
func (f *Follower) CacheStats() (reused, recomputed uint64) { return f.session().CacheStats() }

// FDText formats one defined FD.
func (f *Follower) FDText(label string) (string, error) { return f.session().FDText(label) }

// LiveRows returns the replicated live row count.
func (f *Follower) LiveRows() int { return f.session().LiveRows() }

// Generation returns the replica counter's generation clock.
func (f *Follower) Generation() uint64 { return f.session().Generation() }

// Epoch returns the replica's storage epoch.
func (f *Follower) Epoch() uint64 { return f.session().Epoch() }

// MemStats describes the replica's storage and incremental-state footprint.
func (f *Follower) MemStats() MemStats { return f.session().MemStats() }

// DiscoveryStats describes the replica's maintained discovery borders.
func (f *Follower) DiscoveryStats() DiscoveryStats { return f.session().DiscoveryStats() }

// Consistent reports whether every defined FD holds on the replicated data.
func (f *Follower) Consistent() bool { return f.session().Consistent() }

// Relation exposes the replicated relation for read-only inspection.
func (f *Follower) Relation() *Relation { return f.session().Relation() }
