package main

import (
	"io/fs"
	"math/rand"
	"path/filepath"
	"sort"
	"time"

	evolvefd "github.com/evolvefd/evolvefd"
	"github.com/evolvefd/evolvefd/internal/bitset"
	"github.com/evolvefd/evolvefd/internal/core"
	"github.com/evolvefd/evolvefd/internal/pli"
	"github.com/evolvefd/evolvefd/internal/wal"
)

// Twin replay attributes the time below the facade without touching the
// program: the op sequence the clients sent is replayed, single-threaded,
// against (a) the facade as the service runs it, minus the disk — a durable
// Session over a wal.FS that discards everything — (b) the counter and
// measure cache the facade composes, and (c) the bare relation. What a layer
// costs alone is what its twin measures; what the live request cost on top
// of that is the layers above it.

// twinOps is a tenant's op log in send order, followed by a fixed coda of
// delete, update and compact ops so that every DML kind has samples on the
// read mix too (whose log holds only appends).
func twinOps(t *tenant, logs [][]loggedOp, seed int64) []loggedOp {
	var ops []loggedOp
	for _, l := range logs {
		ops = append(ops, l...)
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].start < ops[j].start })

	// The coda needs live row ids of the state the log leaves behind, which
	// is the tenant's mirror; a copy keeps the mirror itself untouched.
	mir := &mirror{rows: append([]row(nil), t.mir.rows...)}
	mir.reindex()
	for id, dead := range t.mir.dead {
		if dead {
			mir.delete(id)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	const codaBatches = 8
	for i := 0; i < codaBatches; i++ {
		ids := mir.pickLive(deleteBatch, rng)
		for _, id := range ids {
			mir.delete(id)
		}
		ops = append(ops, loggedOp{kind: opDelete, ids: ids}, loggedOp{kind: opCheck})
		ids = mir.pickLive(updateBatch, rng)
		rows := make([]row, len(ids))
		for j, id := range ids {
			rows[j] = t.codec.mutate(mir.rows[id], rng)
		}
		// Two checks: the first folds the batch (dirty), the second finds
		// nothing changed (clean).
		ops = append(ops, loggedOp{kind: opUpdate, ids: ids, rows: rows}, loggedOp{kind: opCheck}, loggedOp{kind: opCheck})
	}
	return append(ops, loggedOp{kind: opCompact})
}

func since(start time.Time) float64 { return float64(time.Since(start)) / 1e3 } // µs

// sessionTwin is what the facade replay measured, in µs per op.
type sessionTwin struct {
	perOp              [numOpKinds][]float64 // whole op, µs
	checkClean         []float64
	checkDirty         []float64
	perRow             [numOpKinds][]float64 // DML ops: µs per row
	reused, recomputed uint64
}

// discardFS is a wal.FS that holds nothing: writes and syncs succeed at
// once, nothing can be read back. Over it a durable Session does all of its
// own work — encoding WAL records and snapshots, rotating generations — and
// none of the disk's.
type discardFS struct{}

type discardFile struct{}

func (discardFile) Write(p []byte) (int, error) { return len(p), nil }
func (discardFile) Sync() error                 { return nil }
func (discardFile) Close() error                { return nil }

func (discardFS) Create(string) (wal.File, error)     { return discardFile{}, nil }
func (discardFS) OpenAppend(string) (wal.File, error) { return discardFile{}, nil }
func (discardFS) CreateTemp(dir, pattern string) (wal.File, string, error) {
	return discardFile{}, filepath.Join(dir, pattern), nil
}
func (discardFS) ReadFile(string) ([]byte, error)  { return nil, fs.ErrNotExist }
func (discardFS) ReadDir(string) ([]string, error) { return nil, nil }
func (discardFS) Size(string) (int64, error)       { return 0, fs.ErrNotExist }
func (discardFS) Truncate(string, int64) error     { return nil }
func (discardFS) Rename(string, string) error      { return nil }
func (discardFS) Remove(string) error              { return nil }
func (discardFS) MkdirAll(string) error            { return nil }
func (discardFS) SyncDir(string) error             { return nil }

// replaySession replays ops against the facade as the service runs it — a
// durable Session with the default flush policy — over a discardFS, so the
// twin carries the engine and the facade's own durability work but neither
// the disk nor serve.
func replaySession(t *tenant, ops []loggedOp) (*sessionTwin, error) {
	tw := &sessionTwin{}
	rel, err := loadRelation(t.name, t.codec, t.initial)
	if err != nil {
		return nil, err
	}
	s, err := evolvefd.NewDurableSession(rel, "twin", evolvefd.DurabilityOptions{FS: discardFS{}})
	if err != nil {
		return nil, err
	}
	defer s.Close()
	for _, fd := range lineitemFDs {
		if err := s.Define(fd.label, fd.spec); err != nil {
			return nil, err
		}
	}
	s.Check()
	dirty := false
	for _, op := range ops {
		var cells [][]string
		if op.rows != nil {
			cells = t.codec.cellsOf(op.rows)
		}
		start := time.Now()
		switch op.kind {
		case opCheck:
			s.Check()
		case opMeasures:
			label := lineitemFDs[op.fd].label
			if _, err := s.Measures(label); err != nil {
				return nil, err
			}
			s.FDText(label)
		case opStats:
			s.MemStats()
			s.Labels()
		case opAppend:
			for _, c := range cells {
				if err := s.AppendStrings(c...); err != nil {
					return nil, err
				}
			}
		case opDelete:
			if err := s.Delete(op.ids...); err != nil {
				return nil, err
			}
		case opUpdate:
			for i, id := range op.ids {
				if err := s.UpdateStrings(id, cells[i]...); err != nil {
					return nil, err
				}
			}
		case opCompact:
			s.Compact()
		}
		us := since(start)
		tw.perOp[op.kind] = append(tw.perOp[op.kind], us)
		switch {
		case op.kind == opCheck && dirty:
			tw.checkDirty = append(tw.checkDirty, us)
			dirty = false
		case op.kind == opCheck:
			tw.checkClean = append(tw.checkClean, us)
		case op.kind.isDML():
			n := max(len(op.rows), len(op.ids))
			tw.perRow[op.kind] = append(tw.perRow[op.kind], us/float64(n))
			dirty = true
		}
	}
	tw.reused, tw.recomputed = s.CacheStats()
	return tw, nil
}

// counterTwin is what the replay against the bare counter, measure cache
// and ordering measured.
type counterTwin struct {
	dmlUs        [numOpKinds][]float64 // delete/update/compact on the counter
	foldUs       []float64             // stamp refresh of every tracked set after a write batch
	orderUs      []float64             // OrderFDsCached per check op
	computeUs    []float64             // MeasureCache.Compute per measures op
	hits, misses uint64
}

func replayCounter(t *tenant, ops []loggedOp) (*counterTwin, error) {
	tw := &counterTwin{}
	rel, err := loadRelation(t.name, t.codec, t.initial)
	if err != nil {
		return nil, err
	}
	counter := pli.NewIncrementalCounter(rel)
	cache := core.NewMeasureCache(counter)
	var fds []core.FD
	var tracked []bitset.Set
	for _, def := range lineitemFDs {
		fd, err := core.ParseFD(rel.Schema(), def.label, def.spec)
		if err != nil {
			return nil, err
		}
		fds = append(fds, fd)
		tracked = append(tracked, fd.X, fd.Attrs(), fd.Y)
	}
	core.OrderFDsCached(cache, fds, core.ScopeAllAttributes)
	dirty := false
	for _, op := range ops {
		var cells [][]string
		if op.rows != nil {
			cells = t.codec.cellsOf(op.rows)
		}
		start := time.Now()
		switch op.kind {
		case opAppend:
			for _, c := range cells {
				if err := rel.AppendStrings(c...); err != nil {
					return nil, err
				}
			}
		case opDelete:
			if err := counter.Delete(op.ids...); err != nil {
				return nil, err
			}
		case opUpdate:
			for i, id := range op.ids {
				if err := counter.UpdateStrings(id, cells[i]...); err != nil {
					return nil, err
				}
			}
		case opCompact:
			counter.Compact()
		case opMeasures:
			cache.Compute(fds[op.fd])
			tw.computeUs = append(tw.computeUs, since(start))
		case opCheck:
			if dirty {
				// The facade folds a write batch lazily, inside the first
				// read after it; here the fold is timed on its own.
				for _, x := range tracked {
					counter.CountWithGen(x)
				}
				tw.foldUs = append(tw.foldUs, since(start))
				dirty = false
				start = time.Now()
			}
			core.OrderFDsCached(cache, fds, core.ScopeAllAttributes)
			tw.orderUs = append(tw.orderUs, since(start))
		}
		if op.kind.isDML() || op.kind == opCompact {
			tw.dmlUs[op.kind] = append(tw.dmlUs[op.kind], since(start))
			dirty = true
		}
	}
	tw.hits, tw.misses = cache.Stats()
	return tw, nil
}

// relationTwin is what the replay against the bare relation measured.
type relationTwin struct {
	appendNsPerRow  []float64
	compactNsPerRow []float64
	compactUs       []float64
	storagePerRow   float64
}

func replayRelation(t *tenant, ops []loggedOp) (*relationTwin, error) {
	tw := &relationTwin{}
	rel, err := loadRelation(t.name, t.codec, t.initial)
	if err != nil {
		return nil, err
	}
	for _, op := range ops {
		switch op.kind {
		case opAppend:
			cells := t.codec.cellsOf(op.rows)
			start := time.Now()
			for _, c := range cells {
				if err := rel.AppendStrings(c...); err != nil {
					return nil, err
				}
			}
			tw.appendNsPerRow = append(tw.appendNsPerRow, float64(time.Since(start))/float64(len(cells)))
		case opDelete:
			if err := rel.Delete(op.ids...); err != nil {
				return nil, err
			}
		case opUpdate:
			for i, id := range op.ids {
				if err := rel.UpdateStrings(id, t.codec.cells(op.rows[i])...); err != nil {
					return nil, err
				}
			}
		case opCompact:
			physical := rel.NumRows()
			start := time.Now()
			rel.Compact()
			d := time.Since(start)
			tw.compactNsPerRow = append(tw.compactNsPerRow, float64(d)/float64(physical))
			tw.compactUs = append(tw.compactUs, float64(d)/1e3)
		}
	}
	tw.storagePerRow = float64(rel.MemStats().StorageBytes) / float64(rel.NumRows())
	return tw, nil
}
