package core

import (
	"sync"

	"github.com/evolvefd/evolvefd/internal/pli"
)

// measureEntry is one cached measure computation with the count stamps it
// was derived from and the storage epoch it last served in.
type measureEntry struct {
	m                 Measures
	genX, genXY, genY uint64
	epoch             uint64
}

// MeasureCache memoises FD measures across repeated Check calls, keyed on the
// incremental counter's generation stamps: CountWithGen returns |π_X(r)| with
// a stamp that advances only when that count actually changed, so a cached
// entry is reused exactly when the stamps of |π_X|, |π_XY| and |π_Y| are all
// unchanged — a periodic re-check after a mutation batch skips every FD whose
// projections the batch left alone.
//
// A compaction bumps the storage epoch and moves row ids but preserves every
// count, and the counter's remap preserves the stamps with them, so a stamp
// match across an epoch boundary still proves the measures unchanged. The
// cache carries its entries across compactions instead of recomputing, and
// counts the crossings (EpochSurvivals) as the observable.
//
// A MeasureCache is safe for concurrent use.
type MeasureCache struct {
	counter *pli.IncrementalCounter
	mu      sync.Mutex
	entries map[string]measureEntry
	hits    uint64
	misses  uint64
	// epochSurvivals counts cache hits whose entry was computed in an
	// earlier storage epoch — measures that crossed a compaction boundary
	// without being recomputed, because their count stamps were preserved by
	// the remap.
	epochSurvivals uint64
}

// NewMeasureCache builds a cache over counter.
func NewMeasureCache(counter *pli.IncrementalCounter) *MeasureCache {
	return &MeasureCache{counter: counter, entries: make(map[string]measureEntry)}
}

// Compute returns the measures of fd, reusing the cached value when the
// generation stamps prove no underlying count changed.
func (mc *MeasureCache) Compute(fd FD) Measures {
	numX, genX := mc.counter.CountWithGen(fd.X)
	numXY, genXY := mc.counter.CountWithGen(fd.Attrs())
	numY, genY := mc.counter.CountWithGen(fd.Y)
	epoch := mc.counter.Epoch()

	key := measureKey(fd)
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if e, ok := mc.entries[key]; ok && e.genX == genX && e.genXY == genXY && e.genY == genY {
		mc.hits++
		if e.epoch != epoch {
			// The entry was computed before a compaction; the preserved
			// stamps prove the counts survived the remap, so translate the
			// entry into the new epoch instead of recomputing.
			mc.epochSurvivals++
			e.epoch = epoch
			mc.entries[key] = e
		}
		return e.m
	}
	mc.misses++
	m := NewMeasures(numX, numXY, numY)
	mc.entries[key] = measureEntry{m: m, genX: genX, genXY: genXY, genY: genY, epoch: epoch}
	return m
}

// EpochSurvivals reports how many cache hits crossed a storage-epoch
// boundary: measures served after a compaction without recomputation. It is
// the cache-level proof that compaction preserves measure state.
func (mc *MeasureCache) EpochSurvivals() uint64 {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.epochSurvivals
}

// Stats reports how many Compute calls were served from cache versus
// recomputed — the observable that Check after an append only re-derives the
// FDs whose partitions actually changed.
func (mc *MeasureCache) Stats() (hits, misses uint64) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.hits, mc.misses
}

// measureKey identifies an FD's cache slot by its attribute sets (labels are
// presentation, not identity).
func measureKey(fd FD) string { return fd.X.Key() + "\x00" + fd.Y.Key() }

// Evict drops the cached measures of fd, if present. Long-lived sessions
// call it when an FD is dropped or replaced so the cache tracks the FDs
// actually defined instead of growing monotonically.
func (mc *MeasureCache) Evict(fd FD) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	delete(mc.entries, measureKey(fd))
}

// Size reports how many FD measure entries are cached.
func (mc *MeasureCache) Size() int {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return len(mc.entries)
}

// OrderFDsCached is OrderFDs computing measures through a MeasureCache, so a
// periodic re-validation only pays for the FDs the appended data disturbed.
func OrderFDsCached(mc *MeasureCache, fds []FD, scope ConflictScope) []RankedFD {
	return orderFDs(mc.Compute, fds, scope)
}
