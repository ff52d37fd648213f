package pli

import (
	"container/list"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/evolvefd/evolvefd/internal/bitset"
	"github.com/evolvefd/evolvefd/internal/relation"
)

// defaultMaxTracked bounds the number of attribute sets an IncrementalCounter
// maintains incrementally. Each tracked set costs O(numRows) memory (its
// chain arrays and cluster table), so the bound keeps memory proportional to
// the FDs a session actually monitors, not to the sets a repair search sweeps
// through.
const defaultMaxTracked = 256

// trackedIndex is the live clustering of one attribute set: a clusterTable
// from the code tuple of the set's columns to a cluster id, plus the member
// rows of each cluster (singleton clusters included, unlike the stripped
// Partition). Keeping the table alive between mutations is what makes folding
// a batch O(batch) instead of O(numRows): each appended row hashes straight
// to its cluster, each deleted row is unlinked from the cluster its codes
// name, and an updated row moves between the two clusters its old and new
// codes name.
//
// Cluster membership is stored as intrusive doubly-linked lists over four
// flat arrays instead of one Go slice per cluster: head/size are indexed by
// cluster id, next/prev by row id. The layout is the arena counterpart of
// the columnar Partition — a tracked set costs exactly two int32 arrays over
// the extent plus two over the cluster ids, with zero per-cluster
// allocations, and every DML operation is O(1) pointer surgery:
//
//   - link     = push-front: next[row] = head[id], head[id] = row
//   - unlink   = splice: next[prev[row]] = next[row] (head[id] when first)
//
// Slots of dead rows are stale and never read (tombstoned rows are unlinked
// when they die and row ids are never reused within an epoch), and a storage
// compaction remaps all four arrays with pure array writes.
type trackedIndex struct {
	attrs bitset.Set
	cols  []int
	ids   clusterTable // code tuple → cluster id
	// head is the first member row of each cluster (−1 when emptied); size is
	// its member count.
	head []int32
	size []int32
	// next and prev are the row-indexed chain links (−1 terminates; prev of
	// the head row is −1).
	next []int32
	prev []int32
	// live is the number of non-empty clusters, i.e. |π_X| over live rows.
	// It can shrink: deletes empty clusters, updates move rows between them.
	live int
	// dead counts the emptied clusters still holding ids and head/size
	// slots (kept for in-place revival); past a threshold the index is
	// compacted so sustained churn through high-cardinality values cannot
	// grow it without bound.
	dead int
	// lastChanged is the counter generation at which live last changed — in
	// either direction. Appends that only enlarge clusters, deletes that only
	// shrink them without emptying any, and updates that re-route rows
	// between surviving clusters all leave every distinct-projection count —
	// and therefore every FD measure built from this set — untouched, and the
	// stamp lets callers prove it.
	lastChanged uint64
	// elem is the index's position in the counter's LRU list of tracked sets.
	elem *list.Element
}

// IncrementalCounter is a Counter for an evolving relation: it answers
// |π_X(r)| like PLICounter but folds appended, deleted and updated tuples
// into kept-alive cluster tables instead of recomputing partitions from
// scratch. It is the engine behind Session.Append/Delete/Update — the
// paper's periodic-validation loop re-checks its FDs every time the data
// changes, and with this counter the re-check costs O(batch × tracked sets),
// not O(|r|).
//
// Two tiers of attribute sets exist:
//
//   - Tracked sets (registered via Track or CountWithGen — the facade tracks
//     the X, XY and Y of every defined FD) are maintained incrementally and
//     answer Count in O(1), with a generation stamp that only advances when
//     the count actually changed (growth or shrink). Beyond maxTracked sets
//     the least-recently-used index is evicted.
//   - Untracked sets (the thousands of candidate antecedents a repair search
//     probes once each) are served by the embedded PLICounter: one partition
//     cache for the counter's whole life, which validates itself against the
//     relation's state on every query. Its Relation, ChildPartition and
//     ChildCount are this counter's too — a search scoring children in
//     parallel never takes this counter's mutex.
//
// Appends may go straight to the relation (they are folded in on the next
// query); deletes and updates must go through Delete/Update/UpdateStrings so
// the tracked clusters shrink in O(ops), and compaction through Compact so
// the tracked row ids are remapped rather than rebuilt. A mutation or
// compaction applied to the relation behind the counter's back is detected
// via relation.Mutations / relation.Epoch and answered by rebuilding every
// tracked index — correct, just no longer incremental.
//
// Like every Counter, an IncrementalCounter is safe for concurrent use; the
// relation must not be mutated concurrently with queries.
type IncrementalCounter struct {
	*PLICounter
	mu sync.Mutex
	// gen counts applied mutation batches (append folds, delete batches,
	// updates); it starts at 1 so a zero stamp never collides with a live one.
	gen          uint64
	appliedRows  int    // physical rows folded into every tracked index so far
	appliedMuts  uint64 // relation.Mutations() value the tracked state reflects
	appliedEpoch uint64 // relation.Epoch() the tracked row ids belong to
	tracked      map[string]*trackedIndex
	// lru orders tracked sets by recency of use (front = least recently
	// used); eviction beyond maxTracked drops the front so the hot X/XY/Y
	// indices of live FDs survive cold one-shot sets.
	lru        *list.List
	maxTracked int
	// emptyGen is the generation at which the relation last crossed between
	// zero and non-zero live rows — the stamp of the empty set's count, whose
	// only possible change is that 0↔1 flip.
	emptyGen uint64
	wasEmpty bool
	keyBuf   []int32
	oldCodes []int32
}

// NewIncrementalCounter builds an incremental counter over r with the
// default bound on tracked sets.
func NewIncrementalCounter(r *relation.Relation) *IncrementalCounter {
	return NewIncrementalCounterSize(r, defaultMaxTracked)
}

// NewIncrementalCounterSize builds an incremental counter with an explicit
// bound on tracked attribute sets (minimum 4).
func NewIncrementalCounterSize(r *relation.Relation, maxTracked int) *IncrementalCounter {
	if maxTracked < 4 {
		maxTracked = 4
	}
	return &IncrementalCounter{
		PLICounter:   NewPLICounter(r),
		gen:          1,
		appliedRows:  r.NumRows(),
		appliedMuts:  r.Mutations(),
		appliedEpoch: r.Epoch(),
		tracked:      make(map[string]*trackedIndex),
		lru:          list.New(),
		maxTracked:   maxTracked,
		emptyGen:     1,
		wasEmpty:     r.LiveRows() == 0,
	}
}

// Epoch reports the relation's storage epoch. Together with Generation it
// tells caches what kind of change occurred: a generation bump with an
// unchanged per-set stamp after a compaction means row ids moved but every
// count — and therefore every measure — is provably unchanged.
func (c *IncrementalCounter) Epoch() uint64 { return c.r.Epoch() }

// Generation reports how many mutation batches have been folded in (starting
// at 1). It advances exactly when the relation changed since the last query:
// an append batch, a delete batch, or an update.
func (c *IncrementalCounter) Generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sync()
	return c.gen
}

// RestoreGeneration fast-forwards the generation counter to gen, for crash
// recovery: a counter rebuilt over a restored instance starts at 1, but the
// session it resurrects had already folded many batches, and cached stamps
// only stay truthful ("same generation ⇒ same count") if the clock never
// runs backwards relative to the session's history. Only forward jumps are
// applied; the call must precede any mutation folding (evolvefd.OpenSession
// calls it right after constructing the counter).
func (c *IncrementalCounter) RestoreGeneration(gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen > c.gen {
		c.gen = gen
	}
}

// Track registers x for incremental maintenance. Tracking an already-tracked
// set refreshes its recency; the empty set needs no index and is ignored.
func (c *IncrementalCounter) Track(x bitset.Set) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sync()
	c.track(x)
}

// TrackBatch registers every set in xs for incremental maintenance,
// building the missing indexes concurrently — each build is an independent
// read-only fold over the relation, so a caller that must register dozens
// of sets at once (recovery re-tracking a snapshot's whole discovery
// border) pays one parallel sweep of the instance instead of a serial fold
// per set. Empty sets need no index and are skipped; already-tracked sets
// just refresh their recency, and eviction beyond the tracked-set bound
// behaves as if the sets had been tracked one at a time in order.
func (c *IncrementalCounter) TrackBatch(xs []bitset.Set) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sync()
	var fresh []*trackedIndex
	queued := make(map[string]bool, len(xs))
	for _, x := range xs {
		key := x.Key()
		if x.IsEmpty() || queued[key] {
			continue
		}
		queued[key] = true
		if idx, ok := c.tracked[key]; ok {
			c.lru.MoveToBack(idx.elem)
			continue
		}
		fresh = append(fresh, newTrackedIndex(x))
	}
	if len(fresh) == 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(fresh) {
		workers = len(fresh)
	}
	rows := c.r.NumRows()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []int32
			for {
				i := int(next.Add(1)) - 1
				if i >= len(fresh) {
					return
				}
				c.foldBuf(fresh[i], 0, rows, &buf)
			}
		}()
	}
	wg.Wait()
	for _, idx := range fresh {
		idx.lastChanged = c.gen
		key := idx.attrs.Key()
		c.tracked[key] = idx
		idx.elem = c.lru.PushBack(key)
	}
	for len(c.tracked) > c.maxTracked {
		front := c.lru.Front()
		c.lru.Remove(front)
		delete(c.tracked, front.Value.(string))
	}
}

// IndexDump is the durable form of one tracked attribute-set index: the
// sorted attribute columns plus the live clusters in flat columnar form —
// Members holds every cluster's member rows back to back, and cluster j
// spans Members[Offsets[j]:Offsets[j+1]] (Offsets carries one trailing
// entry, so it has NumClusters+1 elements; with no clusters it is either
// empty or the single entry 0). The cluster table, the chain links and
// the live count are all derivable from the members plus the relation's
// column codes, so a dump carries only what cannot be reconstructed in
// O(clusters + rows). Snapshot format v3 writes this layout to disk
// verbatim.
type IndexDump struct {
	Attrs   []int
	Offsets []int32
	Members []int32
}

// NumClusters returns how many clusters the dump describes.
func (d *IndexDump) NumClusters() int {
	if len(d.Offsets) == 0 {
		return 0
	}
	return len(d.Offsets) - 1
}

// Cluster returns the member rows of cluster j as a view into Members.
func (d *IndexDump) Cluster(j int) []int32 {
	return d.Members[d.Offsets[j]:d.Offsets[j+1]]
}

// AddCluster appends one cluster's member rows to the dump.
func (d *IndexDump) AddCluster(members ...int32) {
	if d.Offsets == nil {
		d.Offsets = append(d.Offsets, 0)
	}
	d.Members = append(d.Members, members...)
	d.Offsets = append(d.Offsets, int32(len(d.Members)))
}

// ExportIndexes dumps every tracked index in recency order (least recently
// used first), so importing the dumps in order reproduces the LRU. Emptied
// clusters are dropped — reviving and re-creating a cluster are equivalent
// going forward — which renumbers cluster ids without changing any count.
func (c *IncrementalCounter) ExportIndexes() []IndexDump {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sync()
	dumps := make([]IndexDump, 0, len(c.tracked))
	for e := c.lru.Front(); e != nil; e = e.Next() {
		idx := c.tracked[e.Value.(string)]
		total := 0
		for id := range idx.size {
			total += int(idx.size[id])
		}
		d := IndexDump{
			Attrs:   append([]int(nil), idx.cols...),
			Offsets: make([]int32, 1, idx.live+1),
			Members: make([]int32, 0, total),
		}
		for id, h := range idx.head {
			if idx.size[id] == 0 {
				continue
			}
			for row := h; row >= 0; row = idx.next[row] {
				d.Members = append(d.Members, row)
			}
			d.Offsets = append(d.Offsets, int32(len(d.Members)))
		}
		dumps = append(dumps, d)
	}
	return dumps
}

// ImportIndexes re-registers exported indexes against the relation the
// counter wraps, reconstructing each cluster table with one insertion per
// cluster instead of one probe per row — the difference between a recovery
// that decodes its partition state and one that refolds the whole instance
// per set. The dumps must describe the current relation: member rows are bounds-
// and liveness-checked and every index must cover the live rows exactly,
// so a dump from any other instance fails cleanly. Already-tracked sets are
// skipped; the tracked-set bound rises to hold the full import, matching
// the capacity the exporting counter had to have. The dumps themselves are
// not retained — the chain arrays are wired from them and the slices may be
// reused afterwards.
func (c *IncrementalCounter) ImportIndexes(dumps []IndexDump) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sync()
	if n := len(c.tracked) + len(dumps); n > c.maxTracked {
		c.maxTracked = n
	}
	for _, d := range dumps {
		x := bitset.New(d.Attrs...)
		cols := x.Members()
		if len(cols) != len(d.Attrs) {
			return fmt.Errorf("pli: import index %v repeats attributes", d.Attrs)
		}
		for _, col := range cols {
			if col < 0 || col >= c.r.NumCols() {
				return fmt.Errorf("pli: import index %v names column %d of %d", d.Attrs, col, c.r.NumCols())
			}
		}
		key := x.Key()
		if _, ok := c.tracked[key]; ok {
			continue
		}
		nclusters := d.NumClusters()
		if len(d.Offsets) > 0 {
			if d.Offsets[0] != 0 || int(d.Offsets[nclusters]) != len(d.Members) {
				return fmt.Errorf("pli: import index %v has inconsistent offsets", d.Attrs)
			}
			for j := 1; j <= nclusters; j++ {
				if d.Offsets[j] < d.Offsets[j-1] {
					return fmt.Errorf("pli: import index %v has inconsistent offsets", d.Attrs)
				}
			}
		} else if len(d.Members) > 0 {
			return fmt.Errorf("pli: import index %v has members but no offsets", d.Attrs)
		}
		idx := &trackedIndex{
			attrs: x,
			cols:  cols,
			ids:   newClusterTable(len(cols), nclusters),
			head:  make([]int32, 0, nclusters),
			size:  make([]int32, 0, nclusters),
		}
		nrows := c.r.NumRows()
		// Checkpoints follow a Compact, so the instance usually has no
		// tombstones and the per-row liveness probe can be skipped; the
		// members-vs-live total below still catches a dump whose row count
		// does not match the instance.
		noDead := c.r.LiveRows() == nrows
		idx.next, idx.prev = growChain(idx.next, idx.prev, nrows)
		// seen guards against a row appearing in two clusters, which would
		// cross-link the chains being wired below (the coverage total alone
		// cannot catch a duplicate paired with an omission).
		seen := make([]uint64, (nrows+63)/64)
		members := 0
		for j := 0; j < nclusters; j++ {
			cls := d.Cluster(j)
			if len(cls) == 0 {
				return fmt.Errorf("pli: import index %v has an empty cluster", d.Attrs)
			}
			for i, row := range cls {
				if uint(row) >= uint(nrows) {
					return fmt.Errorf("pli: import index %v cluster row %d out of range", d.Attrs, row)
				}
				if !noDead && c.r.IsDeleted(int(row)) {
					return fmt.Errorf("pli: import index %v cluster holds deleted row %d", d.Attrs, row)
				}
				if seen[row>>6]>>(uint(row)&63)&1 == 1 {
					return fmt.Errorf("pli: import index %v lists row %d twice", d.Attrs, row)
				}
				seen[row>>6] |= 1 << (uint(row) & 63)
				// Wire the chain in dump order.
				if i+1 < len(cls) {
					idx.next[row] = cls[i+1]
				} else {
					idx.next[row] = -1
				}
				if i > 0 {
					idx.prev[row] = cls[i-1]
				} else {
					idx.prev[row] = -1
				}
			}
			members += len(cls)
			if _, fresh := idx.ids.add(c.rowTuple(idx, int(cls[0]))); !fresh {
				return fmt.Errorf("pli: import index %v has two clusters with one key", d.Attrs)
			}
			idx.head = append(idx.head, cls[0])
			idx.size = append(idx.size, int32(len(cls)))
			idx.live++
		}
		if members != c.r.LiveRows() {
			return fmt.Errorf("pli: import index %v covers %d rows, relation has %d live",
				d.Attrs, members, c.r.LiveRows())
		}
		idx.lastChanged = c.gen
		c.tracked[key] = idx
		idx.elem = c.lru.PushBack(key)
	}
	return nil
}

// EnsureTrackedCapacity raises the bound on incrementally-maintained sets to
// at least n, so a caller that knows its working set — the incremental
// discoverer tracks the antecedent and attribute sets of every FD in its
// cover — can keep those indices from thrashing the LRU. The bound never
// shrinks: lowering it under live indices would evict state mid-use.
func (c *IncrementalCounter) EnsureTrackedCapacity(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n > c.maxTracked {
		c.maxTracked = n
	}
}

// TrackedSets reports how many attribute sets are maintained incrementally.
func (c *IncrementalCounter) TrackedSets() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.tracked)
}

// isTracked reports whether x currently has a live index (for tests).
func (c *IncrementalCounter) isTracked(x bitset.Set) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.tracked[x.Key()]
	return ok
}

// Count returns |π_X(r)| over live rows. Tracked sets answer in O(1) and are
// refreshed to most-recently-used; untracked sets go through the embedded
// PLICounter.
func (c *IncrementalCounter) Count(x bitset.Set) int {
	c.mu.Lock()
	c.sync()
	if c.r.LiveRows() == 0 {
		c.mu.Unlock()
		return 0
	}
	if x.IsEmpty() {
		c.mu.Unlock()
		return 1
	}
	if idx, ok := c.tracked[x.Key()]; ok {
		c.lru.MoveToBack(idx.elem)
		n := idx.live
		c.mu.Unlock()
		return n
	}
	c.mu.Unlock()
	return c.PLICounter.Count(x)
}

// CountWithGen returns |π_X(r)| together with the generation at which that
// count last changed, tracking x if it was not tracked yet. Two calls
// returning the same generation are guaranteed to have returned the same
// count, which is what lets a measure cache skip FDs whose partitions did
// not change across a mutation batch — growth and shrink alike.
func (c *IncrementalCounter) CountWithGen(x bitset.Set) (int, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sync()
	if x.IsEmpty() {
		// The empty set's count flips between 0 and 1 exactly when the live
		// row count crosses zero; emptyGen is the generation of that flip, so
		// the "same generation ⇒ same count" invariant holds even across an
		// empty → populated → empty lifecycle.
		if c.r.LiveRows() == 0 {
			return 0, c.emptyGen
		}
		return 1, c.emptyGen
	}
	idx := c.track(x)
	return idx.live, idx.lastChanged
}

// Partition materialises the stripped partition of x over the live rows.
// Tracked sets build it from the live clusters; untracked sets go through
// the embedded PLICounter, so repair searches probing the same set repeatedly
// hit its sharded cache instead of refolding columns.
func (c *IncrementalCounter) Partition(x bitset.Set) *Partition {
	return c.PartitionPar(x, 1)
}

// PartitionPar is Partition with an untracked set's uncached products
// sharded across `workers` goroutines. Tracked sets materialise in one pass
// from the live clusters either way.
func (c *IncrementalCounter) PartitionPar(x bitset.Set, workers int) *Partition {
	c.mu.Lock()
	c.sync()
	idx, ok := c.tracked[x.Key()]
	if !ok {
		c.mu.Unlock()
		return c.PLICounter.PartitionPar(x, workers)
	}
	c.lru.MoveToBack(idx.elem)
	p := &Partition{numRows: c.r.LiveRows(), extent: c.r.NumRows()}
	var buf []int32
	for id, h := range idx.head {
		n := idx.size[id]
		if n < 2 {
			continue
		}
		buf = buf[:0]
		for row := h; row >= 0; row = idx.next[row] {
			buf = append(buf, row)
		}
		p.addClass(buf)
	}
	c.mu.Unlock()
	return p
}

// Delete tombstones the given rows in the relation and unlinks them from
// every tracked cluster in O(rows × tracked sets). Cluster counts shrink
// exactly when a cluster empties, and only then does the set's generation
// stamp advance. The delete fails atomically on an out-of-range or
// already-deleted row.
func (c *IncrementalCounter) Delete(rows ...int) error {
	if len(rows) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sync()
	if err := c.r.Delete(rows...); err != nil {
		return err
	}
	c.gen++
	for _, idx := range c.tracked {
		c.unfold(idx, rows)
		maybeCompact(idx)
	}
	c.appliedMuts = c.r.Mutations()
	c.noteLiveness()
	return nil
}

// Update rewrites one live row in place and re-routes it between clusters:
// for each tracked set the row leaves the cluster its old codes name and
// joins the one its new codes name. A set's count — and hence its generation
// stamp — changes only when that move empties the old cluster or opens a new
// one (and not when both happen at once, which leaves |π_X| unchanged).
func (c *IncrementalCounter) Update(row int, tuple ...relation.Value) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sync()
	if err := c.r.CheckRow("update", row, c.r.NumRows(), c.r.IsDeleted); err != nil {
		return err
	}
	// Snapshot the row's codes before the cells change: they name the old
	// clusters, and diffing them against the updated codes tells which
	// tracked sets the update touches at all.
	ncols := c.r.NumCols()
	if cap(c.oldCodes) < ncols {
		c.oldCodes = make([]int32, ncols)
	}
	oldCodes := c.oldCodes[:ncols]
	for col := 0; col < ncols; col++ {
		oldCodes[col] = c.r.ColumnCodes(col)[row]
	}
	if err := c.r.Update(row, tuple...); err != nil {
		return err
	}
	c.gen++
	for _, idx := range c.tracked {
		// A set whose codes the update left alone keeps the row in the same
		// cluster; only a set whose tuple changed re-routes it.
		w := len(idx.cols)
		if cap(c.keyBuf) < 2*w {
			c.keyBuf = make([]int32, 2*w)
		}
		old, cur := c.keyBuf[:w], c.keyBuf[w:2*w]
		for i, col := range idx.cols {
			old[i] = oldCodes[col]
			cur[i] = c.r.ColumnCodes(col)[row]
		}
		if slices.Equal(old, cur) {
			continue
		}
		before := idx.live
		unlink(idx, old, int32(row))
		link(idx, cur, int32(row))
		if idx.live != before {
			idx.lastChanged = c.gen
		}
		maybeCompact(idx)
	}
	c.appliedMuts = c.r.Mutations()
	c.noteLiveness()
	return nil
}

// UpdateStrings parses each text cell with the column kind and updates the
// row; empty cells and "NULL" become NULL. See Update.
func (c *IncrementalCounter) UpdateStrings(row int, cells ...string) error {
	tuple, err := c.r.ParseTuple(cells...)
	if err != nil {
		return err
	}
	return c.Update(row, tuple...)
}

// Compact squeezes the tombstones out of the relation and carries every
// tracked index across the epoch boundary by remapping its row ids instead
// of rebuilding it: cluster membership, cluster counts and — crucially —
// every lastChanged stamp are untouched, because compaction preserves the
// tuple bag and therefore every |π_X|. A measure cache keyed on those stamps
// keeps serving its entries across the boundary for free. The cost is
// O(moved rows × tracked sets): rows below the remap's identity prefix are
// not visited at all.
//
// The generation still advances — any materialised Partition carries
// old-epoch row ids, and the embedded cache drops its own at the epoch
// change — so partition consumers rebuild while count consumers don't, which
// is exactly the split the epoch design wants. Returns nil when the relation
// has no tombstones.
func (c *IncrementalCounter) Compact() *relation.Remap {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sync()
	m := c.r.Compact()
	if m == nil {
		return nil
	}
	c.gen++
	for _, idx := range c.tracked {
		c.remapIndex(idx, m)
	}
	c.appliedRows = c.r.NumRows()
	c.appliedEpoch = m.Epoch
	return m
}

// remapIndex rewrites the row ids of one tracked index through the remap
// table: cluster heads are translated in place, and every chain slot at or
// above the identity prefix moves to the row's new id with its link values
// translated. Cluster identity, the cluster table, live/dead counts and every
// generation stamp are untouched — compaction changes no count. Pure array
// reads and writes, no hashing: O(moved rows + clusters), and the chain
// arrays shrink to the new extent. The in-place slot moves are safe because
// sources are consumed in ascending order and NewID(old) ≤ old, so a write
// never lands on an unread source. Callers must hold c.mu.
func (c *IncrementalCounter) remapIndex(idx *trackedIndex, m *relation.Remap) {
	translate := func(v int32) int32 {
		if v < 0 || int(v) < m.FirstMoved {
			return v
		}
		return int32(m.NewID(int(v)))
	}
	for id, h := range idx.head {
		if idx.size[id] == 0 {
			continue
		}
		nh := translate(h)
		if nh < 0 {
			panic(fmt.Sprintf("pli: tracked index for %v holds tombstoned row %d at compaction", idx.cols, h))
		}
		idx.head[id] = nh
	}
	// Chains cross the FirstMoved boundary freely, so a slot inside the
	// identity prefix can still hold a pointer at a moved row. Every such
	// pointer's target is a moved row with at most two neighbors, so patching
	// prefix slots from the moved side keeps the whole pass O(moved): a
	// moved row's neighbor in the prefix gets its forward/back pointer
	// rewritten to the new id, while neighbors in the moved region are
	// translated in place (their own slots move in their own iteration).
	for old := m.FirstMoved; old < m.OldRows && old < len(idx.next); old++ {
		n := int32(m.NewID(old))
		if n < 0 {
			continue // tombstone: its links are stale and die with it
		}
		nx, pv := idx.next[old], idx.prev[old]
		if nx >= 0 {
			if int(nx) >= m.FirstMoved {
				nx = int32(m.NewID(int(nx)))
			} else {
				idx.prev[nx] = n
			}
		}
		if pv >= 0 {
			if int(pv) >= m.FirstMoved {
				pv = int32(m.NewID(int(pv)))
			} else {
				idx.next[pv] = n
			}
		}
		idx.next[n] = nx
		idx.prev[n] = pv
	}
	if m.NewRows < len(idx.next) {
		idx.next = idx.next[:m.NewRows]
		idx.prev = idx.prev[:m.NewRows]
	}
}

// sync folds rows appended since the last query into every tracked index and
// bumps the generation. If the relation was deleted from or updated without
// going through this counter, every tracked index is rebuilt from scratch
// instead — correct, just not incremental. An out-of-band compaction
// (relation.Compact called directly, so the remap table was lost) is
// detected via the storage epoch and likewise answered by a full rebuild;
// Compact on this counter remaps instead. Callers must hold c.mu.
func (c *IncrementalCounter) sync() {
	if c.r.Epoch() != c.appliedEpoch {
		c.gen++
		for _, idx := range c.tracked {
			c.rebuild(idx)
		}
		c.appliedRows = c.r.NumRows()
		c.appliedMuts = c.r.Mutations()
		c.appliedEpoch = c.r.Epoch()
		c.noteLiveness()
		return
	}
	if c.r.Mutations() != c.appliedMuts {
		c.gen++
		for _, idx := range c.tracked {
			c.rebuild(idx)
		}
		c.appliedRows = c.r.NumRows()
		c.appliedMuts = c.r.Mutations()
		c.noteLiveness()
		return
	}
	n := c.r.NumRows()
	if n == c.appliedRows {
		return
	}
	from := c.appliedRows
	c.gen++
	for _, idx := range c.tracked {
		c.fold(idx, from, n)
	}
	c.appliedRows = n
	c.noteLiveness()
}

// noteLiveness stamps emptyGen when the live-row count crossed zero in the
// batch that just bumped c.gen. Callers must hold c.mu.
func (c *IncrementalCounter) noteLiveness() {
	empty := c.r.LiveRows() == 0
	if empty != c.wasEmpty {
		c.emptyGen = c.gen
		c.wasEmpty = empty
	}
}

// track returns the index for x, building it (over all current live rows) on
// first use and refreshing its LRU position otherwise. Callers must hold
// c.mu and have synced.
func (c *IncrementalCounter) track(x bitset.Set) *trackedIndex {
	key := x.Key()
	if idx, ok := c.tracked[key]; ok {
		c.lru.MoveToBack(idx.elem)
		return idx
	}
	idx := newTrackedIndex(x)
	c.fold(idx, 0, c.r.NumRows())
	idx.lastChanged = c.gen
	c.tracked[key] = idx
	idx.elem = c.lru.PushBack(key)
	for len(c.tracked) > c.maxTracked {
		front := c.lru.Front()
		c.lru.Remove(front)
		delete(c.tracked, front.Value.(string))
	}
	return idx
}

// rebuild refolds idx from scratch over the current live rows — the fallback
// for mutations that bypassed the counter. Callers must hold c.mu and have
// bumped the generation.
func (c *IncrementalCounter) rebuild(idx *trackedIndex) {
	idx.ids = newClusterTable(len(idx.cols), 0)
	idx.head = idx.head[:0]
	idx.size = idx.size[:0]
	idx.next = idx.next[:0]
	idx.prev = idx.prev[:0]
	idx.live = 0
	idx.dead = 0
	c.fold(idx, 0, c.r.NumRows())
	idx.lastChanged = c.gen
}

// newTrackedIndex returns an empty index over the columns of x.
func newTrackedIndex(x bitset.Set) *trackedIndex {
	cols := x.Members()
	return &trackedIndex{attrs: x.Clone(), cols: cols, ids: newClusterTable(len(cols), 0)}
}

// fold routes live rows [from, to) of the relation into idx's clusters,
// stamping lastChanged if the cluster count changed (a fresh cluster
// appeared, or an emptied one came back to life).
func (c *IncrementalCounter) fold(idx *trackedIndex, from, to int) {
	c.foldBuf(idx, from, to, &c.keyBuf)
}

// foldBuf is fold with an explicit tuple buffer, so concurrent index builds
// (TrackBatch) can fold without sharing c.keyBuf. Apart from the buffer it
// only reads shared state (the relation's columns and c.gen), which is what
// makes parallel builds over disjoint indexes safe.
func (c *IncrementalCounter) foldBuf(idx *trackedIndex, from, to int, keyBuf *[]int32) {
	cols := make([][]int32, len(idx.cols))
	for i, col := range idx.cols {
		cols[i] = c.r.ColumnCodes(col)
	}
	if cap(*keyBuf) < len(cols) {
		*keyBuf = make([]int32, len(cols))
	}
	tuple := (*keyBuf)[:len(cols)]
	idx.next, idx.prev = growChain(idx.next, idx.prev, to)
	before := idx.live
	for row := from; row < to; row++ {
		if c.r.IsDeleted(row) {
			continue
		}
		for i, codes := range cols {
			tuple[i] = codes[row]
		}
		link(idx, tuple, int32(row))
	}
	if idx.live != before {
		idx.lastChanged = c.gen
	}
}

// unfold unlinks freshly-tombstoned rows from idx's clusters, stamping
// lastChanged if any cluster emptied (the only way a delete changes |π_X|:
// shrinking a cluster from k ≥ 2 rows to k−1 leaves the count alone).
// Callers must hold c.mu and have bumped the generation.
func (c *IncrementalCounter) unfold(idx *trackedIndex, rows []int) {
	before := idx.live
	for _, row := range rows {
		unlink(idx, c.rowTuple(idx, row), int32(row))
	}
	if idx.live != before {
		idx.lastChanged = c.gen
	}
}

// rowTuple reads the row's code tuple over idx's columns into the shared
// tuple buffer. The codes of tombstoned rows remain readable, which is what
// lets a delete locate the clusters the row leaves. Callers must hold c.mu.
func (c *IncrementalCounter) rowTuple(idx *trackedIndex, row int) []int32 {
	if cap(c.keyBuf) < len(idx.cols) {
		c.keyBuf = make([]int32, len(idx.cols))
	}
	tuple := c.keyBuf[:len(idx.cols)]
	for i, col := range idx.cols {
		tuple[i] = c.r.ColumnCodes(col)[row]
	}
	return tuple
}

// growChain widens the row-indexed chain arrays to cover row ids below n,
// doubling capacity so per-row append folds amortise to O(1); fresh slots
// are only ever read after a fold or link wrote them.
func growChain(next, prev []int32, n int) ([]int32, []int32) {
	if len(next) >= n {
		return next, prev
	}
	if cap(next) >= n && cap(prev) >= n {
		return next[:n], prev[:n]
	}
	c := max(n+n/8+64, 2*cap(next))
	nn := make([]int32, n, c)
	copy(nn, next)
	np := make([]int32, n, c)
	copy(np, prev)
	return nn, np
}

// unlink removes row from the cluster tuple names in O(1) chain surgery,
// decrementing live if the cluster empties (its head then reads −1, spliced
// from the dying last member). The empty cluster keeps its id so a later row
// with the same codes revives it in place; the dying row's chain slots go
// stale and are never read again.
func unlink(idx *trackedIndex, tuple []int32, row int32) {
	id := idx.ids.get(tuple)
	if id < 0 {
		// The tracked state and the relation disagree; this cannot happen
		// while mutations flow through the counter.
		panic(fmt.Sprintf("pli: tracked index for %v lost cluster of row %d", idx.cols, row))
	}
	nx, pv := idx.next[row], idx.prev[row]
	if pv >= 0 {
		idx.next[pv] = nx
	} else {
		idx.head[id] = nx
	}
	if nx >= 0 {
		idx.prev[nx] = pv
	}
	idx.size[id]--
	if idx.size[id] == 0 {
		idx.live--
		idx.dead++
	}
}

// maybeCompact drops an index's emptied cluster slots once they outnumber
// the live ones (beyond a floor that lets revival churn stay cheap). Counts,
// row-level chain links and generation stamps are all unchanged — cluster
// ids just renumber; this is pure storage reclamation, invisible to every
// query.
func maybeCompact(idx *trackedIndex) {
	if idx.dead <= 64 || idx.dead <= idx.live {
		return
	}
	remap := make([]int32, len(idx.head))
	w := int32(0)
	for id, n := range idx.size {
		if n == 0 {
			remap[id] = -1
			continue
		}
		remap[id] = w
		idx.head[w] = idx.head[id]
		idx.size[w] = n
		w++
	}
	idx.ids.renumber(remap)
	idx.head = idx.head[:w]
	idx.size = idx.size[:w]
	idx.dead = 0
}

// link adds row to the cluster tuple names, creating or reviving the cluster
// (and incrementing live) as needed. The chain arrays must already cover row:
// every fold grows them to the rows it folds, so they cover each synced row.
func link(idx *trackedIndex, tuple []int32, row int32) {
	id, fresh := idx.ids.add(tuple)
	if fresh {
		idx.head = append(idx.head, -1)
		idx.size = append(idx.size, 0)
		idx.live++
	} else if idx.size[id] == 0 {
		idx.live++
		idx.dead--
	}
	h := idx.head[id]
	idx.next[row] = h
	idx.prev[row] = -1
	if h >= 0 {
		idx.prev[h] = row
	}
	idx.head[id] = row
	idx.size[id]++
}
