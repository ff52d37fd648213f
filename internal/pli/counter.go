package pli

import (
	"container/list"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/evolvefd/evolvefd/internal/bitset"
	"github.com/evolvefd/evolvefd/internal/relation"
)

// Counter computes distinct-projection cardinalities |π_X(r)| over the live
// rows of a relation instance. All FD measures in the paper are
// ratios/differences of these counts, so a Counter is the only capability
// the repair algorithms need from the storage layer. Implementations must be
// safe for concurrent use: candidate evaluation fans out across goroutines.
type Counter interface {
	// Count returns |π_X(r)| for the attribute set x. An empty x counts as
	// 1 on instances with live rows and 0 on (effectively) empty ones.
	Count(x bitset.Set) int
	// Relation returns the instance the counter is bound to.
	Relation() *relation.Relation
}

// SearchCounter is a Counter that additionally exposes its materialised
// partitions, so a repair search can thread a parent node's partition handle
// through expansion: each child X∪U∪{a} then costs one stripped product
// (parent · singleton) instead of a from-scratch fold over single columns —
// and, for scoring, one count-only product that materialises nothing at all.
// A handle is good for the relation state it was taken in; a search must not
// carry one across a mutation. PLICounter and IncrementalCounter implement it.
type SearchCounter interface {
	Counter
	// Partition returns the (memoised) stripped partition of x.
	Partition(x bitset.Set) *Partition
	// PartitionPar is Partition with any uncached products fanned across
	// `workers` goroutines (ProductParallel). Intended for serial call sites
	// (a search's frontier walk); results are identical to Partition.
	PartitionPar(x bitset.Set, workers int) *Partition
	// ChildPartition returns the partition of x ∪ {attr}, built as a single
	// product off the already-materialised parent partition of x when it is
	// not cached yet. parent must be the partition of x.
	ChildPartition(x bitset.Set, parent *Partition, attr int) *Partition
	// ChildCount returns |π_{x∪{attr}}| — ChildPartition(...).NumClasses() —
	// via the count-only product kernel when the child partition is not
	// already cached. Nothing is materialised or memoised on a miss: child
	// scoring needs sizes, not members. parent must be the partition of x.
	ChildCount(x bitset.Set, parent *Partition, attr int) int
}

// ---------------------------------------------------------------------------
// PLI strategy

// defaultCacheEntries bounds the number of memoised multi-column partitions.
// Single-column partitions are pinned (they are the product factors of every
// evaluation); multi-column entries are evicted LRU beyond the bound, which
// keeps memory proportional to the working set of the current search frontier
// instead of the whole explored space — a find-all sweep over a wide
// relation touches hundreds of thousands of attribute sets.
const defaultCacheEntries = 1024

// numShards is the number of independent lock domains of the partition
// cache. Workers asking for unrelated attribute sets almost never contend:
// keys spread by FNV-1a hash. A power of two keeps the modulo cheap.
const numShards = 16

// cacheEntry is one memoised partition. The entry is published before the
// partition is built: done is closed once p is valid, so duplicate requesters
// block on the first build instead of redoing O(n) work (singleflight).
type cacheEntry struct {
	p    *Partition
	done chan struct{}
	// elem is the entry's LRU position; nil for pinned entries and for
	// entries evicted while still building (waiters keep the pointer).
	elem *list.Element
}

// ready reports whether the partition has been published, without blocking.
func (e *cacheEntry) ready() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// cacheShard is one lock domain of the partition cache with its own LRU list
// (front = least recently used). The bound counts LRU-listed entries only:
// pinned entries (the empty set and single columns) sit in the map outside
// the list, so they never evict a composite and nothing evicts them.
type cacheShard struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	lru     *list.List // of string keys
	max     int
}

// reset drops every entry, pinned ones included.
func (s *cacheShard) reset() {
	s.mu.Lock()
	s.entries = make(map[string]*cacheEntry)
	s.lru = list.New()
	s.mu.Unlock()
}

// lookup returns the entry for key, inserting a fresh building entry (pinned
// or LRU-listed) when absent. The second result is true when the caller must
// build and publish the partition. Present entries are refreshed to
// most-recently-used.
func (s *cacheShard) lookup(key string, pin bool) (*cacheEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[key]; ok {
		if e.elem != nil {
			s.lru.MoveToBack(e.elem)
		}
		return e, false
	}
	e := &cacheEntry{done: make(chan struct{})}
	s.entries[key] = e
	if pin {
		return e, true
	}
	e.elem = s.lru.PushBack(key)
	for s.lru.Len() > s.max {
		oldest := s.lru.Front()
		k := oldest.Value.(string)
		s.lru.Remove(oldest)
		s.entries[k].elem = nil
		delete(s.entries, k)
	}
	return e, true
}

// peek returns the ready multi-column partition for key without inserting or
// building.
func (s *cacheShard) peek(key string) (*Partition, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[key]; ok && e.elem != nil && e.ready() {
		s.lru.MoveToBack(e.elem)
		return e.p, true
	}
	return nil, false
}

// relationState identifies one state of a relation's stored rows: compaction
// bumps the epoch, deletes and updates the mutation count, appends the
// physical row count.
type relationState struct {
	epoch, mutations uint64
	rows             int
}

// PLICounter counts classes of cached stripped partitions. Single-column
// partitions are built once and pinned; multi-column partitions are
// assembled by products and memoised in a sharded, bounded LRU cache with
// duplicate-build suppression, so concurrent search workers asking for the
// same partition build it once and never serialise on unrelated keys.
//
// The cache has one validity rule: every partition in it describes the same
// relation state. Each query first compares the relation's (Epoch, Mutations,
// NumRows) with the state the cache was filled in, and on any mismatch drops
// every entry before serving — so one counter may outlive appends, deletes,
// updates and compactions of its relation. The relation must not be mutated
// concurrently with queries.
type PLICounter struct {
	r      *relation.Relation
	shards [numShards]cacheShard
	// builds counts actual multi-column partition constructions — the
	// observable that singleflight suppresses duplicate work.
	builds atomic.Uint64
	// state is the relation state the cache reflects, behind one pointer so
	// the per-query check is a single load; resetMu serialises the reset.
	state   atomic.Pointer[relationState]
	resetMu sync.Mutex
}

// NewPLICounter builds a PLI-based counter over r with the default cache
// bound.
func NewPLICounter(r *relation.Relation) *PLICounter {
	return NewPLICounterSize(r, defaultCacheEntries)
}

// NewPLICounterSize builds a PLI-based counter with an explicit bound on
// memoised multi-column partitions (minimum 16). The bound is split across
// the shards.
func NewPLICounterSize(r *relation.Relation, maxEntries int) *PLICounter {
	if maxEntries < 16 {
		maxEntries = 16
	}
	c := &PLICounter{r: r}
	for i := range c.shards {
		c.shards[i].reset()
		c.shards[i].max = maxEntries / numShards
	}
	c.state.Store(&relationState{r.Epoch(), r.Mutations(), r.NumRows()})
	return c
}

// validate drops every cached partition when the relation is not in the
// state the cache was filled in. The fast path is one atomic load and three
// compares; the reset itself is serialised so concurrent readers entering
// after a mutation reset exactly once.
func (c *PLICounter) validate() {
	now := relationState{c.r.Epoch(), c.r.Mutations(), c.r.NumRows()}
	if *c.state.Load() == now {
		return
	}
	c.resetMu.Lock()
	defer c.resetMu.Unlock()
	if *c.state.Load() == now {
		return
	}
	for i := range c.shards {
		c.shards[i].reset()
	}
	// Copied here so only the reset path allocates.
	stored := now
	c.state.Store(&stored)
}

// Relation returns the bound instance.
func (c *PLICounter) Relation() *relation.Relation { return c.r }

// Count returns |π_X(r)| via partition products, over live rows only.
func (c *PLICounter) Count(x bitset.Set) int {
	if c.r.LiveRows() == 0 {
		return 0
	}
	return c.Partition(x).NumClasses()
}

// shard maps a cache key to its lock domain (FNV-1a).
func (c *PLICounter) shard(key string) *cacheShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return &c.shards[h%numShards]
}

// Partition returns the (memoised) stripped partition for x. Concurrent
// requests for the same uncached set build it exactly once.
func (c *PLICounter) Partition(x bitset.Set) *Partition {
	return c.PartitionPar(x, 1)
}

// PartitionPar is Partition with uncached products fanned across `workers`
// goroutines. Meant for serial call sites; the memoised result is shared with
// Partition and identical to it.
func (c *PLICounter) PartitionPar(x bitset.Set, workers int) *Partition {
	return c.memo(x, func(members []int) *Partition {
		return c.buildMulti(x, members, workers)
	})
}

// ChildPartition returns the partition of x ∪ {attr}. On a cache miss it is
// built as one stripped product off the caller-supplied parent partition of
// x — the search-aware fast path — and memoised for the child's own later
// expansion.
func (c *PLICounter) ChildPartition(x bitset.Set, parent *Partition, attr int) *Partition {
	return c.memo(x.With(attr), func([]int) *Partition {
		return parent.Product(c.Partition(bitset.New(attr)), nil)
	})
}

// memo serves x from the cache at the relation's current state, building it
// under singleflight on a miss: the empty set and single columns directly
// from the relation (pinned), anything wider through multi.
func (c *PLICounter) memo(x bitset.Set, multi func(members []int) *Partition) *Partition {
	c.validate()
	members := x.Members()
	key := x.Key()
	e, build := c.shard(key).lookup(key, len(members) <= 1)
	if !build {
		<-e.done
		return e.p
	}
	switch len(members) {
	case 0:
		e.p = universalOf(c.r)
	case 1:
		e.p = FromColumn(c.r, members[0])
	default:
		c.builds.Add(1)
		e.p = multi(members)
	}
	close(e.done)
	return e.p
}

// ChildCount returns |π_{x∪{attr}}| for child scoring: a cached child
// partition is counted directly; otherwise one count-only product off the
// parent partition — nothing is materialised, nothing enters the cache, and
// no singleflight entry is published (a count is too cheap to coordinate).
func (c *PLICounter) ChildCount(x bitset.Set, parent *Partition, attr int) int {
	child := x.With(attr)
	if child.Len() <= 1 {
		return c.Partition(child).NumClasses()
	}
	c.validate()
	key := child.Key()
	if p, ok := c.shard(key).peek(key); ok {
		return p.NumClasses()
	}
	return parent.ProductCount(c.Partition(bitset.New(attr)), nil)
}

// buildMulti constructs a multi-column partition: from the largest cached
// proper subset if one is ready (removing one attribute at a time),
// otherwise by folding single columns left to right. With workers > 1 each
// product is a sharded ProductParallel (bit-identical to serial).
func (c *PLICounter) buildMulti(x bitset.Set, members []int, workers int) *Partition {
	scratch := getScratch(c.r.NumRows())
	defer putScratch(scratch)
	product := func(base, factor *Partition) *Partition {
		if workers > 1 {
			return base.ProductParallel(factor, workers)
		}
		return base.Product(factor, scratch)
	}
	for _, m := range members {
		sub := x.Without(m)
		if base, ok := c.shard(sub.Key()).peek(sub.Key()); ok {
			return product(base, c.Partition(bitset.New(m)))
		}
	}
	p := c.Partition(bitset.New(members[0]))
	for _, m := range members[1:] {
		p = product(p, c.Partition(bitset.New(m)))
	}
	return p
}

// CacheSize reports how many partitions are memoised, pinned singletons
// included (for tests and stats).
func (c *PLICounter) CacheSize() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// MultiColumnBuilds reports how many multi-column partitions were actually
// constructed (cache hits and singleflight waiters excluded) — the
// regression observable for duplicate-build suppression.
func (c *PLICounter) MultiColumnBuilds() uint64 { return c.builds.Load() }

// ---------------------------------------------------------------------------
// Hash strategy

// HashCounter counts distinct code-tuples with a hash set, recomputing from
// scratch on every call (no state shared between calls beyond the relation).
type HashCounter struct {
	r *relation.Relation
}

// NewHashCounter builds a hash-based counter over r.
func NewHashCounter(r *relation.Relation) *HashCounter { return &HashCounter{r: r} }

// Relation returns the bound instance.
func (c *HashCounter) Relation() *relation.Relation { return c.r }

// Count returns |π_X(r)| by hashing the code tuple of every live row.
func (c *HashCounter) Count(x bitset.Set) int {
	n := c.r.NumRows()
	if c.r.LiveRows() == 0 {
		return 0
	}
	cols := x.Members()
	if len(cols) == 0 {
		return 1
	}
	if len(cols) == 1 && !c.r.Mutated() {
		// Dictionary shortcut: only sound while no value ever lost its last
		// occurrence (no deletes or in-place updates).
		d := c.r.DictLen(cols[0])
		if c.r.HasNulls(cols[0]) {
			d++
		}
		return d
	}
	columns := make([][]int32, len(cols))
	for i, col := range cols {
		columns[i] = c.r.ColumnCodes(col)
	}
	seen := make(map[string]struct{}, n)
	key := make([]byte, len(cols)*4)
	for row := 0; row < n; row++ {
		if c.r.IsDeleted(row) {
			continue
		}
		seen[string(appendCodeKey(key[:0], columns, row))] = struct{}{}
	}
	return len(seen)
}

// appendCodeKey appends the little-endian encoding of one row's code tuple
// over the projected columns — the hash counter's map key. Only HashCounter
// uses it: it stays string-keyed on purpose, as the independent reference
// the incremental counter's cluster tables are checked against.
func appendCodeKey(k []byte, columns [][]int32, row int) []byte {
	for _, codes := range columns {
		v := codes[row]
		k = append(k, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return k
}

// ---------------------------------------------------------------------------
// Sort strategy

// SortCounter counts by lexicographically sorting row indices over the
// projected code columns and counting adjacent differences: the paper's
// "counting the distinct values corresponds to a sorting (O(n log n))
// followed by counting (O(n))".
type SortCounter struct {
	r *relation.Relation
}

// NewSortCounter builds a sort-based counter over r.
func NewSortCounter(r *relation.Relation) *SortCounter { return &SortCounter{r: r} }

// Relation returns the bound instance.
func (c *SortCounter) Relation() *relation.Relation { return c.r }

// Count returns |π_X(r)| by sort + boundary count over the live rows.
func (c *SortCounter) Count(x bitset.Set) int {
	n := c.r.NumRows()
	if c.r.LiveRows() == 0 {
		return 0
	}
	cols := x.Members()
	if len(cols) == 0 {
		return 1
	}
	columns := make([][]int32, len(cols))
	for i, col := range cols {
		columns[i] = c.r.ColumnCodes(col)
	}
	rows := make([]int32, 0, c.r.LiveRows())
	for i := 0; i < n; i++ {
		if !c.r.IsDeleted(i) {
			rows = append(rows, int32(i))
		}
	}
	sort.Slice(rows, func(a, b int) bool {
		ra, rb := rows[a], rows[b]
		for _, codes := range columns {
			va, vb := codes[ra], codes[rb]
			if va != vb {
				return va < vb
			}
		}
		return false
	})
	count := 1
	for i := 1; i < len(rows); i++ {
		prev, cur := rows[i-1], rows[i]
		for _, codes := range columns {
			if codes[prev] != codes[cur] {
				count++
				break
			}
		}
	}
	return count
}
