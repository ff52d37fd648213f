// Package pli implements position list indices (stripped partitions) and the
// distinct-counting strategies used to evaluate functional-dependency
// measures.
//
// Every measure in the paper — confidence |π_X|/|π_XY|, goodness
// |π_X|−|π_Y|, and the entropy quantities of the EB baseline — reduces to
// counting the classes of the partition of tuples induced by an attribute
// set (Definition 5 of the paper). Partitions compose: the partition of XA
// is the product of the partitions of X and A, computable in O(n). This is
// the classic PLI representation of the FD-discovery literature (TANE,
// Metanome); the paper computes the same cardinalities with SQL
// COUNT(DISTINCT …) queries, which this package also offers (hash and sort
// strategies; the SQL text route lives in internal/query).
package pli

import (
	"math/bits"
	"runtime"
	"sort"
	"sync"

	"github.com/evolvefd/evolvefd/internal/bitset"
	"github.com/evolvefd/evolvefd/internal/relation"
)

// Partition is the X-clustering of a relation instance in stripped form:
// only classes with at least two rows are stored explicitly; singleton
// classes are implied. The number of classes |π_X| is recovered as
// numRows − Σ(|c|−1) over stored classes.
//
// Storage is columnar, not pointer-per-class: the members of every sparse
// class live back to back in one flat int32 arena indexed by a class-offset
// table, and classes dense enough that a row-id bitmap is smaller than their
// member list (≥ extent/32 rows, see denseCutFor) are stored as flat bitmaps
// instead. A low-cardinality column over 10M rows then costs a handful of
// 1.25MB bitmaps instead of multi-megabyte member slices, and a
// high-cardinality column costs one arena allocation instead of millions of
// slice headers.
//
// On a relation with tombstones a partition covers the live rows only:
// numRows is the live tuple count, while extent is the physical row-id range
// (member row ids may reach up to extent−1, which is what probe tables must
// be sized by).
type Partition struct {
	numRows int
	extent  int
	// Sparse classes: class i holds arena[offs[i]:offs[i+1]]. offs is nil
	// when there are no sparse classes, else offs[0] == 0.
	arena []int32
	offs  []int32
	// Dense classes: class d owns words bits[d*wpc:(d+1)*wpc], a bitmap over
	// row ids [0, extent); bitLens[d] is its member count.
	bits    []uint64
	bitLens []int32
	wpc     int
}

// denseMinClass is the smallest class ever stored as a bitmap; below it the
// flat member list is always at most a few cache lines and the bitmap's
// fixed extent/8 bytes cannot pay for themselves.
const denseMinClass = 256

// denseCutFor returns the class size at which a row-id bitmap (extent/8
// bytes) becomes no larger than the flat member list (4 bytes per member):
// extent/32, floored at denseMinClass.
func denseCutFor(extent int) int {
	cut := extent / 32
	if cut < denseMinClass {
		cut = denseMinClass
	}
	return cut
}

// numSparse returns the number of arena-backed classes.
func (p *Partition) numSparse() int {
	if len(p.offs) == 0 {
		return 0
	}
	return len(p.offs) - 1
}

// denseWords returns the bitmap words of dense class d.
func (p *Partition) denseWords(d int) []uint64 {
	return p.bits[d*p.wpc : (d+1)*p.wpc]
}

// addClass appends one stripped class (|members| ≥ 2), routing it to the
// arena or to a fresh bitmap by size.
func (p *Partition) addClass(members []int32) {
	if len(members) >= denseCutFor(p.extent) {
		p.addDense(members)
		return
	}
	if p.offs == nil {
		p.offs = append(p.offs, 0)
	}
	p.arena = append(p.arena, members...)
	p.offs = append(p.offs, int32(len(p.arena)))
}

// addDense appends one class as a bitmap regardless of size.
func (p *Partition) addDense(members []int32) {
	if p.wpc == 0 {
		p.wpc = (p.extent + 63) / 64
	}
	start := len(p.bits)
	p.bits = append(p.bits, make([]uint64, p.wpc)...)
	w := p.bits[start:]
	for _, row := range members {
		w[row>>6] |= 1 << (uint(row) & 63)
	}
	p.bitLens = append(p.bitLens, int32(len(members)))
}

// addDenseWords appends one class from an already-computed bitmap (the AND
// kernel's output), copying the words instead of re-scattering members.
func (p *Partition) addDenseWords(words []uint64, count int32) {
	if p.wpc == 0 {
		p.wpc = (p.extent + 63) / 64
	}
	p.bits = append(p.bits, words...)
	p.bitLens = append(p.bitLens, count)
}

// NumRows returns the number of (live) tuples the partition covers.
func (p *Partition) NumRows() int { return p.numRows }

// probeExtent returns the size a row-indexed probe table needs: the physical
// row-id range, which exceeds numRows when the source relation carries
// tombstones.
func (p *Partition) probeExtent() int {
	if p.extent > p.numRows {
		return p.extent
	}
	return p.numRows
}

// NumClasses returns |π_X|: the number of equivalence classes, counting the
// implied singletons.
func (p *Partition) NumClasses() int {
	merged := 0
	for i, ns := 0, p.numSparse(); i < ns; i++ {
		merged += int(p.offs[i+1]-p.offs[i]) - 1
	}
	for _, n := range p.bitLens {
		merged += int(n) - 1
	}
	return p.numRows - merged
}

// NumStrippedClasses returns the number of explicitly stored (size ≥ 2)
// classes.
func (p *Partition) NumStrippedClasses() int { return p.numSparse() + len(p.bitLens) }

// MemBytes returns the partition's retained storage in bytes: member arena,
// offset table, bitmap words and bitmap lengths. Slice headers are excluded —
// there is a constant number of them, which is the point of the layout.
func (p *Partition) MemBytes() int64 {
	return int64(len(p.arena))*4 + int64(len(p.offs))*4 +
		int64(len(p.bits))*8 + int64(len(p.bitLens))*4
}

// ForEachClass calls fn for every stored class until fn returns false.
// Sparse classes are passed as arena views; dense classes are materialised
// into a buffer reused across calls within this invocation. fn must not
// retain or modify the slice.
func (p *Partition) ForEachClass(fn func(members []int32) bool) {
	for i, ns := 0, p.numSparse(); i < ns; i++ {
		if !fn(p.arena[p.offs[i]:p.offs[i+1]]) {
			return
		}
	}
	if len(p.bitLens) == 0 {
		return
	}
	maxLen := int32(0)
	for _, n := range p.bitLens {
		if n > maxLen {
			maxLen = n
		}
	}
	buf := make([]int32, 0, maxLen)
	for d := range p.bitLens {
		buf = buf[:0]
		for wi, w := range p.denseWords(d) {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				buf = append(buf, int32(wi<<6+b))
				w &^= 1 << b
			}
		}
		if !fn(buf) {
			return
		}
	}
}

// Classes materialises the stored (size ≥ 2) classes as one slice per class,
// dense bitmaps decoded. Sparse classes are views into the arena and must
// not be modified. Intended for tests and cold paths; hot paths iterate with
// ForEachClass.
func (p *Partition) Classes() [][]int32 {
	out := make([][]int32, 0, p.NumStrippedClasses())
	p.ForEachClass(func(members []int32) bool {
		if p.numSparse() > len(out) {
			out = append(out, members) // arena view
		} else {
			out = append(out, append([]int32(nil), members...))
		}
		return true
	})
	return out
}

// Error returns the g3-style error Σ(|c|−1)/n, the fraction of rows that
// would need removing to make the partition all-singletons. It is 0 when X
// is a candidate key.
func (p *Partition) Error() float64 {
	if p.numRows == 0 {
		return 0
	}
	return float64(p.numRows-p.NumClasses()) / float64(p.numRows)
}

// ---------------------------------------------------------------------------
// Construction

// parallelBuildMinRows gates the sharded FromColumn path: below it a single
// sequential counting pass wins (worker startup would dominate).
const parallelBuildMinRows = 1 << 16

// FromColumn builds the partition induced by a single column over the live
// rows. NULL cells (code −1) form their own class, consistent with
// COUNT(DISTINCT) treating NULL as one group in GROUP BY semantics.
//
// The build is a two-pass counting sort into the flat layout: count class
// sizes, lay out the arena/bitmap routing, then scatter rows. At
// parallelBuildMinRows and above the passes shard across
// runtime.GOMAXPROCS(0) workers — over segment-aligned row ranges for small
// dictionaries, over code ranges for large ones — with a deterministic
// merge: every path yields classes in code order with members ascending,
// bit-identical to the sequential build.
func FromColumn(r *relation.Relation, col int) *Partition {
	codes := r.ColumnCodes(col)
	groups := r.DictLen(col) + 1 // code+1 so NULL (−1) lands at 0
	workers := runtime.GOMAXPROCS(0)
	if len(codes) < parallelBuildMinRows || workers < 2 {
		return fromColumnSeq(r, codes, groups)
	}
	if groups > len(codes)/4 {
		return fromColumnCodeSharded(r, codes, groups, workers)
	}
	return fromColumnRowSharded(r, codes, groups, workers)
}

// fromColumnSeq is the sequential two-pass counting build.
func fromColumnSeq(r *relation.Relation, codes []int32, groups int) *Partition {
	counts := make([]int32, groups)
	dead := r.Tombstones()
	if dead == nil {
		for _, code := range codes {
			counts[code+1]++
		}
	} else {
		for row, code := range codes {
			if !dead[row] {
				counts[code+1]++
			}
		}
	}
	p, route := layoutColumn(counts, r.LiveRows(), len(codes))
	fillRange(p, route, codes, dead, 0, len(codes))
	return p
}

// layoutColumn sizes the partition for the given per-group live counts and
// returns the routing table: route[g] ≥ 0 is group g's next arena write
// position, −1 strips the group (size < 2), and values ≤ −2 encode dense
// class −2−route[g]. Classes appear in group (code) order.
func layoutColumn(counts []int32, live, extent int) (*Partition, []int32) {
	p := &Partition{numRows: live, extent: extent}
	cut := int32(denseCutFor(extent))
	nSparse, nDense, arenaLen := 0, 0, 0
	for _, c := range counts {
		switch {
		case c < 2:
		case c >= cut:
			nDense++
		default:
			nSparse++
			arenaLen += int(c)
		}
	}
	route := make([]int32, len(counts))
	if nSparse > 0 {
		p.arena = make([]int32, arenaLen)
		p.offs = make([]int32, 1, nSparse+1)
	}
	if nDense > 0 {
		p.wpc = (extent + 63) / 64
		p.bits = make([]uint64, nDense*p.wpc)
		p.bitLens = make([]int32, 0, nDense)
	}
	cursor, dense := int32(0), int32(0)
	for g, c := range counts {
		switch {
		case c < 2:
			route[g] = -1
		case c >= cut:
			route[g] = -2 - dense
			p.bitLens = append(p.bitLens, c)
			dense++
		default:
			route[g] = cursor
			cursor += c
			p.offs = append(p.offs, cursor)
		}
	}
	return p, route
}

// fillRange scatters the live rows of [lo, hi) into the laid-out partition
// through the routing table, advancing sparse cursors in place.
func fillRange(p *Partition, route []int32, codes []int32, dead []bool, lo, hi int) {
	for row := lo; row < hi; row++ {
		if dead != nil && dead[row] {
			continue
		}
		g := int(codes[row]) + 1
		rt := route[g]
		if rt == -1 {
			continue
		}
		if rt >= 0 {
			p.arena[rt] = int32(row)
			route[g] = rt + 1
			continue
		}
		d := int(-2 - rt)
		p.bits[d*p.wpc+row>>6] |= 1 << (uint(row) & 63)
	}
}

// shardUnit returns the row-range granularity of the row-sharded build:
// whole segments (so clean-segment liveness skipping stays valid) rounded to
// whole bitmap words (so workers touch disjoint words of a shared dense
// bitmap).
func shardUnit(segRows int) int {
	unit := segRows
	for unit%64 != 0 {
		unit += segRows
	}
	return unit
}

// fromColumnRowSharded shards the two counting passes across workers over
// segment-aligned row ranges, with per-worker count arrays merged into the
// global layout and per-worker write cursors derived from the prefix sums —
// rows of one class are written by ascending worker, each in ascending row
// order, so the result is bit-identical to the sequential build.
func fromColumnRowSharded(r *relation.Relation, codes []int32, groups, workers int) *Partition {
	n := len(codes)
	unit := shardUnit(r.SegmentRows())
	nUnits := (n + unit - 1) / unit
	if workers > nUnits {
		workers = nUnits
	}
	if workers < 2 {
		return fromColumnSeq(r, codes, groups)
	}
	bounds := make([]int, workers+1)
	per, extra := nUnits/workers, nUnits%workers
	for w := 0; w < workers; w++ {
		u := per
		if w < extra {
			u++
		}
		bounds[w+1] = min(bounds[w]+u*unit, n)
	}
	bounds[workers] = n

	dead := r.Tombstones()
	countsW := make([][]int32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			counts := make([]int32, groups)
			forEachLiveSeg(r, dead, bounds[w], bounds[w+1], func(lo, hi int, segDead bool) {
				if !segDead {
					for _, code := range codes[lo:hi] {
						counts[code+1]++
					}
					return
				}
				for row := lo; row < hi; row++ {
					if !dead[row] {
						counts[codes[row]+1]++
					}
				}
			})
			countsW[w] = counts
		}(w)
	}
	wg.Wait()

	total := make([]int32, groups)
	for _, counts := range countsW {
		for g, c := range counts {
			total[g] += c
		}
	}
	p, route := layoutColumn(total, r.LiveRows(), n)
	// Per-worker routing: worker w's cursor for a sparse group starts after
	// the members earlier workers will write.
	routeW := make([][]int32, workers)
	for w := 0; w < workers; w++ {
		rw := make([]int32, groups)
		copy(rw, route)
		routeW[w] = rw
		for g := range route {
			if route[g] >= 0 {
				route[g] += countsW[w][g]
			}
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fillRange(p, routeW[w], codes, dead, bounds[w], bounds[w+1])
		}(w)
	}
	wg.Wait()
	return p
}

// forEachLiveSeg walks [lo, hi) in segment-sized chunks, telling the
// callback whether the chunk contains tombstones so clean chunks can skip
// the per-row liveness probe.
func forEachLiveSeg(r *relation.Relation, dead []bool, lo, hi int, fn func(lo, hi int, segDead bool)) {
	if dead == nil {
		fn(lo, hi, false)
		return
	}
	segRows := r.SegmentRows()
	for start := lo; start < hi; {
		seg := start / segRows
		end := min((seg+1)*segRows, hi)
		fn(start, end, r.SegmentDead(seg) > 0)
		start = end
	}
}

// fromColumnCodeSharded shards the build across workers by code range: each
// worker scans the whole column but owns a disjoint group slice, so count
// cells, arena regions and dense bitmaps are all single-writer. Used for
// high-cardinality columns, where per-worker count arrays of the row-sharded
// path would dwarf the column itself.
func fromColumnCodeSharded(r *relation.Relation, codes []int32, groups, workers int) *Partition {
	if workers > groups {
		workers = groups
	}
	gBounds := make([]int, workers+1)
	per, extra := groups/workers, groups%workers
	for w := 0; w < workers; w++ {
		u := per
		if w < extra {
			u++
		}
		gBounds[w+1] = gBounds[w] + u
	}
	dead := r.Tombstones()
	counts := make([]int32, groups)
	var wg sync.WaitGroup
	pass := func(run func(w int)) {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				run(w)
			}(w)
		}
		wg.Wait()
	}
	pass(func(w int) {
		glo, ghi := int32(gBounds[w]), int32(gBounds[w+1])
		for row, code := range codes {
			if g := code + 1; g >= glo && g < ghi && (dead == nil || !dead[row]) {
				counts[g]++
			}
		}
	})
	p, route := layoutColumn(counts, r.LiveRows(), len(codes))
	pass(func(w int) {
		glo, ghi := int32(gBounds[w]), int32(gBounds[w+1])
		for row, code := range codes {
			g := code + 1
			if g < glo || g >= ghi || (dead != nil && dead[row]) {
				continue
			}
			rt := route[g]
			if rt == -1 {
				continue
			}
			if rt >= 0 {
				p.arena[rt] = int32(row)
				route[g] = rt + 1
				continue
			}
			d := int(-2 - rt)
			p.bits[d*p.wpc+row>>6] |= 1 << (uint(row) & 63)
		}
	})
	return p
}

// FromSet builds the partition induced by an attribute set by multiplying
// single-column partitions left to right, with pooled product scratch. An
// empty set yields the single all-live-rows class.
func FromSet(r *relation.Relation, x bitset.Set) *Partition {
	cols := x.Members()
	if len(cols) == 0 {
		return universalOf(r)
	}
	p := FromColumn(r, cols[0])
	if len(cols) == 1 {
		return p
	}
	workers := runtime.GOMAXPROCS(0)
	for _, c := range cols[1:] {
		p = p.ProductParallel(FromColumn(r, c), workers)
	}
	return p
}

// universalOf is the empty-set partition of r: one class holding every live
// row (dense when the class is large enough to warrant a bitmap).
func universalOf(r *relation.Relation) *Partition {
	live := r.LiveRows()
	extent := r.NumRows()
	p := &Partition{numRows: live, extent: extent}
	if live < 2 {
		return p
	}
	dead := r.Tombstones()
	if live >= denseCutFor(extent) {
		p.wpc = (extent + 63) / 64
		p.bits = make([]uint64, p.wpc)
		if dead == nil {
			for i := 0; i < extent>>6; i++ {
				p.bits[i] = ^uint64(0)
			}
			if rem := uint(extent) & 63; rem > 0 {
				p.bits[extent>>6] = 1<<rem - 1
			}
		} else {
			for row := 0; row < extent; row++ {
				if !dead[row] {
					p.bits[row>>6] |= 1 << (uint(row) & 63)
				}
			}
		}
		p.bitLens = []int32{int32(live)}
		return p
	}
	all := make([]int32, 0, live)
	for row := 0; row < extent; row++ {
		if dead == nil || !dead[row] {
			all = append(all, int32(row))
		}
	}
	p.arena = all
	p.offs = []int32{0, int32(live)}
	return p
}

// universal is the empty-set partition of a tombstone-free instance with n
// rows (kept for tests).
func universal(n int) *Partition {
	p := &Partition{numRows: n, extent: n}
	if n < 2 {
		return p
	}
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	p.addClass(all)
	return p
}

// ---------------------------------------------------------------------------
// Products

// productScratch holds reusable buffers for Product so repeated products
// (the hot loop of candidate evaluation) avoid reallocating O(n) tables.
// Outside a Product call every probe entry is −1 and every counts entry is 0
// (both invariants restored by the kernels before returning).
type productScratch struct {
	probe   []int32 // row → class index in lhs, −1 if singleton there
	accum   [][]int32
	touched []int32
	// counts accumulates per-p-class intersection sizes for the count-only
	// kernels; zero outside a call, reset through touched.
	counts []int32
	// words is the AND kernel's output buffer (one bitmap of p.wpc words).
	words []uint64
	// buf is the member collection / dense-decode buffer.
	buf []int32
}

// NewScratch allocates product scratch space for relations with n rows.
func NewScratch(n int) *productScratch {
	s := &productScratch{}
	s.ensure(n)
	return s
}

// ensure widens the probe table to cover n rows, initialising fresh entries
// to −1.
func (s *productScratch) ensure(n int) {
	old := len(s.probe)
	if old >= n {
		return
	}
	if cap(s.probe) >= n {
		s.probe = s.probe[:n]
	} else {
		probe := make([]int32, n)
		copy(probe, s.probe)
		s.probe = probe
	}
	for i := old; i < n; i++ {
		s.probe[i] = -1
	}
}

// ensureAccum widens the accumulator to nc classes, resizing with copy so the
// previously grown per-class member slices stay warm across differently-sized
// products instead of being discarded with the old backing array.
func (s *productScratch) ensureAccum(nc int) {
	if cap(s.accum) < nc {
		grown := make([][]int32, nc)
		copy(grown, s.accum[:cap(s.accum)])
		s.accum = grown
	}
	s.accum = s.accum[:nc]
}

// ensureCounts widens the per-class counters to nc zeroed entries. Growth
// copies nothing: entries are zero outside a call by invariant.
func (s *productScratch) ensureCounts(nc int) {
	if cap(s.counts) < nc {
		s.counts = make([]int32, nc)
	}
	s.counts = s.counts[:nc]
}

// ensureWords sizes the AND output buffer to wpc words.
func (s *productScratch) ensureWords(wpc int) {
	if cap(s.words) < wpc {
		s.words = make([]uint64, wpc)
	}
	s.words = s.words[:wpc]
}

// scratchPool shares product scratch across every caller that does not
// thread its own — FromSet folds, nil-scratch Products, and the parallel
// repair-search workers going through PLICounter — so the O(n) probe tables
// are recycled instead of reallocated per call.
var scratchPool = sync.Pool{New: func() any { return &productScratch{} }}

func getScratch(n int) *productScratch {
	s := scratchPool.Get().(*productScratch)
	s.ensure(n)
	return s
}

func putScratch(s *productScratch) { scratchPool.Put(s) }

// fillProbe marks every member row of p's stored classes with its class
// index; clearProbe resets exactly those rows to −1.
func (p *Partition) fillProbe(probe []int32) {
	ci := int32(0)
	for i, ns := 0, p.numSparse(); i < ns; i++ {
		for _, row := range p.arena[p.offs[i]:p.offs[i+1]] {
			probe[row] = ci
		}
		ci++
	}
	for d := range p.bitLens {
		for wi, w := range p.denseWords(d) {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				probe[wi<<6+b] = ci
				w &^= 1 << b
			}
		}
		ci++
	}
}

func (p *Partition) clearProbe(probe []int32) {
	for i, ns := 0, p.numSparse(); i < ns; i++ {
		for _, row := range p.arena[p.offs[i]:p.offs[i+1]] {
			probe[row] = -1
		}
	}
	for d := range p.bitLens {
		for wi, w := range p.denseWords(d) {
			for w != 0 {
				b := bits.TrailingZeros64(w)
				probe[wi<<6+b] = -1
				w &^= 1 << b
			}
		}
	}
}

// sortedClasses returns the stored classes fully materialised with rows
// ascending and classes ordered by first row, for deterministic comparison
// in tests.
func (p *Partition) sortedClasses() [][]int32 {
	out := make([][]int32, 0, p.NumStrippedClasses())
	p.ForEachClass(func(members []int32) bool {
		cc := append([]int32(nil), members...)
		sort.Slice(cc, func(a, b int) bool { return cc[a] < cc[b] })
		out = append(out, cc)
		return true
	})
	sort.Slice(out, func(a, b int) bool { return out[a][0] < out[b][0] })
	return out
}

// EqualPartition reports whether p and q induce exactly the same clustering,
// regardless of class order or storage form (arena vs bitmap).
func (p *Partition) EqualPartition(q *Partition) bool {
	if p.numRows != q.numRows || p.NumStrippedClasses() != q.NumStrippedClasses() {
		return false
	}
	a, b := p.sortedClasses(), q.sortedClasses()
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}
