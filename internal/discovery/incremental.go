package discovery

import (
	"fmt"

	"github.com/evolvefd/evolvefd/internal/bitset"
	"github.com/evolvefd/evolvefd/internal/core"
	"github.com/evolvefd/evolvefd/internal/pli"
	"github.com/evolvefd/evolvefd/internal/relation"
)

// IncStats reports the work an IncrementalDiscoverer performed across
// mutation batches — the observable that maintenance is O(affected lattice
// region), not O(lattice): on a batch that disturbs nothing, every counter
// except Batches and WitnessChecks stays put.
type IncStats struct {
	// Batches counts processed mutation batches (Sync calls that found the
	// relation changed).
	Batches int
	// Revalidated counts cover FDs whose generation stamps moved and whose
	// counts therefore had to be re-compared; cover FDs with unchanged
	// stamps are skipped for free.
	Revalidated int
	// WitnessChecks counts O(|X|) violating-pair inspections on the invalid
	// border; WitnessBroken counts how many of those pairs the batch
	// destroyed (forcing a probe).
	WitnessChecks, WitnessBroken int
	// Promoted counts FDs that entered the cover (newly minimal and valid);
	// Demoted counts cover FDs a batch broke; Superseded counts cover FDs
	// removed because a newly-valid generalization made them non-minimal.
	Promoted, Demoted, Superseded int
	// FrontierExpanded counts lattice nodes probed while searching the
	// specialization frontier above a demoted FD.
	FrontierExpanded int
	// Probes counts witness scans of π_X (each O(n) on first touch); the
	// incremental claim is that Probes grows with the disturbed region, not
	// with the lattice.
	Probes int
	// Reseeds counts full from-scratch re-discoveries, triggered only when a
	// column's NULL-eligibility changed (a NULL appeared in, or the last
	// NULL left, a column's live rows — which redraws the whole lattice).
	Reseeds int
	// CoverSize and BorderSize are the current minimal-cover and
	// invalid-border sizes, not cumulative counts.
	CoverSize, BorderSize int
}

// coverFD is one member of the positive border: a minimal valid FD X → A
// with the generation stamps of |π_X| and |π_XA| at its last validation.
// While both stamps are unchanged the counts are provably unchanged, so the
// FD is still valid and revalidation is two map lookups.
type coverFD struct {
	x, xa       bitset.Set
	genX, genXA uint64
}

// borderFD is one member of the negative border: an invalid FD X → A
// carrying a witness — two live rows that agree on X and differ on A. The
// FD stays invalid exactly as long as some such pair exists, so checking
// the stored pair in O(|X|) per batch replaces an O(n) probe; only a
// batch that destroys the pair (deletes a row, or updates a cell of one)
// forces a re-probe.
type borderFD struct {
	x      bitset.Set
	cols   []int
	w1, w2 int
}

// consequentState is the maintained lattice state for one consequent
// attribute: the positive border (minimal valid FDs, the cover) and the
// negative border (a set of invalid FDs whose downward closure covers every
// invalid antecedent within the size bound).
type consequentState struct {
	y       int
	ySet    bitset.Set
	pool    []int
	valid   []*coverFD
	invalid []*borderFD
}

// batchCtx memoises probe results and traversal marks within one mutation
// batch, so lattice nodes reachable from several demoted or flipped FDs are
// probed at most once per batch.
type batchCtx struct {
	memo      map[string][2]int // set key → probe's witness pair ((-1,-1) = valid)
	descended map[string]bool   // set key → searchDown already explored it
}

// IncrementalDiscoverer maintains the minimal exact-FD cover of an evolving
// relation across append, delete and update batches, instead of re-running
// the levelwise lattice search from scratch after every change (EAIFD-style
// maintenance over this repository's generation-stamped counting substrate).
//
// The invariants, per consequent A over the NULL-free attribute pool:
//
//   - cover: every minimal valid X → A with |X| ≤ MaxLHS, each revalidated
//     per batch by comparing the generation stamps of |π_X| and |π_XA|
//     (pli.IncrementalCounter.CountWithGen) — O(1) per FD, O(n) only when a
//     stamp moved and the count comparison must rerun;
//   - invalid border: a set of invalid FDs whose subsets cover every
//     invalid antecedent, each carrying a concrete violating row pair.
//     Appends cannot turn an invalid FD valid, so the border rests on
//     append-only batches; deletes and updates check each witness in
//     O(|X|) and re-probe only the FDs whose pair the batch destroyed.
//
// When an append breaks a cover FD, its specialization frontier is searched
// upward (levelwise, pruned by the surviving cover) for the new minimal
// FDs. When a delete or update flips a border FD valid, its generalization
// lattice is searched downward for the new minimal FDs, demoting cover
// members they supersede. Both searches touch only the disturbed region —
// IncStats proves it.
//
// Options.MaxResults is ignored: the maintained cover is always complete,
// because an incrementally-maintained truncation is order-dependent and
// could not agree with a fresh Discover pass. A change in a column's
// NULL-eligibility (the paper's §6.2.1 NULL-free requirement) redraws the
// lattice itself and triggers a full reseed, counted in IncStats.Reseeds.
//
// An IncrementalDiscoverer is not safe for concurrent use; callers must
// serialise Sync/Cover against relation mutations (evolvefd.Session does).
type IncrementalDiscoverer struct {
	counter   *pli.IncrementalCounter
	opts      Options
	maxLHS    int
	eligible  bitset.Set
	states    []*consequentState
	stats     IncStats
	prevRows  int
	prevMuts  uint64
	prevEpoch uint64
	// coverCache is the sorted cover of the current state; nil after a
	// batch or reseed. Back-to-back Cover calls without intervening
	// mutations (DiscoverIncremental followed by Suggestions) rebuild and
	// re-sort nothing.
	coverCache []core.FD
}

// NewIncrementalDiscoverer seeds a discoverer over the counter's current
// instance with a full levelwise pass (the one O(lattice) cost), capturing a
// witness pair for every invalid border FD. Stats start at zero; the seed's
// cost is the caller-visible construction time.
func NewIncrementalDiscoverer(counter *pli.IncrementalCounter, opts Options) *IncrementalDiscoverer {
	d := &IncrementalDiscoverer{counter: counter, opts: opts, maxLHS: maxLHSOf(opts)}
	d.reseed()
	d.stats = IncStats{}
	return d
}

// Stats returns cumulative maintenance effort since construction, with the
// current cover and border sizes.
func (d *IncrementalDiscoverer) Stats() IncStats {
	st := d.stats
	for _, s := range d.states {
		st.CoverSize += len(s.valid)
		st.BorderSize += len(s.invalid)
	}
	return st
}

// Cover syncs with any pending relation mutations and returns the minimal
// exact-FD cover, sorted exactly like MinimalFDs so the two are directly
// comparable: at every point in a DML stream, Cover equals a fresh
// MinimalFDs run over the same instance and options.
func (d *IncrementalDiscoverer) Cover() []core.FD {
	d.Sync()
	if d.coverCache == nil {
		out := make([]core.FD, 0, d.Stats().CoverSize)
		for _, st := range d.states {
			for _, f := range st.valid {
				out = append(out, core.MustFD("", f.x, st.ySet))
			}
		}
		sortFDs(out)
		d.coverCache = out
	}
	return append([]core.FD(nil), d.coverCache...)
}

// Sync folds every mutation applied to the relation since the last call
// into the maintained borders. It is idempotent and cheap when nothing
// changed; Cover calls it implicitly.
func (d *IncrementalDiscoverer) Sync() {
	r := d.counter.Relation()
	if r.Epoch() != d.prevEpoch {
		// The relation was compacted without OnCompact: the remap table is
		// gone and every stored witness row id is meaningless. Reseed — the
		// correct fallback, like the counter's own out-of-band rebuild.
		d.stats.Batches++
		d.stats.Reseeds++
		d.reseed()
		return
	}
	rows, muts := r.NumRows(), r.Mutations()
	if rows == d.prevRows && muts == d.prevMuts {
		return
	}
	// Mutations advances on delete/update batches (including out-of-band
	// ones applied directly to the relation); a bare NumRows change is an
	// append-only batch, which cannot invalidate any witness.
	dml := muts != d.prevMuts
	d.prevRows, d.prevMuts = rows, muts
	d.stats.Batches++
	d.coverCache = nil
	if !r.NullFreeColumns().Equal(d.eligible) {
		d.stats.Reseeds++
		d.reseed()
		return
	}
	for _, st := range d.states {
		ctx := &batchCtx{memo: make(map[string][2]int), descended: make(map[string]bool)}
		d.revalidateCover(st, ctx)
		if dml {
			d.checkWitnesses(st, ctx)
		}
	}
	d.ensureCapacity()
}

// OnCompact carries the maintained borders across a storage-epoch boundary
// by translating the row ids of every negative-border witness through the
// remap table — O(border size), no probe, no reseed. The positive border
// needs nothing at all: its revalidation runs on generation stamps, which a
// remap-aware compaction preserves.
//
// The caller must Sync() BEFORE compacting the relation (evolvefd.Session
// does), so every witness refers to a checked, live pre-compaction row: a
// live row always has a new id. A nil remap (the compaction was a no-op) is
// ignored.
func (d *IncrementalDiscoverer) OnCompact(m *relation.Remap) {
	if m == nil {
		return
	}
	r := d.counter.Relation()
	d.prevRows = r.NumRows()
	d.prevEpoch = r.Epoch()
	// prevMuts is untouched: compaction does not advance Mutations.
	for _, st := range d.states {
		for _, b := range st.invalid {
			w1, w2 := m.NewID(b.w1), m.NewID(b.w2)
			if w1 < 0 || w2 < 0 {
				panic(fmt.Sprintf("discovery: witness (%d,%d) of %v -> %d was a tombstone at compaction; Sync before Compact",
					b.w1, b.w2, b.x, st.y))
			}
			b.w1, b.w2 = w1, w2
		}
	}
	// coverCache holds attribute sets only — row-id free, still valid.
}

// reset points the discoverer at the relation's current state, with empty
// borders over the lattice the options describe.
func (d *IncrementalDiscoverer) reset() {
	r := d.counter.Relation()
	d.prevRows, d.prevMuts = r.NumRows(), r.Mutations()
	d.prevEpoch = r.Epoch()
	d.eligible = r.NullFreeColumns()
	d.states = lattice(r, d.opts.Consequents)
	d.coverCache = nil
}

// reseed rebuilds every consequent's borders from scratch through
// MinimalFDs' walk — construction, and the fallback when a column's
// NULL-eligibility changed. The walk prunes only valid regions, so every
// invalid set within the bound reaches the border (addInvalid keeps the
// maximal ones). Callers account the reseed in stats; its witness scans
// count as probes.
func (d *IncrementalDiscoverer) reseed() {
	d.reset()
	var seed Stats
	for _, st := range d.states {
		walk(d.counter, st, d.maxLHS, &seed, func(x bitset.Set) bool {
			d.promote(st, x)
			return true
		}, func(x bitset.Set, w1, w2 int) { d.addInvalid(st, x, w1, w2) })
	}
	d.stats.Probes += seed.Checked
	d.ensureCapacity()
}

// revalidateCover re-checks every cover FD against the new instance. FDs
// whose two generation stamps are unchanged are provably still valid and
// cost two map lookups; FDs whose stamps moved re-compare their counts
// (already materialised by the stamp query); the broken ones take one
// witness scan onto the invalid border, and their specialization frontier is
// searched for the minimal FDs that replace them.
func (d *IncrementalDiscoverer) revalidateCover(st *consequentState, ctx *batchCtx) {
	var broken []bitset.Set
	kept := st.valid[:0]
	for _, f := range st.valid {
		cntX, genX := d.counter.CountWithGen(f.x)
		cntXA, genXA := d.counter.CountWithGen(f.xa)
		if genX == f.genX && genXA == f.genXA {
			kept = append(kept, f)
			continue
		}
		d.stats.Revalidated++
		f.genX, f.genXA = genX, genXA
		if cntX == cntXA {
			kept = append(kept, f)
			continue
		}
		broken = append(broken, f.x)
	}
	st.valid = kept
	if len(broken) == 0 {
		return
	}
	r := d.counter.Relation()
	codes := r.ColumnCodes(st.y)
	for _, x := range broken {
		d.stats.Demoted++
		w1, w2, _ := d.counter.Partition(x).Witness(r, -1, codes)
		ctx.memo[x.Key()] = [2]int{w1, w2}
		d.addInvalid(st, x, w1, w2)
	}
	d.expandUp(st, broken, ctx)
}

// expandUp searches the specialization frontier above newly-invalid seeds,
// levelwise so that a minimal FD at size k is promoted before any superset
// at size k+1 is considered (which keeps the cover an antichain without a
// post-pass). Valid children are new minimal cover members; invalid
// children join the border and are expanded in turn — the walk covers
// exactly the invalidated up-region of the lattice.
func (d *IncrementalDiscoverer) expandUp(st *consequentState, seeds []bitset.Set, ctx *batchCtx) {
	levels := make(map[int][]bitset.Set)
	minSize := d.maxLHS + 1
	for _, x := range seeds {
		s := x.Len()
		levels[s] = append(levels[s], x)
		if s < minSize {
			minSize = s
		}
	}
	for size := minSize; size < d.maxLHS; size++ {
		for _, x := range levels[size] {
			for _, b := range st.pool {
				if x.Contains(b) {
					continue
				}
				child := x.With(b)
				key := child.Key()
				if _, done := ctx.memo[key]; done {
					continue
				}
				if d.coverDominates(st, child) {
					continue
				}
				d.stats.FrontierExpanded++
				w1, w2 := d.probe(st, child)
				ctx.memo[key] = [2]int{w1, w2}
				if w1 < 0 {
					d.promote(st, child)
				} else {
					d.addInvalid(st, child, w1, w2)
					levels[size+1] = append(levels[size+1], child)
				}
			}
		}
	}
}

// checkWitnesses re-establishes the invalid border after a delete/update
// batch. An FD whose witness pair survived is still invalid, for O(|X|);
// an FD whose pair the batch destroyed is re-probed — still invalid means a
// fresh witness, valid means the valid region grew downward and the new
// minimal FDs below it must be found.
func (d *IncrementalDiscoverer) checkWitnesses(st *consequentState, ctx *batchCtx) {
	var flipped []bitset.Set
	kept := st.invalid[:0]
	for _, b := range st.invalid {
		d.stats.WitnessChecks++
		if d.witnessIntact(st, b) {
			kept = append(kept, b)
			continue
		}
		d.stats.WitnessBroken++
		w1, w2 := d.probe(st, b.x)
		ctx.memo[b.x.Key()] = [2]int{w1, w2}
		if w1 < 0 {
			flipped = append(flipped, b.x)
			continue
		}
		b.w1, b.w2 = w1, w2
		kept = append(kept, b)
	}
	st.invalid = kept
	for _, x := range flipped {
		d.searchDown(st, x, ctx)
	}
}

// searchDown explores the valid region at and below the newly-valid w:
// every minimal valid set in it is promoted (superseding cover members it
// generalises), and every invalid set probed on the way joins the border —
// which is what keeps the border's downward closure covering the whole
// invalid region after it shrank.
func (d *IncrementalDiscoverer) searchDown(st *consequentState, w bitset.Set, ctx *batchCtx) {
	key := w.Key()
	if ctx.descended[key] {
		return
	}
	ctx.descended[key] = true
	if d.coverHasExact(st, w) {
		return
	}
	anyValid := false
	if w.Len() > 1 {
		for _, b := range w.Members() {
			g := w.Without(b)
			gKey := g.Key()
			pair, seen := ctx.memo[gKey]
			if !seen {
				pair = [2]int{-1, -1}
				if !d.coverDominates(st, g) {
					pair[0], pair[1] = d.probe(st, g)
				}
				ctx.memo[gKey] = pair
			}
			if pair[0] < 0 {
				anyValid = true
				d.searchDown(st, g, ctx)
			} else {
				d.addInvalid(st, g, pair[0], pair[1])
			}
		}
	}
	if !anyValid {
		d.promote(st, w)
	}
}

// probe tests X → A on the current instance with one witness scan of π_X —
// the one operation whose count IncStats.Probes bounds. It returns the
// violating pair, or (-1, -1) when the FD holds.
func (d *IncrementalDiscoverer) probe(st *consequentState, x bitset.Set) (int, int) {
	d.stats.Probes++
	r := d.counter.Relation()
	w1, w2, _ := d.counter.Partition(x).Witness(r, -1, r.ColumnCodes(st.y))
	return w1, w2
}

// promote installs x as a minimal cover FD (idempotently), recording the
// generation stamps of its two counts for O(1) future revalidation and
// removing any cover member it generalises. The counter's tracked-set bound
// is raised before the two stamp queries, so growing the cover never evicts
// the indices the growth is about to depend on.
func (d *IncrementalDiscoverer) promote(st *consequentState, x bitset.Set) {
	for _, f := range st.valid {
		if f.x.Equal(x) {
			return
		}
	}
	d.ensureCapacity()
	xa := x.Union(st.ySet)
	_, genX := d.counter.CountWithGen(x)
	_, genXA := d.counter.CountWithGen(xa)
	kept := st.valid[:0]
	for _, f := range st.valid {
		if x.ProperSubsetOf(f.x) {
			d.stats.Superseded++
			continue
		}
		kept = append(kept, f)
	}
	st.valid = append(kept, &coverFD{x: x, xa: xa, genX: genX, genXA: genXA})
	d.stats.Promoted++
}

// addInvalid records x with its violating pair (w1, w2) on the witnessed
// border unless an existing member already covers it (x ⊆ member ⇒
// member's witness shields x's whole down-set), dropping members x itself
// covers so the border stays an antichain of maximal invalid sets.
func (d *IncrementalDiscoverer) addInvalid(st *consequentState, x bitset.Set, w1, w2 int) {
	for _, b := range st.invalid {
		if x.SubsetOf(b.x) {
			return
		}
	}
	kept := st.invalid[:0]
	for _, b := range st.invalid {
		if b.x.SubsetOf(x) {
			continue
		}
		kept = append(kept, b)
	}
	st.invalid = append(kept, &borderFD{x: x.Clone(), cols: x.Members(), w1: w1, w2: w2})
}

// witnessIntact reports whether the stored violating pair still violates
// X → A: both rows live, still agreeing on X, still differing on A. Codes
// are read from the live column stores, so an update that rewrote either
// row's cells is detected by value, not by bookkeeping.
func (d *IncrementalDiscoverer) witnessIntact(st *consequentState, b *borderFD) bool {
	r := d.counter.Relation()
	if r.IsDeleted(b.w1) || r.IsDeleted(b.w2) {
		return false
	}
	for _, col := range b.cols {
		codes := r.ColumnCodes(col)
		if codes[b.w1] != codes[b.w2] {
			return false
		}
	}
	codes := r.ColumnCodes(st.y)
	return codes[b.w1] != codes[b.w2]
}

// coverDominates reports whether some cover member is a subset of x, i.e.
// x is valid but not minimal (the levelwise pruning rule).
func (d *IncrementalDiscoverer) coverDominates(st *consequentState, x bitset.Set) bool {
	for _, f := range st.valid {
		if f.x.SubsetOf(x) {
			return true
		}
	}
	return false
}

// coverHasExact reports whether x itself is a cover member.
func (d *IncrementalDiscoverer) coverHasExact(st *consequentState, x bitset.Set) bool {
	for _, f := range st.valid {
		if f.x.Equal(x) {
			return true
		}
	}
	return false
}

// ensureCapacity keeps the counter's tracked-set bound above the cover's
// working set (X and XA per cover FD), so stamp revalidation stays O(1)
// instead of thrashing the LRU into O(n) rebuilds.
func (d *IncrementalDiscoverer) ensureCapacity() {
	n := 64
	for _, st := range d.states {
		n += 2 * len(st.valid)
	}
	d.counter.EnsureTrackedCapacity(n)
}
