// Package evolvefd is the public facade of the library: semi-automatic
// detection and evolution of functional dependencies, reproducing Mazuran,
// Quintarelli, Tanca & Ugolini, "Semi-automatic support for evolving
// functional dependencies" (EDBT 2016).
//
// The workflow mirrors the paper's tool: open a relation, declare the FDs a
// designer believes in, Check which ones the data violates, and ask for
// ranked Repairs that extend the violated antecedents until the
// dependencies hold again:
//
//	rel, _ := evolvefd.OpenCSV("places.csv")
//	s := evolvefd.NewSession(rel)
//	s.MustDefine("F1", "District, Region -> AreaCode")
//	for _, v := range s.Check() {
//	    suggestions, _ := s.Repair(v.Label, evolvefd.Options{FirstOnly: true})
//	    fmt.Println(v.Label, "→ add", suggestions[0].Added)
//	}
//
// The heavy lifting lives in internal packages (relation storage, position
// list indices, the CB repair search, the EB baseline, generators and the
// experiment harness); this package exposes the stable, name-based surface
// a downstream user needs.
package evolvefd

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/evolvefd/evolvefd/internal/core"
	"github.com/evolvefd/evolvefd/internal/discovery"
	"github.com/evolvefd/evolvefd/internal/pli"
	"github.com/evolvefd/evolvefd/internal/relation"
	"github.com/evolvefd/evolvefd/internal/wal"
)

// Relation is an in-memory relation instance (see internal/relation).
type Relation = relation.Relation

// Schema describes a relation's attributes.
type Schema = relation.Schema

// Value is one typed cell value.
type Value = relation.Value

// CSVOptions controls CSV parsing.
type CSVOptions = relation.CSVOptions

// OpenCSV loads a relation from a CSV file. Header cells may carry type
// annotations ("name:int"); untyped columns are inferred.
func OpenCSV(path string) (*Relation, error) {
	return relation.ReadCSVFile(path, relation.CSVOptions{InferKinds: true})
}

// OpenCSVReader loads a relation from CSV text.
func OpenCSVReader(name string, r io.Reader, opts CSVOptions) (*Relation, error) {
	return relation.ReadCSV(name, r, opts)
}

// Options tunes a repair search. The zero value is the recommended
// configuration: find every repair, no depth bound, no goodness threshold.
type Options struct {
	// FirstOnly stops at the first (minimal) repair.
	FirstOnly bool
	// MaxAdded bounds how many attributes a repair may add (0 = unbounded).
	MaxAdded int
	// MaxGoodness, when non-nil and ≥ 0, discards candidates whose
	// |goodness| exceeds it — the §4.4 extension that keeps key-like
	// attributes out of repairs. Use GoodnessLimit to set it; nil (the zero
	// value) means no threshold. A threshold of 0 keeps only bijective
	// candidates, which is why "unset" must be distinguishable from 0.
	MaxGoodness *int
	// Parallelism bounds the worker goroutines of the repair search —
	// candidate evaluation, best-first frontier expansion, and the sharded
	// partition products that materialise each expanded node's clusterings.
	// 0 means GOMAXPROCS, 1 runs serially. Suggestions are identical at
	// every setting; only wall-clock time changes (parallel products are
	// bit-identical to serial ones, so scores never drift).
	Parallelism int
	// MinimalOnly prunes repairs that are supersets of other repairs.
	MinimalOnly bool
	// Balanced switches the search to the objective-function mode proposed
	// in §4.4: repairs are scored by size + inconsistency +
	// GoodnessWeight·|goodness|, so a slightly longer repair with
	// near-bijective goodness can beat a short repair built on a UNIQUE
	// attribute. With FirstOnly the returned repair minimises the score.
	Balanced bool
	// GoodnessWeight is the λ of the balanced objective (≤ 0 means 1).
	GoodnessWeight float64
}

func (o Options) repairOptions() core.RepairOptions {
	opts := core.RepairOptions{
		FirstOnly:       o.FirstOnly,
		MaxAdded:        o.MaxAdded,
		PruneNonMinimal: o.MinimalOnly,
		GoodnessWeight:  o.GoodnessWeight,
		Parallelism:     o.Parallelism,
		Candidates:      core.CandidateOptions{Parallelism: o.Parallelism},
	}
	if o.Balanced {
		opts.Objective = core.ObjectiveBalanced
	}
	if o.MaxGoodness != nil && *o.MaxGoodness >= 0 {
		g := *o.MaxGoodness
		opts.Candidates.MaxGoodness = &g
	}
	return opts
}

// GoodnessLimit returns a MaxGoodness threshold: candidates whose |goodness|
// exceeds n are discarded from repairs.
func GoodnessLimit(n int) *int { return &n }

// DefaultOptions returns the recommended settings: find every repair, no
// depth bound, no goodness threshold. It is the zero value of Options, so
// Options{} and DefaultOptions() behave identically.
func DefaultOptions() Options { return Options{} }

// Measures are the paper's confidence and goodness of one FD on the data.
type Measures struct {
	// Confidence is |π_X| / |π_XY| ∈ (0,1]; 1 means the FD is exact.
	Confidence float64 `json:"confidence"`
	// ConfidenceRatio renders the underlying counts, e.g. "2/4".
	ConfidenceRatio string `json:"confidence_ratio"`
	// Goodness is |π_X| − |π_Y|; 0 together with confidence 1 means the FD
	// induces a bijection between antecedent and consequent clusters.
	Goodness int `json:"goodness"`
	// Exact reports whether the FD holds on the instance.
	Exact bool `json:"exact"`
}

// Violation is one FD the data violates, with its repair-priority rank.
type Violation struct {
	// Label is the FD's name as defined in the session.
	Label string `json:"label"`
	// FD renders the dependency with attribute names.
	FD string `json:"fd"`
	// Measures are the FD's measures on the instance.
	Measures Measures `json:"measures"`
	// Rank is the §4.1 repair priority; higher repairs first.
	Rank float64 `json:"rank"`
}

// Suggestion is one proposed repair of a violated FD.
type Suggestion struct {
	// Added lists the attribute names to add to the antecedent, in schema
	// order.
	Added []string `json:"added"`
	// FD renders the repaired dependency.
	FD string `json:"fd"`
	// Measures are the repaired FD's measures; Exact is true.
	Measures Measures `json:"measures"`
}

// Session owns one relation instance and a mutable set of named FDs — the
// unit of the paper's "periodic validation" workflow. The instance may
// evolve under full DML: Append/AppendStrings add tuples, Delete tombstones
// them, Update/UpdateStrings correct them in place, and the session
// maintains its partition state incrementally so that a re-Check after a
// small batch costs time proportional to the batch, not to the whole
// relation. Deletes only tombstone rows, so row ids stay stable until a
// Compact (explicit, or automatic under EnableAutoCompact) squeezes the
// tombstones out and bumps the storage epoch; the session's incremental
// state crosses that boundary by remapping, not rebuilding.
//
// Every mutation is a write-ahead-log op applied by one function: the
// mutators are batches of one, Apply runs a batch, and recovery and
// followers replay the logged ops through the same code. A batch is
// validated whole before it mutates, so a failing one changes nothing.
//
// A Session is safe for concurrent use: Check, Measures, Repair and the
// other read paths may run in parallel with each other (repair searches fan
// out internally), while Append, Delete, Update, Define, Drop, Accept,
// Compact and Apply serialise against them. Callers that reach the
// underlying *Relation through Relation() must not mutate it concurrently
// with session queries.
type Session struct {
	// mu orders relation growth and FD-set edits against the read paths;
	// the counter and measure cache carry their own finer-grained locks.
	mu      sync.RWMutex
	rel     *Relation
	counter *pli.IncrementalCounter
	cache   *core.MeasureCache
	fds     map[string]core.FD
	order   []string
	// disc is the lazily-created incremental discoverer behind
	// DiscoverIncremental/Suggestions; discOpts is the resolved option set
	// it was seeded with (a different option set reseeds it).
	disc     *discovery.IncrementalDiscoverer
	discOpts discovery.Options
	// lastCover and lastExact are the Suggestions baseline: the discovered
	// cover and the per-label exactness at the previous checkpoint.
	lastCover map[string]bool
	lastExact map[string]bool
	// autoCompact, when non-nil, is the tombstone-ratio policy applied after
	// every batch that deletes; compactions counts the storage compactions
	// the session performed (manual and automatic).
	autoCompact *AutoCompactOptions
	compactions uint64
	// dur, when non-nil, is the write-ahead-log attachment of a durable
	// session (NewDurableSession/OpenSession); nil sessions are ephemeral.
	dur *durability
}

// NewSession opens a session over a relation using the incremental PLI
// counting strategy, so appended tuples fold into the existing partitions.
func NewSession(rel *Relation) *Session {
	counter := pli.NewIncrementalCounter(rel)
	return &Session{
		rel:     rel,
		counter: counter,
		cache:   core.NewMeasureCache(counter),
		fds:     make(map[string]core.FD),
	}
}

// Relation returns the session's instance.
func (s *Session) Relation() *Relation { return s.rel }

// Append adds one tuple to the session's instance. The tuple is folded into
// the maintained partitions on the next measure computation; FDs whose
// antecedent/consequent projections the new tuple leaves unchanged are not
// recomputed by the next Check.
func (s *Session) Append(tuple ...Value) error {
	return s.Apply(wal.Op{Kind: wal.OpAppend, Tuple: tuple})
}

// AppendStrings parses each text cell with the column kind and appends the
// tuple; empty cells and "NULL" become NULL. See Append.
func (s *Session) AppendStrings(cells ...string) error {
	return s.Apply(wal.Op{Kind: wal.OpAppendStrings, Cells: cells})
}

// Delete removes the tuples with the given row ids from the instance. Rows
// are tombstoned, not immediately compacted: ids of surviving tuples do not
// shift, and the maintained partitions shrink in time proportional to the
// batch — a cluster's count only changes when its last member leaves, so FDs
// whose projections the deletes leave untouched are not recomputed by the
// next Check. Like every mutation, the call is one all-or-nothing batch: an
// unknown, repeated or already-deleted row fails it and deletes nothing.
// Accumulated tombstones are reclaimed by Compact — explicitly, or
// automatically under an EnableAutoCompact policy (in which case this call
// may shift row ids; consult Epoch).
func (s *Session) Delete(rows ...int) error {
	return s.Apply(wal.Op{Kind: wal.OpDelete, Rows: rows})
}

// Update replaces the tuple at one live row id in place — the designer
// correcting a value rather than evolving the dependency. The row is
// re-routed between partition clusters incrementally; measures are only
// recomputed for FDs whose projection counts actually changed.
func (s *Session) Update(row int, tuple ...Value) error {
	return s.Apply(wal.Op{Kind: wal.OpUpdate, Row: row, Tuple: tuple})
}

// UpdateStrings parses each text cell with the column kind and updates the
// row in place; empty cells and "NULL" become NULL. See Update.
func (s *Session) UpdateStrings(row int, cells ...string) error {
	return s.Apply(wal.Op{Kind: wal.OpUpdateStrings, Row: row, Cells: cells})
}

// LiveRows returns the number of live (non-deleted) tuples in the instance.
func (s *Session) LiveRows() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rel.LiveRows()
}

// Generation reports how many mutation batches (append folds, deletes,
// updates) the session has applied to its partition state (starting at 1 for
// the initial instance).
func (s *Session) Generation() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.counter.Generation()
}

// CacheStats reports how many measure computations were served from the
// generation-stamped cache (reused) versus recomputed, across the life of
// the session — the observable cost of the periodic re-validation loop.
func (s *Session) CacheStats() (reused, recomputed uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cache.Stats()
}

// CachedMeasures reports how many FD measure entries the session currently
// caches. Dropping or accepting an FD evicts its entry, so the value stays
// bounded by the defined FD set in long-lived sessions.
func (s *Session) CachedMeasures() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cache.Size()
}

// CompactionStats describes one Compact call.
type CompactionStats struct {
	// Reclaimed counts the tombstones squeezed out; 0 means the instance was
	// already clean and nothing changed.
	Reclaimed int `json:"reclaimed"`
	// OldRows and NewRows are the physical row extents before and after.
	OldRows int `json:"old_rows"`
	NewRows int `json:"new_rows"`
	// Moved counts the live rows whose ids shifted — the remap work every
	// incremental layer paid, as opposed to the live rows before the first
	// tombstone, which kept their ids for free.
	Moved int `json:"moved"`
	// Epoch is the storage epoch after the call.
	Epoch uint64 `json:"epoch"`
	// Duration is the wall-clock cost of the compaction, remapping of the
	// session's incremental state included. It stays off the wire: response
	// bodies are canonical.
	Duration time.Duration `json:"-"`
}

// Compact squeezes accumulated tombstones out of the instance's segmented
// column stores and bumps the storage epoch. The session's incremental state
// crosses the boundary by translation, not reconstruction: tracked partition
// clusters remap their row ids in O(moved rows), discovery witnesses remap
// in O(border), and every measure whose generation stamps survived — all of
// them, since compaction changes no count — stays cached. Row ids visible
// through earlier Check/Repair output are invalidated: after a compaction
// the live rows are densely numbered [0, LiveRows).
//
// Compact serialises against all readers like any other write; a no-op on a
// tombstone-free instance.
func (s *Session) Compact() CompactionStats {
	st, _ := s.apply([]wal.Op{{Kind: wal.OpCompact}})
	return st
}

// compactLocked runs one compaction under the held write lock: the
// discoverer (if any) folds pending DML into its borders first, so every
// witness is live and remappable; then the counter compacts the relation and
// remaps its tracked indexes; then the discoverer translates its witnesses.
// On a durable session, every Compact — even one that found no tombstones —
// ends in a checkpoint: the epoch boundary is where a snapshot is cheapest
// (segments are dense, witnesses freshly remapped), and a clean instance
// still wants its log tail folded into a snapshot.
func (s *Session) compactLocked() CompactionStats {
	start := time.Now()
	if s.disc != nil {
		s.disc.Sync()
	}
	m := s.counter.Compact()
	if m == nil {
		s.checkpointLocked(wal.OpCompact)
		return CompactionStats{OldRows: s.rel.NumRows(), NewRows: s.rel.NumRows(), Epoch: s.rel.Epoch()}
	}
	if s.disc != nil {
		s.disc.OnCompact(m)
	}
	s.compactions++
	s.checkpointLocked(wal.OpCompact)
	return CompactionStats{
		Reclaimed: m.Reclaimed(),
		OldRows:   m.OldRows,
		NewRows:   m.NewRows,
		Moved:     m.Moved(),
		Epoch:     m.Epoch,
		Duration:  time.Since(start),
	}
}

// Epoch reports the instance's storage epoch: 0 at open, +1 per compaction
// that reclaimed tombstones. Row ids are stable exactly within one epoch.
func (s *Session) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rel.Epoch()
}

// AutoCompactOptions tunes the automatic compaction policy (see
// EnableAutoCompact). The zero value means the defaults: compact when at
// least 1024 tombstones make up ≥ 30% of the physical extent.
type AutoCompactOptions struct {
	// TombstoneRatio is the tombstones/physical-rows threshold at or above
	// which a Delete triggers compaction; ≤ 0 means 0.3.
	TombstoneRatio float64
	// MinTombstones is the minimum absolute tombstone count before the ratio
	// applies, so small instances do not compact on every other delete;
	// ≤ 0 means 1024.
	MinTombstones int
}

func (o *AutoCompactOptions) ratio() float64 {
	if o.TombstoneRatio <= 0 {
		return 0.3
	}
	return o.TombstoneRatio
}

func (o *AutoCompactOptions) minTombstones() int {
	if o.MinTombstones <= 0 {
		return 1024
	}
	return o.MinTombstones
}

// EnableAutoCompact turns on automatic storage reclamation: after every
// batch that deletes and leaves tombstones at the policy's thresholds the
// session compacts inline, under the same write lock, so readers never
// observe a half-moved instance. Callers that cache row ids across calls
// should prefer explicit Compact at points of their choosing instead.
func (s *Session) EnableAutoCompact(opts AutoCompactOptions) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.autoCompact = &opts
}

// DisableAutoCompact turns automatic reclamation back off.
func (s *Session) DisableAutoCompact() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.autoCompact = nil
}

// MemStats describes the session's storage and incremental-state footprint.
type MemStats struct {
	// PhysicalRows, LiveRows and Tombstones describe the row extent;
	// TombstoneRatio is Tombstones/PhysicalRows.
	PhysicalRows   int     `json:"physical_rows"`
	LiveRows       int     `json:"live_rows"`
	Tombstones     int     `json:"tombstones"`
	TombstoneRatio float64 `json:"tombstone_ratio"`
	// Segments, DirtySegments and SegmentRows describe the storage segments
	// (DirtySegments hold at least one tombstone).
	Segments      int `json:"segments"`
	DirtySegments int `json:"dirty_segments"`
	SegmentRows   int `json:"segment_rows"`
	// Epoch is the storage epoch; Compactions how many compactions the
	// session has performed (manual and automatic).
	Epoch       uint64 `json:"epoch"`
	Compactions uint64 `json:"compactions"`
	// StorageBytes estimates the column-store footprint; ReclaimableBytes
	// the share a Compact would return; DictEntries the interned values.
	StorageBytes     int64 `json:"storage_bytes"`
	ReclaimableBytes int64 `json:"reclaimable_bytes"`
	DictEntries      int   `json:"dict_entries"`
	// TrackedSets counts the incrementally-maintained attribute-set indexes;
	// CachedMeasures the generation-stamped measure entries.
	TrackedSets    int `json:"tracked_sets"`
	CachedMeasures int `json:"cached_measures"`
}

// MemStats reports the session's storage statistics — the observability
// surface of the compaction policy: watch TombstoneRatio and
// ReclaimableBytes grow under delete-heavy traffic, Compact, and watch them
// return to zero while TrackedSets and CachedMeasures stay put.
func (s *Session) MemStats() MemStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.rel.MemStats()
	return MemStats{
		PhysicalRows:     st.PhysicalRows,
		LiveRows:         st.LiveRows,
		Tombstones:       st.Tombstones,
		TombstoneRatio:   st.TombstoneRatio,
		Segments:         st.Segments,
		DirtySegments:    st.DirtySegments,
		SegmentRows:      st.SegmentRows,
		Epoch:            st.Epoch,
		Compactions:      s.compactions,
		StorageBytes:     st.StorageBytes,
		ReclaimableBytes: st.ReclaimableBytes,
		DictEntries:      st.DictEntries,
		TrackedSets:      s.counter.TrackedSets(),
		CachedMeasures:   s.cache.Size(),
	}
}

// Define declares an FD like "A, B -> C" under a unique label.
func (s *Session) Define(label, spec string) error {
	return s.Apply(wal.Op{Kind: wal.OpDefine, Label: label, Spec: spec})
}

// MustDefine is Define that panics on error, for statically-known FDs.
func (s *Session) MustDefine(label, spec string) {
	if err := s.Define(label, spec); err != nil {
		panic(err)
	}
}

// Drop removes a defined FD and evicts its cached measures, so a long-lived
// session's measure cache tracks the FDs actually defined instead of
// accumulating every FD ever seen. Dropping an unknown label is a no-op;
// the only error is mutating a closed durable session.
func (s *Session) Drop(label string) error {
	return s.Apply(wal.Op{Kind: wal.OpDrop, Label: label})
}

// Labels returns the defined FD labels in definition order.
func (s *Session) Labels() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// FDText renders a defined FD with attribute names.
func (s *Session) FDText(label string) (string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fd, ok := s.fds[label]
	if !ok {
		return "", fmt.Errorf("%w %q", ErrUnknownFD, label)
	}
	return fd.FormatWith(s.rel.Schema()), nil
}

// Measures computes confidence and goodness of one defined FD.
func (s *Session) Measures(label string) (Measures, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.measuresLocked(label)
}

// measuresLocked is Measures under a caller-held read lock.
func (s *Session) measuresLocked(label string) (Measures, error) {
	fd, ok := s.fds[label]
	if !ok {
		return Measures{}, fmt.Errorf("%w %q", ErrUnknownFD, label)
	}
	return toMeasures(s.cache.Compute(fd)), nil
}

// Check computes all measures and returns the violated FDs in repair order
// (§4.1: inconsistency degree + conflict score).
func (s *Session) Check() []Violation {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fds := make([]core.FD, 0, len(s.order))
	for _, label := range s.order {
		fds = append(fds, s.fds[label])
	}
	ranked := core.Violated(core.OrderFDsCached(s.cache, fds, core.ScopeAllAttributes))
	out := make([]Violation, 0, len(ranked))
	for _, rf := range ranked {
		out = append(out, Violation{
			Label:    rf.FD.Label,
			FD:       rf.FD.FormatWith(s.rel.Schema()),
			Measures: toMeasures(rf.Measures),
			Rank:     rf.Rank,
		})
	}
	return out
}

// Repair searches for antecedent extensions that make the labelled FD exact
// and returns them best-first (minimal size, then confidence, then goodness
// closest to zero).
func (s *Session) Repair(label string, opts Options) ([]Suggestion, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fd, ok := s.fds[label]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownFD, label)
	}
	res := core.FindRepairs(s.counter, fd, opts.repairOptions())
	out := make([]Suggestion, 0, len(res.Repairs))
	for _, rep := range res.Repairs {
		out = append(out, Suggestion{
			Added:    s.rel.Schema().NameSet(rep.Added),
			FD:       rep.FD.FormatWith(s.rel.Schema()),
			Measures: toMeasures(rep.Measures),
		})
	}
	return out, nil
}

// Accept replaces the labelled FD with its repaired form, adding the
// suggested attributes to the antecedent — the designer saying yes. Adding
// a consequent attribute would make the FD trivial and fails with ErrBadFD.
func (s *Session) Accept(label string, suggestion Suggestion) error {
	return s.Apply(wal.Op{Kind: wal.OpAccept, Label: label, Names: suggestion.Added})
}

// DiscoveryOptions bounds an FD discovery pass over the session's instance.
type DiscoveryOptions struct {
	// MaxLHS bounds antecedent size; 0 means 2, and a negative bound is
	// refused with an error wrapping ErrBadValue. Discovery is exponential
	// in this bound.
	MaxLHS int
	// Consequents restricts discovery to the named consequent attributes;
	// nil means every NULL-free attribute.
	Consequents []string
	// MaxResults stops a one-shot Discover after this many minimal FDs
	// (0 = no bound); a negative value is refused with an error wrapping
	// ErrBadValue, by DiscoverIncremental too. DiscoverIncremental ignores
	// the bound otherwise: a maintained cover is always complete, because a
	// truncated one could not stay in agreement with a from-scratch
	// discovery as the data evolves.
	MaxResults int
}

// DiscoveredFD is one minimal exact FD found on the instance.
type DiscoveredFD struct {
	// FD renders the dependency with attribute names, e.g.
	// "[Municipal] -> [AreaCode]".
	FD string `json:"fd"`
	// Spec is the same dependency in Define syntax ("Municipal -> AreaCode"),
	// so a discovered FD can be adopted with Define(label, d.Spec).
	Spec string `json:"spec"`
	// Antecedent and Consequent name the attributes, in schema order.
	Antecedent []string `json:"antecedent"`
	Consequent string   `json:"consequent"`
}

// SuggestionKind classifies an advisor suggestion.
type SuggestionKind string

const (
	// SuggestionNewFD flags a dependency that newly holds on the evolved
	// instance — a candidate for the designer to adopt with Define.
	SuggestionNewFD SuggestionKind = "emerged"
	// SuggestionBrokenFD flags a defined FD the evolved data newly violates
	// — a candidate for Repair.
	SuggestionBrokenFD SuggestionKind = "broken"
)

// AdvisorSuggestion is one item the discovery→advisor wire produces: either
// a newly-emerged minimal FD the designer may adopt, or a defined FD the
// evolving data newly broke and the designer should repair.
type AdvisorSuggestion struct {
	Kind SuggestionKind `json:"kind"`
	// Label is the defined FD's label for broken suggestions; empty for
	// emerged ones.
	Label string `json:"label,omitempty"`
	// FD renders the dependency with attribute names.
	FD string `json:"fd"`
	// Spec is the dependency in Define syntax (emerged suggestions only).
	Spec string `json:"spec,omitempty"`
}

// DiscoveryStats is the incremental discoverer's cumulative effort plus the
// current cover and border sizes — the observable that cover maintenance
// after a mutation batch costs work proportional to the disturbed lattice
// region, not to the lattice. Zero until DiscoverIncremental or Suggestions
// has seeded a discoverer.
type DiscoveryStats = discovery.IncStats

// Discover runs a one-shot levelwise discovery of the minimal exact FDs on
// the current instance (the §2 "discover everything" baseline). For a
// periodically re-validated, evolving instance prefer DiscoverIncremental,
// which maintains the same cover at a fraction of the per-batch cost.
func (s *Session) Discover(opts DiscoveryOptions) ([]DiscoveredFD, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	dopts, err := s.resolveDiscovery(opts)
	if err != nil {
		return nil, err
	}
	fds, _ := discovery.MinimalFDs(s.counter, dopts)
	return s.toDiscovered(fds), nil
}

// DiscoverIncremental returns the minimal exact-FD cover of the instance,
// maintained incrementally across the session's DML: the first call seeds a
// discoverer with a full levelwise pass, and every later call folds the
// mutations since the previous one into the maintained cover instead of
// re-searching the lattice. The result always equals Discover on the same
// instance (with MaxResults ignored); DiscoveryStats exposes how little
// work each refresh performed. Calling with a different MaxLHS or
// Consequents reseeds.
func (s *Session) DiscoverIncremental(opts DiscoveryOptions) ([]DiscoveredFD, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cover, err := s.coverLocked(opts)
	if err != nil {
		return nil, err
	}
	return s.toDiscovered(cover), nil
}

// Suggestions diffs the incrementally-discovered cover and the defined FD
// set against their state at the previous call (or at the seeding
// DiscoverIncremental), wiring discovery into the advisor loop: emerged
// minimal FDs are offered for adoption (Define with the suggestion's Spec),
// and defined FDs the data newly violates are flagged for Repair. The first
// call after seeding reports changes since the seed; if no discoverer
// exists yet, one is seeded with default options and the call reports
// nothing — as an empty, never nil, slice, so it marshals as [].
func (s *Session) Suggestions() ([]AdvisorSuggestion, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.disc == nil {
		if _, err := s.coverLocked(DiscoveryOptions{}); err != nil {
			return nil, err
		}
	}
	cover := s.disc.Cover()
	schema := s.rel.Schema()
	out := []AdvisorSuggestion{}
	seen := make(map[string]bool, len(cover))
	for _, fd := range cover {
		key := fd.X.Key() + "\x00" + fd.Y.Key()
		seen[key] = true
		if s.lastCover[key] || s.definedEqualLocked(fd) {
			continue
		}
		d := s.toDiscoveredOne(fd)
		out = append(out, AdvisorSuggestion{
			Kind: SuggestionNewFD, FD: fd.FormatWith(schema), Spec: d.Spec,
		})
	}
	s.lastCover = seen
	for _, label := range s.order {
		fd := s.fds[label]
		exact := s.cache.Compute(fd).Exact()
		wasExact, known := s.lastExact[label]
		if !exact && (!known || wasExact) {
			out = append(out, AdvisorSuggestion{
				Kind: SuggestionBrokenFD, Label: label, FD: fd.FormatWith(schema),
			})
		}
		s.lastExact[label] = exact
	}
	return out, nil
}

// DiscoveryStats reports the incremental discoverer's cumulative effort;
// zero before DiscoverIncremental or Suggestions seeded one.
func (s *Session) DiscoveryStats() DiscoveryStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.disc == nil {
		return DiscoveryStats{}
	}
	return s.disc.Stats()
}

// coverLocked returns the maintained cover under a held write lock, seeding
// or reseeding the discoverer when the resolved options changed. Reseeding
// also resets the Suggestions baseline to the new seed cover.
func (s *Session) coverLocked(opts DiscoveryOptions) ([]core.FD, error) {
	dopts, err := s.resolveDiscovery(opts)
	if err != nil {
		return nil, err
	}
	dopts.MaxResults = 0
	if s.disc != nil && discoveryOptionsEqual(s.discOpts, dopts) {
		return s.disc.Cover(), nil
	}
	s.disc = discovery.NewIncrementalDiscoverer(s.counter, dopts)
	s.discOpts = dopts
	cover := s.disc.Cover()
	s.lastCover = make(map[string]bool, len(cover))
	for _, fd := range cover {
		s.lastCover[fd.X.Key()+"\x00"+fd.Y.Key()] = true
	}
	s.lastExact = make(map[string]bool, len(s.order))
	for _, label := range s.order {
		s.lastExact[label] = s.cache.Compute(s.fds[label]).Exact()
	}
	return cover, nil
}

// resolveDiscovery maps name-based facade options to the internal
// position-based ones, refusing negative bounds, normalising MaxLHS and
// canonicalising Consequents (schema order, duplicates dropped) so that
// option sets describing the same lattice compare equal — a reordered
// Consequents list must not discard the maintained borders, and a repeated
// name must not duplicate a column's FDs in the cover.
func (s *Session) resolveDiscovery(opts DiscoveryOptions) (discovery.Options, error) {
	out := discovery.Options{MaxLHS: opts.MaxLHS, MaxResults: opts.MaxResults}
	if opts.MaxLHS < 0 || opts.MaxResults < 0 {
		return out, fmt.Errorf("evolvefd: %w: discovery bounds must not be negative (MaxLHS %d, MaxResults %d)",
			ErrBadValue, opts.MaxLHS, opts.MaxResults)
	}
	if out.MaxLHS == 0 {
		out.MaxLHS = 2
	}
	if opts.Consequents != nil {
		// An explicitly empty (non-nil) list restricts discovery to zero
		// consequents; only a nil list means "every NULL-free attribute".
		out.Consequents = make([]int, 0, len(opts.Consequents))
		for _, name := range opts.Consequents {
			idx := s.rel.Schema().Index(name)
			if idx < 0 {
				return out, fmt.Errorf("evolvefd: %w %q", ErrUnknownAttribute, name)
			}
			out.Consequents = append(out.Consequents, idx)
		}
		sort.Ints(out.Consequents)
		out.Consequents = slices.Compact(out.Consequents)
	}
	return out, nil
}

func discoveryOptionsEqual(a, b discovery.Options) bool {
	if a.MaxLHS != b.MaxLHS || len(a.Consequents) != len(b.Consequents) {
		return false
	}
	// nil means "all consequents"; an empty non-nil list means "none".
	if (a.Consequents == nil) != (b.Consequents == nil) {
		return false
	}
	for i := range a.Consequents {
		if a.Consequents[i] != b.Consequents[i] {
			return false
		}
	}
	return true
}

// definedEqualLocked reports whether some defined FD has exactly the given
// antecedent and consequent.
func (s *Session) definedEqualLocked(fd core.FD) bool {
	for _, label := range s.order {
		if s.fds[label].Equal(fd) {
			return true
		}
	}
	return false
}

func (s *Session) toDiscovered(fds []core.FD) []DiscoveredFD {
	out := make([]DiscoveredFD, 0, len(fds))
	for _, fd := range fds {
		out = append(out, s.toDiscoveredOne(fd))
	}
	return out
}

func (s *Session) toDiscoveredOne(fd core.FD) DiscoveredFD {
	schema := s.rel.Schema()
	ante := schema.NameSet(fd.X)
	consequent := schema.Column(fd.Y.Min()).Name
	return DiscoveredFD{
		FD:         fd.FormatWith(schema),
		Spec:       strings.Join(ante, ", ") + " -> " + consequent,
		Antecedent: ante,
		Consequent: consequent,
	}
}

// Consistent reports whether every defined FD holds on the data.
func (s *Session) Consistent() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, label := range s.order {
		if !s.cache.Compute(s.fds[label]).Exact() {
			return false
		}
	}
	return true
}

func toMeasures(m core.Measures) Measures {
	return Measures{
		Confidence:      m.Confidence,
		ConfidenceRatio: m.ConfidenceRatio(),
		Goodness:        m.Goodness,
		Exact:           m.Exact(),
	}
}
