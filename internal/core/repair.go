package core

import (
	"container/heap"
	"math"
	"runtime"
	"time"

	"github.com/evolvefd/evolvefd/internal/bitset"
	"github.com/evolvefd/evolvefd/internal/pli"
)

// Repair is one way to evolve a violated FD X → Y into an exact FD XU → Y.
type Repair struct {
	// Added is the attribute set U added to the antecedent.
	Added bitset.Set
	// FD is the repaired dependency XU → Y.
	FD FD
	// Measures are the measures of the repaired dependency; Exact() is true.
	Measures Measures
}

// SearchStats describes the work done by a repair search.
type SearchStats struct {
	// Evaluated counts candidate FDs whose measures were computed.
	Evaluated int
	// Expanded counts queue nodes whose children were generated.
	Expanded int
	// Enqueued counts nodes pushed onto the priority queue.
	Enqueued int
	// Exhausted is true when the bounded search space was fully explored
	// (as opposed to stopping at the first repair or on a budget).
	Exhausted bool
	// Elapsed is the wall-clock duration of the search.
	Elapsed time.Duration
}

// Objective selects the order in which the repair search explores and
// returns candidates.
type Objective int

const (
	// ObjectiveMinimalFirst is the paper's Algorithm 3 order: antecedent
	// cardinality ascending, then rank (confidence descending, |goodness|
	// ascending). The first repair found is minimal in size.
	ObjectiveMinimalFirst Objective = iota
	// ObjectiveBalanced implements the §4.4 proposal of "combining such a
	// threshold with our confidence and goodness measures … an objective
	// function that guides our repair strategy": nodes are ordered by
	//
	//	score(U) = |U| + ic(F_U) + λ·|goodness(F_U)|
	//
	// (λ = GoodnessWeight), i.e. |U| + λ-weighted ε_CB. A slightly longer
	// repair with near-bijective goodness can now beat a short repair built
	// on a UNIQUE attribute, without a hard threshold. With FirstOnly the
	// returned repair provably minimises the score: the search only stops
	// once no unexplored node can beat it (score ≥ |U| for every node).
	ObjectiveBalanced
)

// RepairOptions controls the Extend search (Algorithm 3).
type RepairOptions struct {
	// FirstOnly stops at the first (minimal) repair — the early-stop variant
	// the paper measures in Table 8. When false the whole bounded space is
	// explored (Table 7).
	FirstOnly bool
	// Objective selects the search order; the zero value is the paper's
	// minimal-first order.
	Objective Objective
	// GoodnessWeight is λ in the balanced objective; values ≤ 0 mean 1.
	// Ignored under ObjectiveMinimalFirst.
	GoodnessWeight float64
	// MaxAdded bounds |U|, the number of attributes added to the
	// antecedent; 0 means no bound (every NULL-free attribute outside XY
	// may be added).
	MaxAdded int
	// MaxEvaluated aborts the search after this many candidate evaluations;
	// 0 means unlimited. A tripped budget sets Stats.Exhausted = false.
	// The initial single-attribute seeding (ExtendByOne) always runs to
	// completion, so up to one full candidate pool may be evaluated even
	// under a smaller budget.
	MaxEvaluated int
	// Parallelism bounds the worker goroutines that evaluate frontier
	// expansions (and, in EvolveDatabase, repair ranked FDs concurrently);
	// 0 means GOMAXPROCS, 1 disables concurrency. Results are bit-identical
	// at every setting: the frontier is expanded in deterministic batches
	// and children are re-sorted by the queue's total order.
	Parallelism int
	// PruneNonMinimal drops repairs that are supersets of other found
	// repairs from the result. The paper's Algorithm 3 keeps them (they are
	// reachable through paths whose prefixes are non-exact); pruning is an
	// extension for designers who want only minimal suggestions.
	PruneNonMinimal bool
	// Candidates configures per-step candidate generation.
	Candidates CandidateOptions
}

// workerCount resolves the frontier-expansion parallelism.
func (o RepairOptions) workerCount() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// RepairResult is the outcome of repairing one FD.
type RepairResult struct {
	// FD is the original, violated dependency.
	FD FD
	// Initial holds the original FD's measures.
	Initial Measures
	// Repairs lists the exact extensions found, in discovery order — which,
	// by the queue invariant, is (|U| ascending, rank descending). With
	// FirstOnly it has at most one element; it is empty when no repair
	// exists within the bounds.
	Repairs []Repair
	// Stats describes the search effort.
	Stats SearchStats
}

// node is a queue entry: the set of added attributes, the measures of the
// corresponding extended FD, and the balanced-objective score (0 under
// minimal-first).
type node struct {
	added    bitset.Set
	addedKey []int // sorted members, for deterministic comparison
	measures Measures
	score    float64
}

// nodeQueue is the priority queue of Algorithm 3. Under the minimal-first
// objective it orders by increasing cardinality of the added set (so the
// first repair popped is minimal), then by decreasing rank (confidence
// desc, |goodness| asc); under the balanced objective it orders by score.
// Added-attribute order breaks all remaining ties deterministically, which
// makes the pop sequence a total order: parallel expansion may push children
// in any order and the queue still drains identically.
type nodeQueue struct {
	nodes    []*node
	balanced bool
}

func (q *nodeQueue) Len() int { return len(q.nodes) }

func (q *nodeQueue) Less(i, j int) bool {
	a, b := q.nodes[i], q.nodes[j]
	if q.balanced && a.score != b.score {
		return a.score < b.score
	}
	if len(a.addedKey) != len(b.addedKey) {
		return len(a.addedKey) < len(b.addedKey)
	}
	if a.measures.Confidence != b.measures.Confidence {
		return a.measures.Confidence > b.measures.Confidence
	}
	ga, gb := abs(a.measures.Goodness), abs(b.measures.Goodness)
	if ga != gb {
		return ga < gb
	}
	for k := range a.addedKey {
		if a.addedKey[k] != b.addedKey[k] {
			return a.addedKey[k] < b.addedKey[k]
		}
	}
	return false
}

func (q *nodeQueue) Swap(i, j int) { q.nodes[i], q.nodes[j] = q.nodes[j], q.nodes[i] }
func (q *nodeQueue) Push(x any)    { q.nodes = append(q.nodes, x.(*node)) }
func (q *nodeQueue) Pop() any {
	old := q.nodes
	n := old[len(old)-1]
	q.nodes = old[:len(old)-1]
	return n
}

// expandTask is one child evaluation: extend parent (whose extended FD has
// antecedent extX and attribute set extXY) by attr. Tasks of one wave are
// evaluated across the worker pool; m is filled in by the worker. Under
// partition reuse, pX and pXY carry the parent's materialised partitions,
// resolved once per parent node rather than once per child.
type expandTask struct {
	parent *node
	extX   bitset.Set // X ∪ U of the parent
	extXY  bitset.Set // X ∪ U ∪ Y of the parent
	extY   bitset.Set
	pX     *pli.Partition
	pXY    *pli.Partition
	attr   int
	m      Measures
}

// FindRepairs runs the Extend search (Algorithm 3) for one FD. If the FD is
// already exact the result carries no repairs and zero search stats.
//
// The search explores added-attribute sets in best-first order. Exact nodes
// are recorded and not expanded (an exact FD stays exact under further
// extension, so children would be redundant supersets); non-exact nodes are
// expanded by adding one attribute with a schema position greater than any
// already added, which enumerates every subset exactly once.
//
// The frontier is expanded in deterministic batches: under the minimal-first
// objective all queue nodes tied at the current added-set size are popped
// together (expansion only ever pushes strictly larger children, so the
// batch is exactly the serial pop sequence), their children are evaluated
// across opts.Parallelism workers, and the queue's total order re-sorts the
// pushes. Results are therefore bit-identical to a serial run at any
// parallelism. Budgeted and balanced searches process one node per batch,
// which preserves the serial stopping rules exactly; their child evaluations
// still fan out.
func FindRepairs(counter pli.Counter, fd FD, opts RepairOptions) RepairResult {
	start := time.Now()
	workers := opts.workerCount()
	// A SearchCounter lets each child derive from its parent's materialised
	// partition (one stripped product); any other Counter takes the generic
	// Count path. Results are identical either way.
	sc, _ := counter.(pli.SearchCounter)

	res := RepairResult{FD: fd, Initial: computeInitial(counter, sc, fd, workers)}
	if res.Initial.Exact() {
		res.Stats.Exhausted = true
		res.Stats.Elapsed = time.Since(start)
		return res
	}

	pool := CandidatePool(counter, fd, opts.Candidates)
	maxAdded := opts.MaxAdded
	if maxAdded <= 0 || maxAdded > len(pool) {
		maxAdded = len(pool)
	}
	balanced := opts.Objective == ObjectiveBalanced
	lambda := opts.GoodnessWeight
	if lambda <= 0 {
		lambda = 1
	}
	score := func(size int, m Measures) float64 {
		if !balanced {
			return 0
		}
		return float64(size) + m.Inconsistency() + lambda*math.Abs(float64(m.Goodness))
	}
	q := &nodeQueue{balanced: balanced}
	q.nodes = make([]*node, 0, 2*len(pool))
	heap.Init(q)
	// sizeCounts[s] tracks how many queued nodes hold s added attributes: the
	// balanced objective's stopping rule needs the smallest live size. A
	// slice beats a map here — the hot loop decrements it on every pop.
	sizeCounts := make([]int, maxAdded+2)
	push := func(added bitset.Set, m Measures) {
		key := added.Members()
		heap.Push(q, &node{added: added, addedKey: key, measures: m, score: score(len(key), m)})
		sizeCounts[len(key)]++
		res.Stats.Enqueued++
	}
	minLiveSize := func() int {
		for size := 1; size <= maxAdded; size++ {
			if sizeCounts[size] > 0 {
				return size
			}
		}
		return maxAdded + 1
	}

	// Seed with all single-attribute extensions (ExtendByOne). With a
	// search-aware counter the candidates are scored through the count-only
	// product kernel off the root partitions — same integers, no child
	// partitions materialised; the queue's total order makes the push order
	// irrelevant, so ExtendByOne's sort is not needed here.
	if sc != nil {
		pX0, pXY0 := sc.PartitionPar(fd.X, workers), sc.PartitionPar(fd.Attrs(), workers)
		seed := make([]expandTask, len(pool))
		for i, attr := range pool {
			seed[i] = expandTask{
				extX: fd.X, extXY: fd.Attrs(), extY: fd.Y,
				pX: pX0, pXY: pXY0, attr: attr,
			}
		}
		evalTasks(counter, sc, res.Initial.NumY, seed, workers)
		for i := range seed {
			t := &seed[i]
			if opts.Candidates.MaxGoodness != nil && abs(t.m.Goodness) > *opts.Candidates.MaxGoodness {
				continue
			}
			// ExtendByOne filters before its caller counts, so only kept
			// candidates show up in Evaluated — mirror that for identical stats.
			res.Stats.Evaluated++
			push(bitset.New(t.attr), t.m)
		}
	} else {
		for _, c := range ExtendByOne(counter, fd, opts.Candidates) {
			res.Stats.Evaluated++
			push(bitset.New(c.Attr), c.Measures)
		}
	}

	// Nodes tied at the current priority level are popped and processed as
	// one batch. Batches are singletons when a budget or the balanced
	// objective demands the serial stopping rules verbatim.
	batchable := !balanced && opts.MaxEvaluated == 0

	// best tracks the lowest-score exact node under FirstOnly+balanced; the
	// search may stop only when no live or future node can beat it (every
	// node's score is at least its size).
	var best *node
	budgetTripped := false
	stopped := false
	var batch []*node
	var tasks []expandTask
	for q.Len() > 0 && !stopped {
		batch = batch[:0]
		n := heap.Pop(q).(*node)
		sizeCounts[len(n.addedKey)]--
		batch = append(batch, n)
		if batchable {
			for q.Len() > 0 && len(q.nodes[0].addedKey) == len(n.addedKey) {
				m := heap.Pop(q).(*node)
				sizeCounts[len(m.addedKey)]--
				batch = append(batch, m)
			}
		}

		// Walk the batch in pop order, replicating the serial per-node
		// decisions; expansions are collected as tasks and evaluated as one
		// wave after the walk.
		tasks = tasks[:0]
		for _, n := range batch {
			if n.measures.Exact() {
				if opts.FirstOnly && balanced {
					if best == nil || n.score < best.score {
						best = n
					}
					if float64(minLiveSize()) >= best.score {
						stopped = true
						break
					}
					continue
				}
				res.Repairs = append(res.Repairs, Repair{
					Added:    n.added,
					FD:       fd.WithExtendedAntecedent(n.added),
					Measures: n.measures,
				})
				if opts.FirstOnly {
					stopped = true
					break
				}
				continue
			}
			if len(n.addedKey) >= maxAdded {
				continue
			}
			if opts.MaxEvaluated > 0 && res.Stats.Evaluated+len(tasks) >= opts.MaxEvaluated {
				budgetTripped = true
				stopped = true
				break
			}
			// Under FirstOnly+balanced, expanding nodes whose children cannot
			// beat the incumbent is wasted work.
			if best != nil && float64(len(n.addedKey)+1) >= best.score {
				continue
			}
			res.Stats.Expanded++
			maxIdx := n.addedKey[len(n.addedKey)-1]
			extFD := fd.WithExtendedAntecedent(n.added)
			extXY := extFD.Attrs()
			// Resolve the parent's partitions once per node: every child of
			// this node products off the same two handles, and a tracked
			// IncrementalCounter set would otherwise re-materialise per task.
			var pX, pXY *pli.Partition
			if sc != nil {
				pX = sc.PartitionPar(extFD.X, workers)
				pXY = sc.PartitionPar(extXY, workers)
			}
			for _, attr := range pool {
				if attr <= maxIdx {
					continue
				}
				if opts.MaxEvaluated > 0 && res.Stats.Evaluated+len(tasks) >= opts.MaxEvaluated {
					budgetTripped = true
					break
				}
				tasks = append(tasks, expandTask{
					parent: n, extX: extFD.X, extXY: extXY, extY: extFD.Y,
					pX: pX, pXY: pXY, attr: attr,
				})
			}
		}

		evalTasks(counter, sc, res.Initial.NumY, tasks, workers)
		res.Stats.Evaluated += len(tasks)
		for i := range tasks {
			t := &tasks[i]
			if opts.Candidates.MaxGoodness != nil && abs(t.m.Goodness) > *opts.Candidates.MaxGoodness {
				continue
			}
			push(t.parent.added.With(t.attr), t.m)
		}
	}
	if best != nil {
		res.Repairs = append(res.Repairs, Repair{
			Added:    best.added,
			FD:       fd.WithExtendedAntecedent(best.added),
			Measures: best.measures,
		})
	}

	if opts.PruneNonMinimal {
		res.Repairs = pruneNonMinimal(res.Repairs)
	}
	res.Stats.Exhausted = !budgetTripped && (!opts.FirstOnly || len(res.Repairs) == 0)
	res.Stats.Elapsed = time.Since(start)
	return res
}

// evalTasks computes the measures of every task, fanning out across at most
// `workers` goroutines. Counters are safe for concurrent use, so workers
// share the partition cache; results land in each task's m field, keeping
// the caller's deterministic ordering intact.
func evalTasks(counter pli.Counter, sc pli.SearchCounter, numY int, tasks []expandTask, workers int) {
	if len(tasks) == 0 {
		return
	}
	parallelFor(len(tasks), workers, func(i int) {
		t := &tasks[i]
		if sc != nil {
			t.m = computeChild(sc, t, numY)
			return
		}
		child := FD{X: t.extX.With(t.attr), Y: t.extY}
		t.m = Compute(counter, child)
	})
}

// computeChild derives the child FD's measures from the parent's
// materialised partitions (threaded through the task): each of |π_X'| and
// |π_X'Y| is one count-only stripped product (parent · singleton) instead of
// a generic cache probe that rebuilds from single-column factors on a miss —
// no child arena is allocated or written unless the node is later expanded,
// at which point PartitionPar materialises it. |π_Y| is constant across the
// whole search and passed in. The counts are the same integers the generic
// path computes, so measures are bit-identical.
func computeChild(sc pli.SearchCounter, t *expandTask, numY int) Measures {
	numX := sc.ChildCount(t.extX, t.pX, t.attr)
	numXY := sc.ChildCount(t.extXY, t.pXY, t.attr)
	return NewMeasures(numX, numXY, numY)
}

// computeInitial scores the root FD. A search-aware counter builds the three
// root partitions with the sharded parallel product (they are reused by the
// seeding wave and cached for the whole search); the generic path is one
// Compute, exactly as before.
func computeInitial(counter pli.Counter, sc pli.SearchCounter, fd FD, workers int) Measures {
	if sc == nil {
		return Compute(counter, fd)
	}
	numX := sc.PartitionPar(fd.X, workers).NumClasses()
	numXY := sc.PartitionPar(fd.Attrs(), workers).NumClasses()
	numY := sc.PartitionPar(fd.Y, workers).NumClasses()
	return NewMeasures(numX, numXY, numY)
}

// pruneNonMinimal removes repairs whose added set is a proper superset of
// another repair's added set. Discovery order (size-ascending) guarantees
// subsets appear before supersets, so one backward pass suffices.
func pruneNonMinimal(repairs []Repair) []Repair {
	var out []Repair
	for _, r := range repairs {
		minimal := true
		for _, kept := range out {
			if kept.Added.ProperSubsetOf(r.Added) {
				minimal = false
				break
			}
		}
		if minimal {
			out = append(out, r)
		}
	}
	return out
}

// FindFirstRepair is FindRepairs with FirstOnly set: it returns the minimal
// repair (smallest |U|, best rank among those) or ok=false when none exists
// within the bounds.
func FindFirstRepair(counter pli.Counter, fd FD, opts RepairOptions) (Repair, SearchStats, bool) {
	opts.FirstOnly = true
	res := FindRepairs(counter, fd, opts)
	if len(res.Repairs) == 0 {
		return Repair{}, res.Stats, false
	}
	return res.Repairs[0], res.Stats, true
}

// EvolveDatabase implements Algorithm 1 generalised to multi-attribute
// repairs: it ranks the FD set (§4.1), then repairs each violated FD in
// rank order. Exact FDs pass through with empty Repairs.
//
// Each ranked FD's search is independent and read-only on the counter, so
// with opts.Parallelism ≠ 1 the FDs are repaired concurrently; results keep
// rank order and are identical to a serial run.
func EvolveDatabase(counter pli.Counter, fds []FD, scope ConflictScope, opts RepairOptions) []RepairResult {
	ranked := OrderFDs(counter, fds, scope)
	out := make([]RepairResult, len(ranked))
	budget := opts.workerCount()
	outer := budget
	if outer > len(ranked) {
		outer = len(ranked)
	}
	// Split the worker budget between the FD fan-out and each search's
	// expansion waves, so N concurrent searches at N inner workers each
	// don't oversubscribe the cores N×N. Ceiling division mildly over-
	// subscribes (e.g. 3 FDs on 4 cores → 3×2 workers) rather than idling
	// cores whenever the split is uneven.
	inner := opts
	if outer > 1 {
		inner.Parallelism = (budget + outer - 1) / outer
		inner.Candidates.Parallelism = inner.Parallelism
	}
	parallelFor(len(ranked), outer, func(i int) {
		out[i] = FindRepairs(counter, ranked[i].FD, inner)
	})
	return out
}
