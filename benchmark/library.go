package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	evolvefd "github.com/evolvefd/evolvefd"
)

// loadRelation parses rows into a relation through the CSV path, the way a
// library user opens an instance.
func loadRelation(name string, cd *codec, rows []row) (*evolvefd.Relation, error) {
	return evolvefd.OpenCSVReader(name, strings.NewReader(cd.toCSV(rows)), evolvefd.CSVOptions{InferKinds: true})
}

// repairResult is what the repair stage measured, one value per rep.
type repairResult struct {
	checkCold, first, all []float64 // seconds
	// labels and suggestions of the last rep, for the oracle.
	suggestions map[string][]evolvefd.Suggestion
	violated    []string
	session     *evolvefd.Session
}

// runRepair repeats the paper's Table 5 measurement on fresh sessions over
// one instance: a cold Check, then per violated FD, in rank order, the
// find-first and the find-all repair search.
func runRepair(rel *evolvefd.Relation, reps int, tr *tracer) (*repairResult, error) {
	res := &repairResult{}
	for rep := 0; rep < reps; rep++ {
		runtime.GC()
		s := evolvefd.NewSession(rel)
		for _, fd := range repairFDs() {
			if err := s.Define(fd.label, fd.spec); err != nil {
				return nil, err
			}
		}
		var violations []evolvefd.Violation
		start := time.Now()
		tr.time("evolvefd.Check", func() { violations = s.Check() })
		res.checkCold = append(res.checkCold, time.Since(start).Seconds())

		var first, all time.Duration
		found := make(map[string][]evolvefd.Suggestion)
		var violated []string
		for _, v := range violations {
			var err error
			var one, every []evolvefd.Suggestion
			start = time.Now()
			tr.time("evolvefd.Repair.first", func() {
				one, err = s.Repair(v.Label, evolvefd.Options{FirstOnly: true, MaxAdded: 3})
			})
			first += time.Since(start)
			if err != nil {
				return nil, err
			}
			start = time.Now()
			tr.time("evolvefd.Repair.all", func() {
				every, err = s.Repair(v.Label, evolvefd.Options{MaxAdded: 2})
			})
			all += time.Since(start)
			if err != nil {
				return nil, err
			}
			violated = append(violated, v.Label)
			found[v.Label] = append(one, every...)
		}
		res.first = append(res.first, first.Seconds())
		res.all = append(res.all, all.Seconds())
		res.suggestions, res.violated, res.session = found, violated, s
	}
	return res, nil
}

// verifyRepair recounts every violation verdict and every returned repair
// on the mirror: a violated FD must be inexact, an unreported one exact,
// and X ∪ Added -> Y must hold exactly. The recounts only read the mirror,
// so they run on every core.
func verifyRepair(res *repairResult, mir *mirror, v *verdict) {
	type recount struct {
		x     []int
		y     int
		want  bool
		label string
		added []string
	}
	var todo []recount
	for _, fd := range repairFDs() {
		x, y := parseSpec(fd.spec)
		violated := false
		for _, label := range res.violated {
			violated = violated || label == fd.label
		}
		todo = append(todo, recount{x: x, y: y, want: !violated, label: fd.label})
		v.expect(!violated || len(res.suggestions[fd.label]) > 0,
			"repair: %s is violated but no repair came back", fd.label)
		for _, sg := range res.suggestions[fd.label] {
			xs := append([]int(nil), x...)
			for _, name := range sg.Added {
				xs = append(xs, colIndex(name))
			}
			v.expect(sg.Measures.Exact, "repair: %s + %v is returned with inexact measures", fd.label, sg.Added)
			todo = append(todo, recount{x: xs, y: y, want: true, label: fd.label, added: sg.Added})
		}
	}
	got := make([]bool, len(todo))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(todo); i = int(next.Add(1)) - 1 {
				got[i] = mir.exact(todo[i].x, todo[i].y)
			}
		}()
	}
	wg.Wait()
	for i, rc := range todo {
		v.expect(got[i] == rc.want, "repair: %s + %v: program says exact=%v, the oracle's count says %v",
			rc.label, rc.added, rc.want, got[i])
	}
}

// discoverResult is what the discover stage measured.
type discoverResult struct {
	full    []float64 // seconds per from-scratch discovery
	batchMs []float64 // per batch: DML + DiscoverIncremental + Suggestions
	syncUs  []float64 // per batch: the DiscoverIncremental call alone
	session *evolvefd.Session
	stats   evolvefd.DiscoveryStats
	cover   []evolvefd.DiscoveredFD
}

var discoverOpts = evolvefd.DiscoveryOptions{MaxLHS: 2}

// runDiscover discovers the minimal cover from scratch on fresh sessions,
// then evolves the instance on the last one: mixed DML batches (70% append,
// 15% delete, 15% update), each followed by the incremental re-discovery
// and the advisor's suggestions: the loop a designer's tool would run after
// every load.
func runDiscover(rel *evolvefd.Relation, mir *mirror, cd *codec, st discoverStage, seed int64, tr *tracer) (*discoverResult, error) {
	res := &discoverResult{}
	for i := 0; i < st.fulls; i++ {
		runtime.GC()
		s := evolvefd.NewSession(rel)
		var err error
		start := time.Now()
		tr.time("evolvefd.DiscoverIncremental.seed", func() { res.cover, err = s.DiscoverIncremental(discoverOpts) })
		res.full = append(res.full, time.Since(start).Seconds())
		if err != nil {
			return nil, err
		}
		res.session = s
	}
	s := res.session
	if _, err := s.Suggestions(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	runtime.GC()
	for b := 0; b < st.batches; b++ {
		batch := drawBatch(mir, cd, rng)
		start := time.Now()
		if err := batch.apply(s); err != nil {
			return nil, fmt.Errorf("batch %d: %w", b, err)
		}
		var err error
		syncStart := time.Now()
		tr.time("evolvefd.DiscoverIncremental", func() { res.cover, err = s.DiscoverIncremental(discoverOpts) })
		res.syncUs = append(res.syncUs, float64(time.Since(syncStart))/1e3)
		if err != nil {
			return nil, err
		}
		if _, err := s.Suggestions(); err != nil {
			return nil, err
		}
		res.batchMs = append(res.batchMs, float64(time.Since(start))/1e6)
		batch.applyMirror(mir)
	}
	res.stats = s.DiscoveryStats()
	return res, nil
}

// evolveOp is one DML batch of the discover stage, drawn and rendered
// before the clock starts.
type evolveOp struct {
	kind  opKind
	ids   []int
	rows  []row
	cells [][]string
}

// drawBatch draws one batch. An appended row is a fresh tuple — a new line
// of some order — not a copy of a live row with a few cells redrawn: a
// copy that differs from its original in cell A alone breaks every FD
// X -> A at once, and the first batch of 64 such copies took the cover of a
// 100k-row instance from 74 FDs to none, for good, which left the
// incremental discovery nothing to maintain (0.4 ms a batch).
func drawBatch(mir *mirror, cd *codec, rng *rand.Rand) evolveOp {
	var op evolveOp
	switch p := rng.Intn(100); {
	case p < 70:
		op.kind = opAppend
		for i := 0; i < evolveBatch; i++ {
			op.rows = append(op.rows, cd.fresh(rng))
		}
	case p < 85:
		op.kind = opDelete
		op.ids = mir.pickLive(evolveBatch, rng)
	default:
		op.kind = opUpdate
		op.ids = mir.pickLive(evolveBatch, rng)
		for _, id := range op.ids {
			op.rows = append(op.rows, cd.mutate(mir.rows[id], rng))
		}
	}
	op.cells = cd.cellsOf(op.rows)
	return op
}

func (op evolveOp) apply(s *evolvefd.Session) error {
	switch op.kind {
	case opAppend:
		for _, c := range op.cells {
			if err := s.AppendStrings(c...); err != nil {
				return err
			}
		}
	case opDelete:
		return s.Delete(op.ids...)
	default:
		for i, id := range op.ids {
			if err := s.UpdateStrings(id, op.cells[i]...); err != nil {
				return err
			}
		}
	}
	return nil
}

func (op evolveOp) applyMirror(mir *mirror) {
	switch op.kind {
	case opAppend:
		for _, r := range op.rows {
			mir.append(r)
		}
	case opDelete:
		for _, id := range op.ids {
			mir.delete(id)
		}
	default:
		for i, id := range op.ids {
			mir.update(id, op.rows[i])
		}
	}
}

// verifyDiscover holds the maintained cover against a one-shot Discover on
// the final state, and recounts every cover FD on the mirror.
func verifyDiscover(res *discoverResult, mir *mirror, v *verdict) {
	oneShot, err := res.session.Discover(discoverOpts)
	same := err == nil && len(oneShot) == len(res.cover)
	for i := 0; same && i < len(oneShot); i++ {
		same = oneShot[i].Spec == res.cover[i].Spec
	}
	v.expect(same, "discover: maintained cover (%d FDs) differs from a one-shot discovery (%d FDs) (%v)",
		len(res.cover), len(oneShot), err)
	v.expect(res.session.LiveRows() == mir.liveRows(),
		"discover: session has %d live rows, mirror %d", res.session.LiveRows(), mir.liveRows())
	for _, fd := range res.cover {
		x, y := parseSpec(fd.Spec)
		v.expect(mir.exact(x, y), "discover: cover FD %s is not exact by the oracle's count", fd.Spec)
	}
}
