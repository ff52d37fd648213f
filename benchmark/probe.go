package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	evolvefd "github.com/evolvefd/evolvefd"
	"github.com/evolvefd/evolvefd/internal/core"
	"github.com/evolvefd/evolvefd/internal/discovery"
	"github.com/evolvefd/evolvefd/internal/pli"
	"github.com/evolvefd/evolvefd/internal/wal"
)

// The probe phase of a traced run times the layers the workloads only reach
// through the facade, by calling their public functions directly.

const probeReps = 3

// medianOf times fn probeReps times after a GC and returns the median
// duration in nanoseconds.
func medianOf(fn func()) float64 {
	times := make([]float64, probeReps)
	for i := range times {
		runtime.GC()
		start := time.Now()
		fn()
		times[i] = float64(time.Since(start))
	}
	return median(times)
}

// quadrantPairs are the lineitem column pairs whose class storage forms
// select each quadrant of the product kernel dispatch: l_returnflag and
// l_shipmode have a handful of huge classes (bitmap-backed), l_partkey and
// l_suppkey are high-cardinality (arena-backed).
var quadrantPairs = [][2]int{
	{colReturnflag, colShipmode},
	{colReturnflag, colSuppkey},
	{colSuppkey, colReturnflag},
	{colPartkey, colSuppkey},
}

// probePLI times single-column partition builds and the product kernels.
func probePLI(rel *evolvefd.Relation, m metrics, v *verdict) {
	rows := float64(rel.NumRows())
	var parts [numCols]*pli.Partition
	ns := medianOf(func() {
		for c := range parts {
			parts[c] = pli.FromColumn(rel, c)
		}
	})
	m["pli.build_ns_per_row"] = ns / rows / numCols
	var bytes int64
	for _, p := range parts {
		bytes += p.MemBytes()
	}
	m["pli.bytes_per_row"] = float64(bytes) / rows

	procs := runtime.GOMAXPROCS(0)
	for i, pair := range quadrantPairs {
		p, q := parts[pair[0]], parts[pair[1]]
		var built *pli.Partition
		var count int
		m["pli.product_ns_per_row."+quadrants[i]] = medianOf(func() { built = p.Product(q, nil) }) / rows
		m["pli.count_ns_per_row."+quadrants[i]] = medianOf(func() { count = p.ProductCount(q, nil) }) / rows
		var par *pli.Partition
		m["pli.parallel_ns_per_row."+quadrants[i]] = medianOf(func() { par = p.ProductParallel(q, procs) }) / rows
		v.expect(count == built.NumClasses() && par.NumClasses() == count,
			"pli %s: product %d classes, count-only %d, parallel %d", quadrants[i], built.NumClasses(), count, par.NumClasses())
	}
}

// probeCore runs the repair search of F1 directly on a fresh PLICounter.
func probeCore(rel *evolvefd.Relation, m metrics) error {
	f1 := lineitemFDs[0]
	fd, err := core.ParseFD(rel.Schema(), f1.label, f1.spec)
	if err != nil {
		return err
	}
	m["core.find_first_ms"] = medianOf(func() {
		core.FindRepairs(pli.NewPLICounter(rel), fd, core.RepairOptions{FirstOnly: true, MaxAdded: 3})
	}) / 1e6
	var res core.RepairResult
	var counter *pli.PLICounter
	m["core.find_all_ms"] = medianOf(func() {
		counter = pli.NewPLICounter(rel)
		res = core.FindRepairs(counter, fd, core.RepairOptions{MaxAdded: 2})
	}) / 1e6
	m["core.expanded"] = float64(res.Stats.Expanded)
	m["core.evaluated"] = float64(res.Stats.Evaluated)
	m["core.repairs_found"] = float64(len(res.Repairs))
	m["pli.cache_builds"] = float64(counter.MultiColumnBuilds())
	return nil
}

// probeDiscovery runs the levelwise discovery directly.
func probeDiscovery(rel *evolvefd.Relation, m metrics) {
	var cover []core.FD
	var stats discovery.Stats
	m["discovery.full_ms"] = medianOf(func() {
		cover, stats = discovery.MinimalFDs(pli.NewPLICounter(rel), discovery.Options{MaxLHS: discoverOpts.MaxLHS})
	}) / 1e6
	m["discovery.checked"] = float64(stats.Checked)
	m["discovery.pruned"] = float64(stats.Pruned)
	m["discovery.cover_size"] = float64(len(cover))
}

// probeDurable times, on a tenant directory the stopped service left
// behind: snapshot read and write, the log scan, a session open, and a
// follower's bootstrap and catch-up.
func probeDurable(dir, scratch string, m metrics) error {
	snaps, logs, err := wal.ListStatesFS(nil, dir)
	if err != nil || len(snaps) == 0 || len(logs) == 0 {
		return fmt.Errorf("probe %s: %d snapshots, %d logs (%v)", dir, len(snaps), len(logs), err)
	}
	seq := snaps[len(snaps)-1]
	var snap *wal.Snapshot
	m["wal.snapshot_read_ms"] = medianOf(func() { snap, err = wal.ReadSnapshotFS(nil, dir, seq) }) / 1e6
	if err != nil {
		return err
	}
	size, err := wal.OS.Size(wal.SnapshotPath(dir, seq))
	if err != nil {
		return err
	}
	m["wal.snapshot_bytes_per_row"] = float64(size) / float64(max(snap.Rel.NumRows(), 1))

	pass := 0
	m["wal.snapshot_write_ms"] = medianOf(func() {
		pass++
		out := filepath.Join(scratch, fmt.Sprintf("snap%d", pass))
		if err == nil {
			err = os.MkdirAll(out, 0o755)
		}
		if err == nil {
			err = wal.WriteSnapshotFS(nil, out, snap, false)
		}
	}) / 1e6
	if err != nil {
		return err
	}

	records := 0
	ns := medianOf(func() {
		var payloads [][]byte
		payloads, _, _, err = wal.ReadLogFS(nil, wal.LogPath(dir, logs[len(logs)-1]))
		records = len(payloads)
		for _, p := range payloads {
			if _, e := wal.DecodeOp(p); e != nil && err == nil {
				err = e
			}
		}
	})
	if err != nil {
		return err
	}
	m["wal.replay_ops_per_s"] = float64(records) / (ns / 1e9)

	var s *evolvefd.Session
	m["evolvefd.open_session_ms"] = medianOf(func() {
		if s != nil {
			s.Close()
		}
		if err == nil {
			s, err = evolvefd.OpenSession(dir)
		}
	}) / 1e6
	if err != nil {
		return err
	}
	s.Close()

	runtime.GC()
	start := time.Now()
	f, err := evolvefd.OpenFollower(dir, evolvefd.FollowerOptions{NoPin: true})
	if err != nil {
		return err
	}
	defer f.Close()
	m["replica.bootstrap_ms"] = float64(time.Since(start)) / 1e6
	m["replica.lag_bytes_max"] = float64(f.Stats().ByteLag)
	start = time.Now()
	applied, err := f.CatchUp()
	if err != nil {
		return err
	}
	m["replica.catchup_ops_per_s"] = float64(applied) / time.Since(start).Seconds()
	return nil
}
