package main

import (
	"fmt"
	"math"
	"time"
)

// mixKind is the traffic mix of a workload's serve stage.
type mixKind int

const (
	// mixRead: 60% check, 25% measures, 10% stats, 5% one-row append, on
	// ONE tenant shared by all clients. Append-only, so the final state
	// does not depend on how the clients interleave.
	mixRead mixKind = iota
	// mixWrite: 55% append×16, 15% delete×8, 15% update×8, 15% check, and a
	// compaction between rounds, on one tenant PER client, so the client
	// can mirror row ids and the counts repeat exactly.
	mixWrite
)

const (
	appendBatch = 16
	deleteBatch = 8
	updateBatch = 8
	evolveBatch = 64 // rows per DML batch of the discover stage
)

// stage sizes one of the three stages every run goes through. The op
// counts are fixed, not timed: two commits given one seed do identical work.
type serveStage struct {
	mix  mixKind
	rows int // per tenant
	reqs int // per client
	// round is the write mix's round length in requests per client; a
	// compaction separates one round from the next.
	round int
	// recovers is how often the crashed directory is recovered.
	recovers int
}

type repairStage struct {
	rows, reps int
}

type discoverStage struct {
	rows, fulls, batches int
}

// plan is one workload. The driver's contract wants every end-to-end metric
// from every run, so every workload goes through all three stages; its OWN
// stage has the size the workload is about, the other two are the small
// companions below, there only so that their metrics exist.
type plan struct {
	name, why string
	serve     serveStage
	repair    repairStage
	discover  discoverStage
}

// The companions: a short burst of the read mix on a small tenant (which
// yields check and write latencies, a log tail to recover and an exact WAL
// ratio in three to four seconds), and library stages on small instances. What a
// companion lacks in size it makes up in repetitions, which are cheap.
var (
	companionServe    = serveStage{mix: mixRead, rows: 25000, reqs: 30000, recovers: 9}
	companionRepair   = repairStage{rows: 30000, reps: 9}
	companionDiscover = discoverStage{rows: 10000, fulls: 5, batches: 100}
)

// The sizes of the workloads' own stages. The tenants and the traffic mixes
// are ISSUE 11's. The library instances and the op counts are what the time
// cap leaves of its sizes — 92 runs in 57 minutes is about 33 s of wall time
// a run, set-up, oracle and companions included — measured on the 2-core
// host the benchmark was calibrated on:
//
//   - repair: at 1M rows one rep (cold check, find-first, find-all over five
//     FDs) takes 17-22 s, the CSV load 6.8 s and the oracle's recount 6.9 s:
//     one unrepeated sample a run. 400k rows leave room for three reps.
//   - discover: at 250k rows one from-scratch discovery takes 15-17 s, and
//     the oracle's one-shot discovery as long again; at 100k rows it takes
//     3.6 s, so three of them, 300 batches and the oracle fit.
//   - serve: 150k (read) and 10k (write) requests per client are cut to what
//     runs for 12-15 s.
var plans = []plan{
	{
		name:   "serve-read",
		why:    "designer-facing reads beside a trickle of one-row inserts on one shared durable 250k-row tenant; time sits in HTTP, the session lock, the measure cache and JSON, with writers fsyncing under the lock",
		serve:  serveStage{mix: mixRead, rows: 250000, reqs: 150000, recovers: 3},
		repair: companionRepair, discover: companionDiscover,
	},
	{
		name:   "serve-write",
		why:    "ETL writers: batched append/delete/update with compactions on one durable 250k-row tenant per client, then crash and recovery; time sits in WAL+fsync, relation DML, folds and snapshots",
		serve:  serveStage{mix: mixWrite, rows: 250000, reqs: 4000, round: 1000, recovers: 3},
		repair: companionRepair, discover: companionDiscover,
	},
	{
		name:   "repair-lineitem",
		why:    "the paper's Table 5 quantity: cold check, find-first and find-all repair of five FDs on a 500k-row lineitem; time sits in partition builds, products and the search",
		serve:  companionServe,
		repair: repairStage{rows: 500000, reps: 3}, discover: companionDiscover,
	},
	{
		name:   "discover-evolve",
		why:    "full discovery on 100k rows, then 300 DML batches each followed by incremental re-discovery and suggestions: the only workload where the lattice search and stamp revalidation dominate",
		serve:  companionServe,
		repair: companionRepair, discover: discoverStage{rows: 100000, fulls: 3, batches: 300},
	},
}

func planByName(name string) (plan, error) {
	for _, p := range plans {
		if p.name == name {
			return p, nil
		}
	}
	return plan{}, fmt.Errorf("unknown workload %q", name)
}

// scale divides the plan's row counts and op counts: "smoke" is the test
// suite's version of every workload.
type scale struct {
	name string
	div  int
	// traceSlice is how long a traced run's serve stage stays in one mode
	// before it switches between tracing and not tracing.
	traceSlice time.Duration
}

var scales = map[string]scale{
	"full":  {name: "full", div: 1, traceSlice: 250 * time.Millisecond},
	"smoke": {name: "smoke", div: 50, traceSlice: 5 * time.Millisecond},
}

// sized applies the scale and the run's -seconds to a plan. Row counts
// depend on the scale only; op counts also grow and shrink with -seconds
// relative to defaultSeconds, at which a run measures for about that long.
func (p plan) sized(s scale, seconds float64) plan {
	rows := func(n, floor int) int { return max(n/s.div, floor) }
	count := func(n, floor int) int {
		return max(int(math.Round(float64(n)*seconds/defaultSeconds))/s.div, floor)
	}
	p.serve.rows = rows(p.serve.rows, 400)
	p.repair.rows = rows(p.repair.rows, 400)
	p.discover.rows = rows(p.discover.rows, 300)
	if p.serve.mix == mixWrite {
		// Whole rounds, at least two: one compaction, and a log tail behind it.
		p.serve.round = max(p.serve.round/s.div, 40)
		p.serve.reqs = max(count(p.serve.reqs, 0)/p.serve.round, 2) * p.serve.round
	} else {
		p.serve.reqs = count(p.serve.reqs, 2000)
	}
	p.serve.recovers = count(p.serve.recovers, 1)
	p.repair.reps = count(p.repair.reps, 1)
	p.discover.fulls = count(p.discover.fulls, 1)
	p.discover.batches = count(p.discover.batches, 10)
	return p
}

// metricDef declares one metric: BENCHMARK.json carries the same names,
// units and bounds, and a test keeps the two in step.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen; per-layer metrics have none.
	bound float64
}

// The bounds come from the A/A report (AA_REPORT.txt, `-aa 10`): a bound is
// about three times the quartile spread ten runs of one binary showed on
// the calibration host, and at most the contract's 0.25. On that shared
// 2-core sandbox every wall-clock metric spreads by 3-10% of its median in
// a quiet quarter of an hour and by up to 20% in a busy one — a
// memory-bound loop with no benchmark around it spreads by 7% — so every
// timing sits at 0.25; the heap (2-5%) and the exact WAL ratio (0.04%) are
// tighter. A check's p95 is a check that queued behind a writer's flush, a
// point on the steep part of the latency distribution: it spread by 32% in
// one set of the report and is a per-layer metric, serve.check_p95_ms.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.15},
	{"throughput_rps", "1/s", "higher", 0.25},
	{"check_p50_ms", "ms", "lower", 0.25},
	{"write_p50_ms", "ms", "lower", 0.25},
	{"write_p95_ms", "ms", "lower", 0.25},
	{"recover_s", "s", "lower", 0.25},
	{"wal_bytes_per_user_byte", "ratio", "lower", 0.01},
	{"check_cold_s", "s", "lower", 0.25},
	{"repair_first_s", "s", "lower", 0.25},
	{"repair_all_s", "s", "lower", 0.25},
	{"discover_full_s", "s", "lower", 0.25},
	{"discover_batch_p50_ms", "ms", "lower", 0.25},
}

var quadrants = []string{"dense-dense", "dense-sparse", "sparse-dense", "sparse-sparse"}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{name: "serve.net_us_p50", unit: "us", better: "lower"},
		{name: "serve.self_check_us_p50", unit: "us", better: "lower"},
		{name: "serve.self_write_us_p50", unit: "us", better: "lower"},
		{name: "serve.req_bytes_per_write", unit: "B", better: "lower"},
		{name: "serve.resp_bytes_per_check", unit: "B", better: "lower"},
		{name: "serve.check_p95_ms", unit: "ms", better: "lower"},
		{name: "serve.check_tail_ms", unit: "ms", better: "lower"},
		{name: "serve.write_tail_ms", unit: "ms", better: "lower"},

		{name: "evolvefd.check_clean_us_p50", unit: "us", better: "lower"},
		{name: "evolvefd.check_dirty_us_p50", unit: "us", better: "lower"},
		{name: "evolvefd.cache_reuse_ratio", unit: "ratio", better: "higher"},
		{name: "evolvefd.append_us_per_row", unit: "us", better: "lower"},
		{name: "evolvefd.delete_us_per_row", unit: "us", better: "lower"},
		{name: "evolvefd.update_us_per_row", unit: "us", better: "lower"},
		{name: "evolvefd.compact_ms", unit: "ms", better: "lower"},
		{name: "evolvefd.compactions", unit: "count", better: "lower"},
		{name: "evolvefd.open_session_ms", unit: "ms", better: "lower"},

		{name: "wal.fsyncs_per_write_req", unit: "count", better: "lower"},
		{name: "wal.writes_per_write_req", unit: "count", better: "lower"},
		{name: "wal.fsync_us_p50", unit: "us", better: "lower"},
		{name: "wal.write_us_p50", unit: "us", better: "lower"},
		{name: "wal.log_bytes_per_row", unit: "B", better: "lower"},
		{name: "wal.snapshot_bytes_per_row", unit: "B", better: "lower"},
		{name: "wal.snapshot_write_ms", unit: "ms", better: "lower"},
		{name: "wal.snapshot_read_ms", unit: "ms", better: "lower"},
		{name: "wal.replay_ops_per_s", unit: "1/s", better: "higher"},

		{name: "relation.csv_load_ns_per_row", unit: "ns", better: "lower"},
		{name: "relation.append_ns_per_row", unit: "ns", better: "lower"},
		{name: "relation.compact_ns_per_row", unit: "ns", better: "lower"},
		{name: "relation.storage_bytes_per_row", unit: "B", better: "lower"},

		{name: "pli.build_ns_per_row", unit: "ns", better: "lower"},
		{name: "pli.bytes_per_row", unit: "B", better: "lower"},
	}
	for _, kernel := range []string{"product", "count", "parallel"} {
		for _, q := range quadrants {
			defs = append(defs, metricDef{name: "pli." + kernel + "_ns_per_row." + q, unit: "ns", better: "lower"})
		}
	}
	return append(defs,
		metricDef{name: "pli.cache_builds", unit: "count", better: "lower"},
		metricDef{name: "pli.fold_us_per_batch", unit: "us", better: "lower"},

		metricDef{name: "core.order_us", unit: "us", better: "lower"},
		metricDef{name: "core.measure_hits", unit: "count", better: "higher"},
		metricDef{name: "core.measure_misses", unit: "count", better: "lower"},
		metricDef{name: "core.find_first_ms", unit: "ms", better: "lower"},
		metricDef{name: "core.find_all_ms", unit: "ms", better: "lower"},
		metricDef{name: "core.expanded", unit: "count", better: "lower"},
		metricDef{name: "core.evaluated", unit: "count", better: "lower"},
		metricDef{name: "core.repairs_found", unit: "count", better: "higher"},

		metricDef{name: "discovery.full_ms", unit: "ms", better: "lower"},
		metricDef{name: "discovery.checked", unit: "count", better: "lower"},
		metricDef{name: "discovery.pruned", unit: "count", better: "higher"},
		metricDef{name: "discovery.cover_size", unit: "count", better: "higher"},
		metricDef{name: "discovery.sync_us_p50", unit: "us", better: "lower"},
		metricDef{name: "discovery.probes_per_batch", unit: "count", better: "lower"},
		metricDef{name: "discovery.revalidated_per_batch", unit: "count", better: "lower"},
		metricDef{name: "discovery.batch_tail_ms", unit: "ms", better: "lower"},

		metricDef{name: "replica.bootstrap_ms", unit: "ms", better: "lower"},
		metricDef{name: "replica.catchup_ops_per_s", unit: "1/s", better: "higher"},
		metricDef{name: "replica.lag_bytes_max", unit: "B", better: "lower"},

		metricDef{name: "harness.trace_overhead_pct", unit: "%", better: "lower"},
		metricDef{name: "harness.error_rate", unit: "ratio", better: "lower"},
	)
}()
