package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	evolvefd "github.com/evolvefd/evolvefd"
	"github.com/evolvefd/evolvefd/internal/serve"
)

// metrics maps a metric name to its value.
type metrics map[string]float64

// runConfig is one invocation of one workload. The plan is already sized
// for the scale and the run's -seconds.
type runConfig struct {
	plan     plan
	scale    scale
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	dataDir  string
}

// Generator seeds of the tables. They are constants: the run's seed spells
// the instances and drives the op streams, it does not redraw them (see
// gen.go).
const (
	tenantTableSeed   = 7001
	repairTableSeed   = 7101
	discoverTableSeed = 7201
)

// fixture is everything set-up builds.
type fixture struct {
	host    *host
	tenants []*tenant

	repairRel *evolvefd.Relation
	repairMir *mirror

	discoverRows  []row
	discoverCodec *codec
	discoverRel   *evolvefd.Relation
	discoverMir   *mirror

	csvLoadNsPerRow float64
}

// setUp generates the inputs, starts the service, uploads the tenants,
// loads the library instances and warms every tenant with one check, so the
// measured stages start with partitions built and caches filled.
func setUp(cfg runConfig, dir string, tr *tracer) (*fixture, error) {
	p := cfg.plan
	fx := &fixture{}
	nTenants := 1
	if p.serve.mix == mixWrite {
		nTenants = numClients()
	}
	for i := 0; i < nTenants; i++ {
		dom, rows := genTable(p.serve.rows, rand.New(rand.NewSource(tenantTableSeed+int64(i))))
		t := &tenant{name: fmt.Sprintf("t%d", i), codec: newCodec(dom, cfg.seed*100+int64(i)), initial: rows}
		if p.serve.mix == mixWrite {
			t.mir = newMirror(rows)
		}
		fx.tenants = append(fx.tenants, t)
	}
	h, err := startHost(dir, tr)
	if err != nil {
		return nil, err
	}
	fx.host = h
	for _, t := range fx.tenants {
		if err := createTenant(h, t); err != nil {
			h.stop()
			return nil, err
		}
		var body serve.CheckResponse
		if err := getJSON(h.url+"/v1/"+t.name+"/check", &body); err != nil {
			h.stop()
			return nil, err
		}
	}

	dom, repairRows := genTable(p.repair.rows, rand.New(rand.NewSource(repairTableSeed)))
	start := time.Now()
	fx.repairRel, err = loadRelation("lineitem", newCodec(dom, cfg.seed*100+50), repairRows)
	if err != nil {
		h.stop()
		return nil, err
	}
	fx.csvLoadNsPerRow = float64(time.Since(start)) / float64(len(repairRows))
	fx.repairMir = newMirror(repairRows)

	dom, fx.discoverRows = genTable(p.discover.rows, rand.New(rand.NewSource(discoverTableSeed)))
	fx.discoverCodec = newCodec(dom, cfg.seed*100+60)
	fx.discoverRel, err = loadRelation("lineitem", fx.discoverCodec, fx.discoverRows)
	if err != nil {
		h.stop()
		return nil, err
	}
	fx.discoverMir = newMirror(fx.discoverRows)
	return fx, nil
}

// runResult is one run's outcome.
type runResult struct {
	metrics metrics
	verdict verdict
	ledger  []ledgerRow
	notes   []string
}

// runWorkload runs one workload end to end: set-up, the serve stage, crash
// and recovery, the repair stage, the discover stage, and — in a traced run
// — the twin replays and probes.
func runWorkload(cfg runConfig) (*runResult, error) {
	res := &runResult{metrics: metrics{}}
	m := res.metrics
	v := &res.verdict
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.dataDir)

	lapStart, laps := time.Now(), ""
	lap := func(stage string) {
		laps += fmt.Sprintf(" %s %.1fs", stage, time.Since(lapStart).Seconds())
		lapStart = time.Now()
	}

	// Set-up, once: at these sizes a second pass would cost the rows of
	// the stage the workload is about.
	start := time.Now()
	fx, err := setUp(cfg, filepath.Join(cfg.dataDir, "tenants"), tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	m["setup_s"] = time.Since(start).Seconds()
	m["relation.csv_load_ns_per_row"] = fx.csvLoadNsPerRow
	h := fx.host
	stopHost := func() {
		if h != nil {
			h.stop()
			h = nil
		}
	}
	defer stopHost()

	lap("set-up")

	// Serve stage.
	runtime.GC()
	sv := runServe(h, cfg.plan.serve, fx.tenants, cfg.seed, tr, cfg.scale.traceSlice)
	for _, c := range sv.clients {
		v.add(c.attempted, c.failed, c.firstErr)
	}
	isCheck := func(k opKind) bool { return k == opCheck }
	isAppend := func(k opKind) bool { return k == opAppend }
	// "Write" is the append request, the one write kind both mixes send,
	// in batches of one size per mix: a single mode, where all DML kinds
	// together would mix 16-row and 8-row batches.
	checks, writes := sv.latenciesMs(isCheck), sv.latenciesMs(isAppend)
	if len(checks) == 0 || len(writes) == 0 {
		return nil, fmt.Errorf("serve stage completed %d checks and %d writes", len(checks), len(writes))
	}
	m["throughput_rps"] = float64(len(sv.samples)) / sv.wall.Seconds()
	m["check_p50_ms"] = percentile(checks, 50)
	m["serve.check_p95_ms"] = percentile(checks, 95)
	m["write_p50_ms"] = percentile(writes, 50)
	m["write_p95_ms"] = percentile(writes, 95)
	m["wal_bytes_per_user_byte"] = sv.walRatio
	checkTail, writeTail := tailPercentile(len(checks)), tailPercentile(len(writes))
	m["serve.check_tail_ms"] = percentile(checks, checkTail)
	m["serve.write_tail_ms"] = percentile(writes, writeTail)
	res.notes = append(res.notes,
		fmt.Sprintf("serve: %d requests in %.2fs by %d closed-loop clients; check n=%d (tail p%g), write n=%d (tail p%g)",
			len(sv.samples), sv.wall.Seconds(), len(sv.clients), len(checks), checkTail, len(writes), writeTail))
	var compactions uint64
	for _, t := range fx.tenants {
		var st serve.StatsResponse
		if err := getJSON(h.url+"/v1/"+t.name, &st); err != nil {
			return nil, err
		}
		compactions += st.Mem.Compactions
	}
	m["evolvefd.compactions"] = float64(compactions)

	lap("serve")

	// Crash, then recovery passes; the last recovered host stays up.
	lost, err := h.crash()
	if err != nil {
		return nil, fmt.Errorf("crash: %w", err)
	}
	dir := h.dir
	h, fx.host = nil, nil // the crashed registry is garbage from here on
	var recovers []float64
	for pass := 0; pass < cfg.plan.serve.recovers; pass++ {
		stopHost()
		var d time.Duration
		h, d, err = recoverOnce(dir, fx.tenants, tr)
		if err != nil {
			return nil, fmt.Errorf("recovery pass %d: %w", pass, err)
		}
		recovers = append(recovers, d.Seconds())
	}
	m["recover_s"] = median(recovers)
	lap("recover")
	verifyTenants(h, fx.tenants, v)
	lap("verify")
	res.notes = append(res.notes, fmt.Sprintf("crash: %d unsynced bytes cut; %d recovery passes", lost, len(recovers)))

	// Repair stage.
	rp, err := runRepair(fx.repairRel, cfg.plan.repair.reps, tr)
	if err != nil {
		return nil, fmt.Errorf("repair stage: %w", err)
	}
	m["check_cold_s"] = median(rp.checkCold)
	m["repair_first_s"] = median(rp.first)
	m["repair_all_s"] = median(rp.all)
	lap("repair")
	verifyRepair(rp, fx.repairMir, v)
	lap("verify")
	res.notes = append(res.notes, fmt.Sprintf("repair: %d reps on %d rows, %d violated FDs", len(rp.checkCold), cfg.plan.repair.rows, len(rp.violated)))

	// Discover stage.
	dc, err := runDiscover(fx.discoverRel, fx.discoverMir, fx.discoverCodec, cfg.plan.discover, cfg.seed+1, tr)
	if err != nil {
		return nil, fmt.Errorf("discover stage: %w", err)
	}
	m["discover_full_s"] = median(dc.full)
	batches := sortedCopy(dc.batchMs)
	m["discover_batch_p50_ms"] = percentile(batches, 50)
	batchTail := tailPercentile(len(batches))
	m["discovery.batch_tail_ms"] = percentile(batches, batchTail)
	m["discovery.sync_us_p50"] = median(dc.syncUs)
	m["discovery.probes_per_batch"] = float64(dc.stats.Probes) / float64(max(dc.stats.Batches, 1))
	m["discovery.revalidated_per_batch"] = float64(dc.stats.Revalidated) / float64(max(dc.stats.Batches, 1))
	lap("discover")
	verifyDiscover(dc, fx.discoverMir, v)
	lap("verify")
	res.notes = append(res.notes, fmt.Sprintf("discover: %d full passes on %d rows, %d batches of %d rows (tail p%g), cover %d",
		len(dc.full), cfg.plan.discover.rows, len(batches), evolveBatch, batchTail, len(dc.cover)))

	// Everything a deployment would hold is still referenced here: the
	// recovered tenants, the last repair session, the evolved session.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["live_heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	res.notes = append(res.notes, "wall:"+laps)
	runtime.KeepAlive(rp)
	runtime.KeepAlive(dc)

	if cfg.trace {
		// The probes on the durable directory need the service stopped:
		// they open the tenant's log themselves.
		tenantDir := h.tenantDir(fx.tenants[0].name)
		stopHost()
		if err := layerMetrics(cfg, res, tr, sv, fx, tenantDir); err != nil {
			return nil, err
		}
	}
	m["harness.error_rate"] = float64(v.failed) / float64(max(v.attempted, 1))
	return res, nil
}

// layerMetrics is the traced run's second half: what the spans say about
// serve and wal, the twin replays of tenant t0's op log, the direct probes
// of the lower layers, and the ledger that puts them side by side.
func layerMetrics(cfg runConfig, res *runResult, tr *tracer, sv *serveResult, fx *fixture, tenantDir string) error {
	m, v := res.metrics, &res.verdict
	spans := tr.snapshot()
	if cfg.traceOut != "" {
		if err := writeSpans(cfg.traceOut, spans); err != nil {
			return err
		}
	}
	untraced, traced := sv.throughputBy(false), sv.throughputBy(true)
	m["harness.trace_overhead_pct"] = 100 * (1 - traced/untraced)
	a := analyseSpans(spans)
	if len(a.requests) == 0 {
		return fmt.Errorf("traced run recorded no requests")
	}
	all := func(request) bool { return true }
	m["serve.net_us_p50"] = median(a.collect(all, func(r request) float64 { return r.clientUs - r.handlerUs }))
	// Appends are the one write kind both mixes send, always in batches of
	// one size, so these three are exact quantities of the mix.
	appends := a.collect(isOp("append"), func(r request) float64 { return float64(r.rows) })
	if len(appends) == 0 {
		return fmt.Errorf("the traced slices of the serve stage saw no append request")
	}
	n := float64(len(appends))
	m["wal.fsyncs_per_write_req"] = sum(a.collect(isOp("append"), func(r request) float64 { return float64(r.fsyncs) })) / n
	m["wal.writes_per_write_req"] = sum(a.collect(isOp("append"), func(r request) float64 { return float64(r.writes) })) / n
	m["wal.log_bytes_per_row"] = sum(a.collect(isOp("append"), func(r request) float64 { return float64(r.walBytes) })) / sum(appends)
	m["wal.fsync_us_p50"] = median(a.fsyncUs)
	m["wal.write_us_p50"] = median(a.writeUs)
	var reqBytes, reqCount, respBytes, respCount int64
	for _, c := range sv.clients {
		for k := opKind(0); k < numOpKinds; k++ {
			if k.isDML() {
				reqBytes += c.reqBytes[k]
			}
		}
		respBytes += c.respBytes[opCheck]
	}
	for _, s := range sv.samples {
		if s.kind.isDML() {
			reqCount++
		} else if s.kind == opCheck {
			respCount++
		}
	}
	m["serve.req_bytes_per_write"] = float64(reqBytes) / float64(reqCount)
	m["serve.resp_bytes_per_check"] = float64(respBytes) / float64(respCount)

	t0 := fx.tenants[0]
	var logs [][]loggedOp
	for _, c := range sv.clients {
		if c.t == t0 {
			logs = append(logs, c.log)
		}
	}
	ops := twinOps(t0, logs, cfg.seed+2)
	tw := &twins{}
	var err error
	if tw.session, err = replaySession(t0, ops); err != nil {
		return fmt.Errorf("session twin: %w", err)
	}
	if tw.counter, err = replayCounter(t0, ops); err != nil {
		return fmt.Errorf("counter twin: %w", err)
	}
	if tw.relation, err = replayRelation(t0, ops); err != nil {
		return fmt.Errorf("relation twin: %w", err)
	}
	m["evolvefd.check_clean_us_p50"] = median(tw.session.checkClean)
	m["evolvefd.check_dirty_us_p50"] = median(tw.session.checkDirty)
	m["evolvefd.cache_reuse_ratio"] = float64(tw.session.reused) / float64(max(tw.session.reused+tw.session.recomputed, 1))
	m["evolvefd.append_us_per_row"] = median(tw.session.perRow[opAppend])
	m["evolvefd.delete_us_per_row"] = median(tw.session.perRow[opDelete])
	m["evolvefd.update_us_per_row"] = median(tw.session.perRow[opUpdate])
	m["evolvefd.compact_ms"] = median(tw.session.perOp[opCompact]) / 1e3
	m["relation.append_ns_per_row"] = median(tw.relation.appendNsPerRow)
	m["relation.compact_ns_per_row"] = median(tw.relation.compactNsPerRow)
	m["relation.storage_bytes_per_row"] = tw.relation.storagePerRow
	m["pli.fold_us_per_batch"] = median(tw.counter.foldUs)
	m["core.order_us"] = median(tw.counter.orderUs)
	m["core.measure_hits"] = float64(tw.counter.hits)
	m["core.measure_misses"] = float64(tw.counter.misses)

	res.ledger = buildLedger(a, tw)
	// serve's self time: the handler span minus the wal spans under it,
	// minus what the engine twin needed for the same op.
	handlerSelf := func(r request) float64 { return r.handlerSelfUs }
	m["serve.self_check_us_p50"] = max(median(a.collect(isOp("check"), handlerSelf))-median(tw.session.perOp[opCheck]), 0)
	m["serve.self_write_us_p50"] = max(median(a.collect(isOp("append"), handlerSelf))-median(tw.session.perOp[opAppend]), 0)

	probePLI(fx.repairRel, m, v)
	if err := probeCore(fx.repairRel, m); err != nil {
		return fmt.Errorf("core probe: %w", err)
	}
	fresh, err := loadRelation("lineitem", fx.discoverCodec, fx.discoverRows)
	if err != nil {
		return err
	}
	probeDiscovery(fresh, m)
	if err := probeDurable(tenantDir, filepath.Join(cfg.dataDir, "probe"), m); err != nil {
		return fmt.Errorf("durable probe: %w", err)
	}
	return nil
}
