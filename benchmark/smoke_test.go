package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

func smokeConfig(t *testing.T, p plan, trace bool) runConfig {
	sc := scales["smoke"]
	return runConfig{
		plan: p.sized(sc, defaultSeconds), scale: sc, seed: 11, seconds: defaultSeconds,
		trace: trace, dataDir: filepath.Join(t.TempDir(), "data"),
	}
}

// TestSmokeEveryWorkload runs all four workloads at the smoke scale, once
// untraced and once traced, and holds each result line to the contract:
// every declared metric present, finite and non-zero where it is gated, no
// failed operation, and exactly the four keys.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, p := range plans {
		for _, trace := range []bool{false, true} {
			cfg := smokeConfig(t, p, trace)
			if trace {
				cfg.traceOut = filepath.Join(t.TempDir(), "spans.jsonl")
			}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", p.name, trace, err)
			}
			if res.verdict.failed != 0 || res.verdict.attempted == 0 {
				t.Fatalf("%s trace=%v: %d of %d operations failed: %v",
					p.name, trace, res.verdict.failed, res.verdict.attempted, res.verdict.messages)
			}
			var out bytes.Buffer
			line, err := report(&out, cfg, res)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", p.name, trace, err)
			}
			var fields map[string]json.RawMessage
			if err := json.Unmarshal([]byte(line), &fields); err != nil || len(fields) != 4 {
				t.Fatalf("%s: result line has %d keys (%v): %s", p.name, len(fields), err, line)
			}
			var parsed resultLine
			if err := json.Unmarshal([]byte(line), &parsed); err != nil {
				t.Fatal(err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if !parsed.Correct || len(parsed.Metrics) != len(defs) {
				t.Fatalf("%s trace=%v: correct=%v with %d metrics, want %d", p.name, trace, parsed.Correct, len(parsed.Metrics), len(defs))
			}
			for _, d := range defs {
				mv, ok := parsed.Metrics[d.name]
				if !ok || mv.Unit != d.unit || math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", p.name, trace, d.name, mv, ok)
				}
				if !trace && mv.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g; a gated metric must never be 0", p.name, d.name, mv.Value)
				}
			}
			if !strings.Contains(out.String(), "env: cores=") {
				t.Errorf("%s: report lacks the env block", p.name)
			}
			if trace {
				if !strings.Contains(out.String(), "per-op ledger") || len(res.ledger) == 0 {
					t.Errorf("%s: traced run printed no ledger", p.name)
				}
				// Exact counts of the mix: one WAL record, one fsync per row.
				rows := float64(appendBatch)
				if p.serve.mix == mixRead {
					rows = 1
				}
				for _, name := range []string{"wal.fsyncs_per_write_req", "wal.writes_per_write_req"} {
					if got := res.metrics[name]; got != rows {
						t.Errorf("%s: %s = %g, want %g", p.name, name, got, rows)
					}
				}
			}
		}
	}
}

// TestExactCountsRepeat reruns one seed and expects the counts the program
// makes — not the times — to come out identical.
func TestExactCountsRepeat(t *testing.T) {
	p := plans[1] // serve-write: rounds, compactions, exact I/O per user byte
	exact := []string{"wal_bytes_per_user_byte", "wal.fsyncs_per_write_req", "core.expanded",
		"core.evaluated", "core.repairs_found", "discovery.checked", "discovery.cover_size", "pli.cache_builds"}
	var first metrics
	for i := 0; i < 2; i++ {
		res, err := runWorkload(smokeConfig(t, p, true))
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res.metrics
			continue
		}
		for _, name := range exact {
			if res.metrics[name] != first[name] || first[name] == 0 {
				t.Errorf("%s: %v then %v", name, first[name], res.metrics[name])
			}
		}
	}
}

// TestCorruptedExpectationFailsTheRun proves the oracle has teeth: with one
// expected value corrupted, the failure count — and so error_rate, the
// result line's correct flag and the exit code — goes non-zero.
func TestCorruptedExpectationFailsTheRun(t *testing.T) {
	dom, rows := genTable(1500, rand.New(rand.NewSource(21)))
	cd := newCodec(dom, 22)
	rel, err := loadRelation("lineitem", cd, rows)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := runRepair(rel, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var clean verdict
	verifyRepair(rp, newMirror(rows), &clean)
	if clean.failed != 0 || clean.attempted < 10 {
		t.Fatalf("clean oracle: %d of %d failed: %v", clean.failed, clean.attempted, clean.messages)
	}

	// One mirror cell off: F5's consequent in one row. l_returnflag ->
	// l_linestatus is violated on the true data, so its repairs are checked;
	// give two rows that agree on everything the same flag and opposite
	// statuses and no antecedent extension can be exact any more.
	bad := newMirror(rows)
	twin := bad.rows[0]
	twin[colLinestatus] = 1 - twin[colLinestatus]
	bad.append(twin)
	var broken verdict
	verifyRepair(rp, bad, &broken)
	if broken.failed == 0 {
		t.Fatal("a corrupted expected value went unnoticed")
	}

	res := &runResult{metrics: metrics{}, verdict: broken}
	for _, d := range endToEnd {
		res.metrics[d.name] = 1
	}
	line, err := report(&bytes.Buffer{}, smokeConfig(t, plans[0], false), res)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, `"correct":false`) || strings.Contains(line, `"failed":0`) {
		t.Errorf("result line hides the failure: %s", line)
	}

	// The same corruption on the discover side: a cover FD the mirror says
	// is broken.
	drel, err := loadRelation("lineitem", cd, rows)
	if err != nil {
		t.Fatal(err)
	}
	dmir := newMirror(rows)
	dc, err := runDiscover(drel, dmir, cd, discoverStage{fulls: 1, batches: 3}, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	var dclean verdict
	verifyDiscover(dc, dmir, &dclean)
	if dclean.failed != 0 || len(dc.cover) == 0 {
		t.Fatalf("clean discover oracle: %d failed, cover %d: %v", dclean.failed, len(dc.cover), dclean.messages)
	}
	_, y := parseSpec(dc.cover[0].Spec)
	twin = dmir.rows[dmir.live[0]]
	twin[y]++
	dmir.append(twin)
	var dbroken verdict
	verifyDiscover(dc, dmir, &dbroken)
	if dbroken.failed == 0 {
		t.Fatal("a cover FD broken in the mirror went unnoticed")
	}
}

// TestCrashDropsUnackedBytesOnly drives a tiny write-mix serve stage, lets
// the crash cut the files, and checks that recovery serves exactly the
// acknowledged state — and that a write the crash DID lose is noticed.
func TestCrashDropsUnackedBytesOnly(t *testing.T) {
	cfg := smokeConfig(t, plans[1], false)
	fx, err := setUp(cfg, cfg.dataDir, nil)
	if err != nil {
		t.Fatal(err)
	}
	h := fx.host
	runServe(h, cfg.plan.serve, fx.tenants, 3, nil, cfg.scale.traceSlice)
	if _, err := h.crash(); err != nil {
		t.Fatal(err)
	}
	h2, _, err := recoverOnce(cfg.dataDir, fx.tenants, nil)
	if err != nil {
		t.Fatal(err)
	}
	var v verdict
	verifyTenants(h2, fx.tenants, &v)
	if v.failed != 0 {
		t.Fatalf("recovered state differs from the acknowledged writes: %v", v.messages)
	}
	// An acknowledged batch that is NOT on disk: the mirror has it, the
	// recovered tenant cannot.
	for i := 0; i < appendBatch; i++ {
		fx.tenants[0].mir.append(fx.tenants[0].codec.fresh(rand.New(rand.NewSource(int64(i)))))
	}
	var lostAck verdict
	verifyTenants(h2, fx.tenants, &lostAck)
	h2.stop()
	if lostAck.failed == 0 {
		t.Fatal("a lost acknowledged batch went unnoticed")
	}
}
