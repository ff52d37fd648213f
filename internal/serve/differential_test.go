package serve

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	evolvefd "github.com/evolvefd/evolvefd"
)

// TestDifferentialHTTPvsLibrary is the end-to-end differential suite: the
// same deterministic workload replayed through the HTTP API and through
// direct library calls on a twin session, with every read endpoint's
// response bytes asserted bit-identical to the twin's state. Four tenants
// run concurrently against one server (t.Parallel subtests), so under
// -race this also exercises the per-session RWMutex through the full HTTP
// stack.
func TestDifferentialHTTPvsLibrary(t *testing.T) {
	ts, _ := newTestServer(t, RegistryOptions{})
	for i := 0; i < 4; i++ {
		name, seed := fmt.Sprintf("tenant%d", i), int64(1000+i)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			runDifferentialWorkload(t, ts, name, seed, false)
		})
	}
}

// TestDifferentialDurable replays one differential workload against a
// durable registry: the HTTP session write-ahead logs every mutation while
// the in-memory twin does not, and the observable state must still match
// byte for byte.
func TestDifferentialDurable(t *testing.T) {
	ts, _ := newTestServer(t, RegistryOptions{
		DataDir:    t.TempDir(),
		Durability: evolvefd.DurabilityOptions{NoFsync: true},
	})
	runDifferentialWorkload(t, ts, "walled", 7, true)
}

func runDifferentialWorkload(t *testing.T, ts *httptest.Server, name string, seed int64, durable bool) {
	t.Helper()
	const initialRows = 12
	client := ts.Client()
	base := ts.URL + "/v1/" + name

	csvRng := rand.New(rand.NewSource(seed))
	create := CreateRequest{CSV: workloadCSV(csvRng, initialRows), FDs: workloadFDs}
	body := mustReq(t, client, "POST", base, jsonBody(t, create), http.StatusCreated)
	assertSameBody(t, "create", body, CreateResponse{
		Tenant: name, Rows: initialRows, FDs: len(workloadFDs), Durable: durable,
	})

	twin := libraryTwin(t, name, seed, initialRows)
	defer twin.Close()
	rt := newRowTracker(initialRows)
	rng := rand.New(rand.NewSource(seed * 31))

	for step := 0; step < 60; step++ {
		applyRandomOp(t, client, base, twin, rt, rng)
		if step%10 == 9 {
			compareAll(t, client, base, name, durable, twin)
		}
	}

	// Evolve the dependency set the designer way: repair the top-ranked
	// violation and accept its best suggestion on both sides.
	if violations := twin.Check(); len(violations) > 0 {
		label := violations[0].Label
		body := mustReq(t, client, "POST", base+"/repair", jsonBody(t, RepairRequest{FD: label}), http.StatusOK)
		suggestions, err := twin.Repair(label, evolvefd.Options{})
		if err != nil {
			t.Fatalf("twin repair %s: %v", label, err)
		}
		assertSameBody(t, "repair", body, RepairResponse{Label: label, Suggestions: suggestions})
		if len(suggestions) > 0 {
			accept := AcceptRequest{FD: label, Added: suggestions[0].Added}
			body = mustReq(t, client, "POST", base+"/accept", jsonBody(t, accept), http.StatusOK)
			if err := twin.Accept(label, suggestions[0]); err != nil {
				t.Fatalf("twin accept %s: %v", label, err)
			}
			text, err := twin.FDText(label)
			if err != nil {
				t.Fatalf("twin FDText %s: %v", label, err)
			}
			assertSameBody(t, "accept", body, AcceptResponse{Label: label, FD: text})
		}
	}
	compareAll(t, client, base, name, durable, twin)
}

// applyRandomOp draws one DML op and applies it through both stacks,
// asserting the HTTP acknowledgement against twin state.
func applyRandomOp(t *testing.T, client *http.Client, base string, twin *evolvefd.Session, rt *rowTracker, rng *rand.Rand) {
	t.Helper()
	switch p := rng.Intn(100); {
	case p < 45: // append a batch
		n := 1 + rng.Intn(4)
		rows := make([][]string, n)
		for i := range rows {
			rows[i] = randomCells(rng)
		}
		body := mustReq(t, client, "POST", base+"/append", jsonBody(t, AppendRequest{Rows: rows}), http.StatusOK)
		for _, cells := range rows {
			if err := twin.AppendStrings(cells...); err != nil {
				t.Fatalf("twin append: %v", err)
			}
		}
		rt.append(n)
		assertSameBody(t, "append", body, AppendResponse{Appended: n, LiveRows: twin.LiveRows()})
	case p < 60: // delete one live row
		if len(rt.live) < 6 {
			return
		}
		idx, row := rt.pick(rng)
		body := mustReq(t, client, "POST", base+"/delete", jsonBody(t, DeleteRequest{Rows: []int{row}}), http.StatusOK)
		if err := twin.Delete(row); err != nil {
			t.Fatalf("twin delete %d: %v", row, err)
		}
		rt.delete(idx)
		assertSameBody(t, "delete", body, DeleteResponse{Deleted: 1, LiveRows: twin.LiveRows()})
	case p < 80: // correct one live row in place
		if len(rt.live) == 0 {
			return
		}
		_, row := rt.pick(rng)
		cells := randomCells(rng)
		update := UpdateRequest{Updates: []RowUpdate{{Row: row, Cells: cells}}}
		body := mustReq(t, client, "POST", base+"/update", jsonBody(t, update), http.StatusOK)
		if err := twin.UpdateStrings(row, cells...); err != nil {
			t.Fatalf("twin update %d: %v", row, err)
		}
		assertSameBody(t, "update", body, UpdateResponse{Updated: 1})
	case p < 92: // point read: measures of a defined FD
		label := workloadFDs[rng.Intn(len(workloadFDs))].Label
		m, err := twin.Measures(label)
		if err != nil {
			t.Fatalf("twin measures %s: %v", label, err)
		}
		text, err := twin.FDText(label)
		if err != nil {
			t.Fatalf("twin FDText %s: %v", label, err)
		}
		body := mustReq(t, client, "GET", base+"/measures?fd="+label, "", http.StatusOK)
		assertSameBody(t, "measures", body, MeasuresResponse{Label: label, FD: text, Measures: m})
	default: // compact
		body := mustReq(t, client, "POST", base+"/compact", "", http.StatusOK)
		st := twin.Compact()
		rt.compacted()
		assertSameBody(t, "compact", body, st)
	}
}

// compareAll asserts every read endpoint against the twin, byte for byte.
func compareAll(t *testing.T, client *http.Client, base, name string, durable bool, twin *evolvefd.Session) {
	t.Helper()
	body := mustReq(t, client, "GET", base+"/check", "", http.StatusOK)
	violations := twin.Check()
	assertSameBody(t, "check", body, CheckResponse{Consistent: len(violations) == 0, Violations: violations})

	for _, label := range twin.Labels() {
		m, err := twin.Measures(label)
		if err != nil {
			t.Fatalf("twin measures %s: %v", label, err)
		}
		text, err := twin.FDText(label)
		if err != nil {
			t.Fatalf("twin FDText %s: %v", label, err)
		}
		body = mustReq(t, client, "GET", base+"/measures?fd="+label, "", http.StatusOK)
		assertSameBody(t, "measures "+label, body, MeasuresResponse{Label: label, FD: text, Measures: m})
	}

	body = mustReq(t, client, "GET", base+"/discover?max_lhs=2", "", http.StatusOK)
	found, err := twin.Discover(evolvefd.DiscoveryOptions{MaxLHS: 2})
	if err != nil {
		t.Fatalf("twin discover: %v", err)
	}
	assertSameBody(t, "discover", body, DiscoverResponse{Cover: found})

	body = mustReq(t, client, "GET", base+"/suggestions", "", http.StatusOK)
	suggestions, err := twin.Suggestions()
	if err != nil {
		t.Fatalf("twin suggestions: %v", err)
	}
	assertSameBody(t, "suggestions", body, SuggestionsResponse{Suggestions: suggestions})

	body = mustReq(t, client, "GET", base, "", http.StatusOK)
	assertSameBody(t, "stats", body, buildStats(name, durable, twin))
}
