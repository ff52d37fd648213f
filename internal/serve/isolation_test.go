package serve

import (
	"fmt"
	"math/rand"
	"net/http"
	"testing"

	evolvefd "github.com/evolvefd/evolvefd"
)

// TestTenantIsolationProperty is the isolation property test: random DML
// against three tenants interleaved in one request stream (a master RNG
// picks the tenant at every step), with a single-tenant library twin per
// tenant replaying only that tenant's ops. If any tenant's state leaked
// into another's, the final Suggestions, MemStats and Generation could not
// all equal the twins'.
func TestTenantIsolationProperty(t *testing.T) {
	ts, _ := newTestServer(t, RegistryOptions{})
	client := ts.Client()
	const (
		tenants     = 3
		initialRows = 10
		steps       = 150
	)

	type tenantState struct {
		name string
		base string
		twin *evolvefd.Session
		rt   *rowTracker
		rng  *rand.Rand
	}
	states := make([]*tenantState, tenants)
	for i := range states {
		name := fmt.Sprintf("iso%d", i)
		seed := int64(4000 + 17*i)
		csvRng := rand.New(rand.NewSource(seed))
		create := CreateRequest{CSV: workloadCSV(csvRng, initialRows), FDs: workloadFDs}
		base := ts.URL + "/v1/" + name
		mustReq(t, client, "POST", base, jsonBody(t, create), http.StatusCreated)
		states[i] = &tenantState{
			name: name,
			base: base,
			twin: libraryTwin(t, name, seed, initialRows),
			rt:   newRowTracker(initialRows),
			rng:  rand.New(rand.NewSource(seed * 31)),
		}
		defer states[i].twin.Close()
	}

	master := rand.New(rand.NewSource(99))
	for step := 0; step < steps; step++ {
		st := states[master.Intn(tenants)]
		applyRandomOp(t, client, st.base, st.twin, st.rt, st.rng)
	}

	// Final-state property: per tenant, Suggestions diff, Generation and the
	// full MemStats must equal the single-tenant twin's, byte for byte.
	for _, st := range states {
		body := mustReq(t, client, "GET", st.base+"/suggestions", "", http.StatusOK)
		suggestions, err := st.twin.Suggestions()
		if err != nil {
			t.Fatalf("twin %s suggestions: %v", st.name, err)
		}
		assertSameBody(t, st.name+" suggestions", body, SuggestionsResponse{Suggestions: suggestions})

		body = mustReq(t, client, "GET", st.base, "", http.StatusOK)
		assertSameBody(t, st.name+" stats", body, buildStats(st.name, false, st.twin))
	}
}
