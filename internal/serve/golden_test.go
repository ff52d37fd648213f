package serve

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden response files")

// goldenCSV is a fixed instance where F1 (A -> C) holds and F2 (A -> D) is
// violated, so every handler has deterministic, interesting output.
const goldenCSV = "A,B:int,C,D\nx,1,p,u\nx,2,p,v\ny,3,q,u\ny,4,q,v\nz,5,r,u\n"

// TestGoldenResponses replays a scripted request sequence covering every
// handler — happy paths and each error class — and compares the full
// status+body transcript against testdata/handlers.golden. Regenerate with
// go test ./internal/serve -run TestGolden -update.
func TestGoldenResponses(t *testing.T) {
	ts, _ := newTestServer(t, RegistryOptions{})
	client := ts.Client()
	url := func(path string) string { return ts.URL + path }

	createBody := jsonBody(t, CreateRequest{
		CSV: goldenCSV,
		FDs: []FDDef{{Label: "F1", Spec: "A -> C"}, {Label: "F2", Spec: "A -> D"}},
	})

	steps := []struct {
		name   string
		method string
		path   string
		body   string
	}{
		{"healthz-empty", "GET", "/healthz", ""},
		{"create", "POST", "/v1/g1", createBody},
		{"healthz", "GET", "/healthz", ""},
		{"tenants", "GET", "/v1/tenants", ""},
		{"stats", "GET", "/v1/g1", ""},
		{"check", "GET", "/v1/g1/check", ""},
		{"measures", "GET", "/v1/g1/measures?fd=F2", ""},
		{"repair", "POST", "/v1/g1/repair", jsonBody(t, RepairRequest{FD: "F2"})},
		{"accept", "POST", "/v1/g1/accept", jsonBody(t, AcceptRequest{FD: "F2", Added: []string{"B"}})},
		{"check-after-accept", "GET", "/v1/g1/check", ""},
		{"discover", "GET", "/v1/g1/discover?max_lhs=2", ""},
		{"discover-restricted", "GET", "/v1/g1/discover?max_lhs=1&consequents=C,D", ""},
		{"suggestions", "GET", "/v1/g1/suggestions", ""},
		{"append", "POST", "/v1/g1/append", jsonBody(t, AppendRequest{Rows: [][]string{{"w", "6", "s", "u"}}})},
		{"suggestions-after-append", "GET", "/v1/g1/suggestions", ""},
		{"update", "POST", "/v1/g1/update", jsonBody(t, UpdateRequest{Updates: []RowUpdate{{Row: 5, Cells: []string{"w", "6", "s", "w"}}}})},
		{"delete", "POST", "/v1/g1/delete", jsonBody(t, DeleteRequest{Rows: []int{5}})},
		{"compact", "POST", "/v1/g1/compact", ""},
		{"define", "POST", "/v1/g1/define", jsonBody(t, DefineRequest{Label: "F3", Spec: "C -> A"})},
		{"drop", "POST", "/v1/g1/drop", jsonBody(t, DropRequest{Label: "F3"})},
		{"flush", "POST", "/v1/g1/flush", ""},

		// Error classes, one per stable code.
		{"err-unknown-tenant", "GET", "/v1/nobody/check", ""},
		{"err-bad-tenant-name", "POST", "/v1/bad.name", createBody},
		{"err-tenant-exists", "POST", "/v1/g1", createBody},
		{"err-unknown-fd", "GET", "/v1/g1/measures?fd=NOPE", ""},
		{"err-missing-fd-param", "GET", "/v1/g1/measures", ""},
		{"err-duplicate-fd", "POST", "/v1/g1/define", jsonBody(t, DefineRequest{Label: "F1", Spec: "A -> C"})},
		{"err-bad-fd", "POST", "/v1/g1/define", jsonBody(t, DefineRequest{Label: "F9", Spec: "A -> Z"})},
		{"err-arity", "POST", "/v1/g1/append", jsonBody(t, AppendRequest{Rows: [][]string{{"only", "two"}}})},
		{"err-bad-value", "POST", "/v1/g1/append", jsonBody(t, AppendRequest{Rows: [][]string{{"x", "not-an-int", "p", "u"}}})},
		{"err-unknown-row", "POST", "/v1/g1/delete", jsonBody(t, DeleteRequest{Rows: []int{999}})},
		{"err-unknown-attribute", "POST", "/v1/g1/accept", jsonBody(t, AcceptRequest{FD: "F1", Added: []string{"Zap"}})},
		{"err-accept-consequent", "POST", "/v1/g1/accept", jsonBody(t, AcceptRequest{FD: "F1", Added: []string{"C"}})},
		{"err-bad-json", "POST", "/v1/g1/append", `{"rows": [`},
		{"err-unknown-field", "POST", "/v1/g1/append", `{"tuples": [["x","1","p","u"]]}`},
		{"err-trailing-json", "POST", "/v1/g1/append", `{"rows":[["x","1","p","u"]]} {"rows":[["BAD"]]} garbage`},
		{"err-bad-query", "GET", "/v1/g1/discover?max_lhs=banana", ""},
		{"err-negative-bound", "GET", "/v1/g1/discover?max_results=-5", ""},

		{"close", "DELETE", "/v1/g1", ""},
		{"err-after-close", "GET", "/v1/g1/check", ""},
	}

	var transcript bytes.Buffer
	for _, step := range steps {
		status, body := doReq(t, client, step.method, url(step.path), step.body)
		fmt.Fprintf(&transcript, "### %s\n%s %s\n%d\n%s\n", step.name, step.method, step.path, status, body)
	}

	goldenPath := filepath.Join("testdata", "handlers.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, transcript.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(transcript.Bytes(), want) {
		t.Fatalf("handler transcript diverged from golden file\n--- got ---\n%s\n--- want ---\n%s", transcript.Bytes(), want)
	}
}
