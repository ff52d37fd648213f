package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	evolvefd "github.com/evolvefd/evolvefd"
)

// TestBatchAllOrNothing puts one bad row at each position k of a 4-row
// append batch and a 4-row update batch. The good rows would break F1, so a
// leaked prefix would show everywhere. Each request must fail with its typed
// error and change nothing: the tenant's stats (generation, live rows,
// footprint), its check body and its log size stay put, and its feed
// publishes no event. A final good append must then produce the feed's first
// event.
func TestBatchAllOrNothing(t *testing.T) {
	dataDir := t.TempDir()
	ts, _ := newTestServer(t, RegistryOptions{
		DataDir:    dataDir,
		Durability: evolvefd.DurabilityOptions{NoFsync: true},
	})
	client := ts.Client()
	base := ts.URL + "/v1/batchy"
	const csv = "A,B:int,C,D\nx,1,p,u\nx,2,p,v\ny,3,q,u\ny,4,q,v\nz,5,r,u\n"
	create := CreateRequest{CSV: csv, FDs: []FDDef{{Label: "F1", Spec: "A -> C"}, {Label: "F2", Spec: "B -> D"}}}
	mustReq(t, client, "POST", base, jsonBody(t, create), http.StatusCreated)
	mustReq(t, client, "POST", base+"/delete", jsonBody(t, DeleteRequest{Rows: []int{4}}), http.StatusOK)
	mustReq(t, client, "GET", base+"/suggestions", "", http.StatusOK) // seed the advisor baseline

	resp, err := client.Get(base + "/feed")
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer resp.Body.Close()
	events := make(chan sseEvent, 64)
	go readSSE(bufio.NewScanner(resp.Body), events)
	if hello := nextEvent(t, events); hello.event != "hello" {
		t.Fatalf("first event = %q, want hello", hello.event)
	}

	logBytes := func() int64 {
		paths, err := filepath.Glob(filepath.Join(dataDir, "batchy", "wal-*.log"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("tenant logs: %v, %d files", err, len(paths))
		}
		var n int64
		for _, p := range paths {
			fi, err := os.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			n += fi.Size()
		}
		return n
	}
	stats := mustReq(t, client, "GET", base, "", http.StatusOK)
	check := mustReq(t, client, "GET", base+"/check", "", http.StatusOK)
	size := logBytes()

	good := []string{"x", "9", "s", "w"} // A=x now maps to both p and s: F1 breaks
	badRows := []struct {
		cells  []string
		status int
		code   string
	}{
		{[]string{"short"}, http.StatusBadRequest, "arity_mismatch"},
		{[]string{"x", "nine", "s", "w"}, http.StatusBadRequest, "bad_value"},
	}
	badUpdates := []struct {
		update RowUpdate
		status int
		code   string
	}{
		{RowUpdate{Row: 999, Cells: good}, http.StatusNotFound, "unknown_row"},
		{RowUpdate{Row: 4, Cells: good}, http.StatusNotFound, "unknown_row"}, // deleted above
		{RowUpdate{Row: 0, Cells: []string{"x", "nine", "s", "w"}}, http.StatusBadRequest, "bad_value"},
	}
	for k := 0; k < 4; k++ {
		rows := [][]string{good, good, good, good}
		bad := badRows[k%len(badRows)]
		rows[k] = bad.cells
		expectRefused(t, client, fmt.Sprintf("append, bad row %d", k), base+"/append",
			jsonBody(t, AppendRequest{Rows: rows}), bad.status, bad.code)

		updates := make([]RowUpdate, 4)
		for i := range updates {
			updates[i] = RowUpdate{Row: i, Cells: good}
		}
		badU := badUpdates[k%len(badUpdates)]
		updates[k] = badU.update
		expectRefused(t, client, fmt.Sprintf("update, bad row %d", k), base+"/update",
			jsonBody(t, UpdateRequest{Updates: updates}), badU.status, badU.code)

		if got := mustReq(t, client, "GET", base, "", http.StatusOK); !bytes.Equal(got, stats) {
			t.Fatalf("k=%d: refused batches changed the stats:\n got %s\nwant %s", k, got, stats)
		}
		if got := mustReq(t, client, "GET", base+"/check", "", http.StatusOK); !bytes.Equal(got, check) {
			t.Fatalf("k=%d: refused batches changed check:\n got %s\nwant %s", k, got, check)
		}
		if got := logBytes(); got != size {
			t.Fatalf("k=%d: refused batches grew the log from %d to %d bytes", k, size, got)
		}
	}

	mustReq(t, client, "POST", base+"/append", jsonBody(t, AppendRequest{Rows: [][]string{good}}), http.StatusOK)
	// The good append's diff is the feed's first checkpoint; it ends with F1
	// broken, after any emerged FDs.
	for {
		var got FeedEvent
		if ev := nextEvent(t, events); json.Unmarshal([]byte(ev.data), &got) != nil {
			t.Fatalf("event data %q does not decode", ev.data)
		}
		if got.Checkpoint != 1 {
			t.Fatalf("feed event %+v: a refused batch published a checkpoint", got)
		}
		if got.Kind == "broken" && got.Label == "F1" {
			return
		}
	}
}

// expectRefused posts one batch that must fail whole with the given status
// and typed error code.
func expectRefused(t *testing.T, client *http.Client, what, url, body string, status int, code string) {
	t.Helper()
	var e ErrorBody
	if err := json.Unmarshal(mustReq(t, client, "POST", url, body, status), &e); err != nil {
		t.Fatalf("%s: error body: %v", what, err)
	}
	if e.Error.Code != code {
		t.Fatalf("%s: error code %q, want %q", what, e.Error.Code, code)
	}
}
