package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	evolvefd "github.com/evolvefd/evolvefd"
	"github.com/evolvefd/evolvefd/internal/wal"
)

// sseEvent is one parsed Server-Sent-Events block.
type sseEvent struct {
	event string
	id    string
	data  string
}

// readSSE parses event blocks off the stream and pushes them into a
// channel, so the test can apply deadlines per event.
func readSSE(body *bufio.Scanner, out chan<- sseEvent) {
	var ev sseEvent
	for body.Scan() {
		line := body.Text()
		switch {
		case line == "":
			if ev.event != "" || ev.data != "" {
				out <- ev
			}
			ev = sseEvent{}
		case strings.HasPrefix(line, "event: "):
			ev.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: "):
			ev.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "data: "):
			ev.data = strings.TrimPrefix(line, "data: ")
		}
	}
	close(out)
}

func nextEvent(t *testing.T, events <-chan sseEvent) sseEvent {
	t.Helper()
	select {
	case ev, ok := <-events:
		if !ok {
			t.Fatalf("SSE stream closed early")
		}
		return ev
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for SSE event")
		return sseEvent{}
	}
}

// TestFeedSSE subscribes to a tenant's advisor feed and replays a mutation
// sequence whose expected events a library twin computes: every batch that
// produces a non-empty Suggestions diff must arrive as SSE "suggestion"
// events, in checkpoint order, with the checkpoints strictly increasing. A
// batch is all-or-nothing: one that fails changes nothing and publishes no
// event, and the same rows in a later successful batch produce the events.
func TestFeedSSE(t *testing.T) {
	ts, _ := newTestServer(t, RegistryOptions{})
	client := ts.Client()
	base := ts.URL + "/v1/feedy"

	const csv = "A,B:int,C,D\nx,1,p,u\ny,2,q,v\n"
	fds := []FDDef{{Label: "F1", Spec: "A -> C"}, {Label: "F2", Spec: "C -> D"}, {Label: "F3", Spec: "B -> D"}}
	mustReq(t, client, "POST", base, jsonBody(t, CreateRequest{CSV: csv, FDs: fds}), http.StatusCreated)

	rel, err := evolvefd.OpenCSVReader("feedy", strings.NewReader(csv), evolvefd.CSVOptions{InferKinds: true})
	if err != nil {
		t.Fatalf("twin CSV: %v", err)
	}
	twin := evolvefd.NewSession(rel)
	defer twin.Close()
	for _, fd := range fds {
		twin.MustDefine(fd.Label, fd.Spec)
	}

	// Seed both advisors' baselines while F1 still holds: the first
	// Suggestions call reports nothing, so without this the feed would see
	// F1 as broken-at-seed rather than newly broken.
	mustReq(t, client, "GET", base+"/suggestions", "", http.StatusOK)
	if _, err := twin.Suggestions(); err != nil {
		t.Fatalf("twin seed suggestions: %v", err)
	}

	// Subscribe before mutating; the hello event acknowledges the
	// registered subscription (publish is synchronous in the mutation
	// handler, so an acked mutation's events are already enqueued).
	req, err := http.NewRequest("GET", base+"/feed", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("feed Content-Type = %q, want text/event-stream", ct)
	}
	events := make(chan sseEvent, 64)
	go readSSE(bufio.NewScanner(resp.Body), events)

	hello := nextEvent(t, events)
	if hello.event != "hello" {
		t.Fatalf("first event = %q, want hello", hello.event)
	}
	var helloBody struct {
		Tenant     string `json:"tenant"`
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal([]byte(hello.data), &helloBody); err != nil {
		t.Fatalf("hello data %q: %v", hello.data, err)
	}
	if helloBody.Tenant != "feedy" || helloBody.Generation != twin.Generation() {
		t.Fatalf("hello = %+v, want tenant feedy generation %d", helloBody, twin.Generation())
	}

	// Mutation batches; the twin applies each as one batch too and computes
	// the expected per-batch diff.
	batches := []struct {
		rows    [][]string
		updates []RowUpdate
		status  int
	}{
		{rows: [][]string{{"x", "3", "r", "w"}}, status: http.StatusOK}, // breaks F1: A=x now maps to both p and r
		{rows: [][]string{{"z", "4", "s", "w"}}, status: http.StatusOK}, // new A value, F1 stays broken (no new diff for it)
		{rows: [][]string{{"y", "2", "q", "v"}}, status: http.StatusOK}, // duplicate row
		{rows: [][]string{{"x", "5", "p", "u"}}, status: http.StatusOK}, // another x→p witness
		// Row 0 would break F2, but row 1 has the wrong arity: no row lands.
		{rows: [][]string{{"z", "6", "s", "t"}, {"short"}}, status: http.StatusBadRequest},
		// Update 0 would break F3, but update 1 names no row: nothing changes.
		{updates: []RowUpdate{{Row: 4, Cells: []string{"y", "2", "q", "zz"}}, {Row: 999, Cells: []string{"y", "2", "q", "v"}}},
			status: http.StatusNotFound},
		{rows: [][]string{{"z", "6", "s", "t"}}, status: http.StatusOK},                               // breaks F2: C=s now maps to both w and t
		{updates: []RowUpdate{{Row: 4, Cells: []string{"y", "2", "q", "zz"}}}, status: http.StatusOK}, // breaks F3: B=2 now maps to both v and zz
	}
	type expected struct {
		checkpoint uint64
		events     []FeedEvent
	}
	var want []expected
	var checkpoint uint64
	for bi, batch := range batches {
		if batch.updates != nil {
			mustReq(t, client, "POST", base+"/update", jsonBody(t, UpdateRequest{Updates: batch.updates}), batch.status)
		} else {
			mustReq(t, client, "POST", base+"/append", jsonBody(t, AppendRequest{Rows: batch.rows}), batch.status)
		}
		var ops []wal.Op
		for _, cells := range batch.rows {
			ops = append(ops, wal.Op{Kind: wal.OpAppendStrings, Cells: cells})
		}
		for _, u := range batch.updates {
			ops = append(ops, wal.Op{Kind: wal.OpUpdateStrings, Row: u.Row, Cells: u.Cells})
		}
		twinErr := twin.Apply(ops...)
		if (twinErr == nil) != (batch.status == http.StatusOK) {
			t.Fatalf("batch %d: twin error %v, server status %d", bi, twinErr, batch.status)
		}
		suggestions, err := twin.Suggestions()
		if err != nil {
			t.Fatalf("twin suggestions: %v", err)
		}
		if len(suggestions) == 0 {
			continue
		}
		checkpoint++
		exp := expected{checkpoint: checkpoint}
		for _, g := range suggestions {
			exp.events = append(exp.events, FeedEvent{
				Checkpoint: checkpoint, Kind: string(g.Kind), Label: g.Label, FD: g.FD, Spec: g.Spec,
			})
		}
		want = append(want, exp)
	}
	if len(want) == 0 {
		t.Fatalf("workload produced no advisor diffs; the test scenario is broken")
	}

	broken := map[string]bool{}
	var last uint64
	for _, exp := range want {
		for _, wantEv := range exp.events {
			ev := nextEvent(t, events)
			if ev.event != "suggestion" {
				t.Fatalf("event type = %q, want suggestion", ev.event)
			}
			var got FeedEvent
			if err := json.Unmarshal([]byte(ev.data), &got); err != nil {
				t.Fatalf("event data %q: %v", ev.data, err)
			}
			if got != wantEv {
				t.Fatalf("feed event = %+v, want %+v", got, wantEv)
			}
			if got.Checkpoint < last {
				t.Fatalf("checkpoint went backwards: %d after %d", got.Checkpoint, last)
			}
			last = got.Checkpoint
			if got.Kind == "broken" {
				broken[got.Label] = true
			}
		}
	}
	for _, fd := range fds {
		if !broken[fd.Label] {
			t.Fatalf("no broken event for %s arrived; the scenario should break it", fd.Label)
		}
	}
}
