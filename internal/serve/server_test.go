package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	evolvefd "github.com/evolvefd/evolvefd"
)

func TestHubBroadcastOrderAndDrop(t *testing.T) {
	h := newHub()
	fast, cancelFast := h.subscribe()
	defer cancelFast()
	slow, _ := h.subscribe()

	// Overflow the slow subscriber: it never drains, so once its buffer
	// fills the hub must drop it rather than stall the fast one.
	for i := 0; i < subBuffer+8; i++ {
		h.broadcast([]FeedEvent{{Kind: "emerged", FD: fmt.Sprintf("fd%d", i)}})
		// Keep the fast subscriber drained.
		ev := <-fast
		if ev.Checkpoint != uint64(i+1) {
			t.Fatalf("checkpoint = %d, want %d", ev.Checkpoint, i+1)
		}
	}
	if h.subscribers() != 1 {
		t.Fatalf("subscribers = %d, want 1 (slow one dropped)", h.subscribers())
	}
	// The dropped subscriber's channel must be closed after its buffered
	// prefix drains.
	n := 0
	for range slow {
		n++
	}
	if n != subBuffer {
		t.Fatalf("slow subscriber drained %d events, want %d", n, subBuffer)
	}
}

func TestHubClose(t *testing.T) {
	h := newHub()
	ch, cancel := h.subscribe()
	h.close()
	if _, open := <-ch; open {
		t.Fatal("subscriber channel still open after hub close")
	}
	cancel() // idempotent after the hub already dropped the subscription
	h.close()
	if ch2, _ := h.subscribe(); func() bool { _, open := <-ch2; return open }() {
		t.Fatal("subscribe after close returned an open channel")
	}
	h.broadcast([]FeedEvent{{Kind: "emerged"}}) // no-op, must not panic
}

func TestRegistryRecover(t *testing.T) {
	dataDir := t.TempDir()
	opts := RegistryOptions{DataDir: dataDir, Durability: evolvefd.DurabilityOptions{NoFsync: true}}

	reg := NewRegistry(opts)
	for _, name := range []string{"alpha", "beta"} {
		if _, err := reg.Create(name, CreateRequest{CSV: goldenCSV, FDs: []FDDef{{Label: "F1", Spec: "A -> C"}}}); err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
	}
	alpha, err := reg.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if err := alpha.Session().AppendStrings("q", "9", "t", "u"); err != nil {
		t.Fatal(err)
	}
	if err := reg.CloseAll(); err != nil {
		t.Fatalf("CloseAll: %v", err)
	}
	if _, err := reg.Get("alpha"); !errors.Is(err, ErrRegistryClosed) {
		t.Fatalf("Get after CloseAll = %v, want ErrRegistryClosed", err)
	}

	reg2 := NewRegistry(opts)
	names, err := reg2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Fatalf("recovered %v, want [alpha beta]", names)
	}
	defer reg2.CloseAll()
	alpha2, err := reg2.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if got := alpha2.Session().LiveRows(); got != 6 {
		t.Fatalf("recovered alpha LiveRows = %d, want 6", got)
	}
	if !alpha2.Session().Consistent() {
		// F1 (A -> C) still holds on the recovered instance.
		t.Fatal("recovered alpha inconsistent")
	}

	// Creating over on-disk durable state is a conflict, not an overwrite.
	if _, err := reg2.Create("alpha", CreateRequest{CSV: goldenCSV}); !errors.Is(err, ErrTenantExists) {
		t.Fatalf("create over durable state = %v, want ErrTenantExists", err)
	}

	// Tenant close keeps state on disk: a later recovery still sees it.
	if err := reg2.Close("beta"); err != nil {
		t.Fatalf("close beta: %v", err)
	}
	if !evolvefd.HasSessionState(filepath.Join(dataDir, "beta")) {
		t.Fatal("beta durable state removed by tenant close")
	}
}

func TestRegistryRecoverCorrupt(t *testing.T) {
	dataDir := t.TempDir()
	opts := RegistryOptions{DataDir: dataDir, Durability: evolvefd.DurabilityOptions{NoFsync: true}}
	reg := NewRegistry(opts)
	if _, err := reg.Create("frail", CreateRequest{CSV: goldenCSV}); err != nil {
		t.Fatal(err)
	}
	if err := reg.CloseAll(); err != nil {
		t.Fatal(err)
	}
	// Truncate every durable file: recovery must fail loudly rather than
	// serve a partial fleet.
	entries, err := os.ReadDir(filepath.Join(dataDir, "frail"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if err := os.Truncate(filepath.Join(dataDir, "frail", e.Name()), 3); err != nil {
			t.Fatal(err)
		}
	}
	reg2 := NewRegistry(opts)
	if _, err := reg2.Recover(); err == nil {
		t.Fatal("Recover over truncated state succeeded, want loud failure")
	}
}

func TestCreateDefineFailureCleansUp(t *testing.T) {
	dataDir := t.TempDir()
	reg := NewRegistry(RegistryOptions{DataDir: dataDir, Durability: evolvefd.DurabilityOptions{NoFsync: true}})
	defer reg.CloseAll()
	_, err := reg.Create("half", CreateRequest{CSV: goldenCSV, FDs: []FDDef{{Label: "F1", Spec: "A -> Nope"}}})
	if !errors.Is(err, evolvefd.ErrBadFD) {
		t.Fatalf("create with bad FD = %v, want ErrBadFD", err)
	}
	if _, err := reg.Get("half"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatal("failed create left the tenant registered")
	}
	if evolvefd.HasSessionState(filepath.Join(dataDir, "half")) {
		t.Fatal("failed create left durable state on disk")
	}
	// The name is reusable after the failed create.
	if _, err := reg.Create("half", CreateRequest{CSV: goldenCSV, FDs: []FDDef{{Label: "F1", Spec: "A -> C"}}}); err != nil {
		t.Fatalf("re-create after failed create: %v", err)
	}
}

// TestGracefulShutdown drains the server with an SSE feed open: Shutdown
// must release the streaming handler, flush+close every durable session,
// and answer later requests with 503 shutting_down.
func TestGracefulShutdown(t *testing.T) {
	dataDir := t.TempDir()
	ts, reg := newTestServer(t, RegistryOptions{DataDir: dataDir, Durability: evolvefd.DurabilityOptions{NoFsync: true}})
	client := ts.Client()
	base := ts.URL + "/v1/drainme"
	mustReq(t, client, "POST", base, jsonBody(t, CreateRequest{CSV: goldenCSV, FDs: workloadFDs}), http.StatusCreated)
	mustReq(t, client, "POST", base+"/append", jsonBody(t, AppendRequest{Rows: [][]string{{"q", "9", "t", "u"}}}), http.StatusOK)

	// Open a feed and wait for the hello event, so the streaming handler is
	// provably in its select loop when Shutdown fires.
	req, err := http.NewRequest("GET", base+"/feed", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatal("no hello event")
	}
	feedDone := make(chan struct{})
	go func() {
		defer close(feedDone)
		for sc.Scan() {
		}
	}()

	srv := ts.Config.Handler.(*Server)
	ctx, cancel := context.WithTimeout(context.Background(), 10e9)
	defer cancel()
	if err := srv.Shutdown(ctx, nil); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	<-feedDone

	status, body := doReq(t, client, "GET", base+"/check", "")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("request after shutdown = %d (%s), want 503", status, body)
	}

	// The session was flushed and closed: its durable state recovers with
	// the appended row.
	reg2 := NewRegistry(RegistryOptions{DataDir: dataDir, Durability: evolvefd.DurabilityOptions{NoFsync: true}})
	if _, err := reg2.Recover(); err != nil {
		t.Fatalf("recover after shutdown: %v", err)
	}
	defer reg2.CloseAll()
	tn, err := reg2.Get("drainme")
	if err != nil {
		t.Fatal(err)
	}
	if got := tn.Session().LiveRows(); got != 6 {
		t.Fatalf("recovered LiveRows = %d, want 6", got)
	}
	_ = reg
}

func TestClassifyInternal(t *testing.T) {
	status, code := classify(errors.New("novel failure"))
	if status != http.StatusInternalServerError || code != "internal" {
		t.Fatalf("classify(novel) = %d %q, want 500 internal", status, code)
	}
}

func TestClassifyPayloadTooLarge(t *testing.T) {
	status, code := classify(fmt.Errorf("serve: body: %w", &http.MaxBytesError{Limit: maxBody}))
	if status != http.StatusRequestEntityTooLarge || code != "payload_too_large" {
		t.Fatalf("classify(MaxBytesError) = %d %q, want 413 payload_too_large", status, code)
	}
}

// TestOversizedAppendRefused: a body past the bound is refused with the typed
// 413 before any of it is applied. The body is valid JSON for one row, padded
// with whitespace, so it would append if the bound were not enforced.
func TestOversizedAppendRefused(t *testing.T) {
	reg := NewRegistry(RegistryOptions{})
	defer reg.CloseAll()
	tenant, err := reg.Create("big", CreateRequest{CSV: goldenCSV})
	if err != nil {
		t.Fatal(err)
	}
	before := tenant.s.LiveRows()
	body := io.MultiReader(
		strings.NewReader(`{"rows":[["w","9","s","t"]`),
		strings.NewReader(strings.Repeat(" ", maxBody)),
		strings.NewReader(`]}`),
	)
	rec := httptest.NewRecorder()
	New(reg).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/big/append", body))
	var got ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("response %q: %v", rec.Body.Bytes(), err)
	}
	if rec.Code != http.StatusRequestEntityTooLarge || got.Error.Code != "payload_too_large" {
		t.Fatalf("oversized append = %d %q, want 413 payload_too_large", rec.Code, got.Error.Code)
	}
	if after := tenant.s.LiveRows(); after != before {
		t.Fatalf("refused append changed live rows %d → %d", before, after)
	}
}

// TestEmptyBodyRoutes: the two argument-less routes succeed with no body;
// the seven that take arguments refuse an empty one as a bad request.
func TestEmptyBodyRoutes(t *testing.T) {
	ts, _ := newTestServer(t, RegistryOptions{})
	client := ts.Client()
	base := ts.URL + "/v1/empty"
	mustReq(t, client, "POST", base, jsonBody(t, CreateRequest{CSV: goldenCSV, FDs: workloadFDs}), http.StatusCreated)
	for _, route := range []string{"compact", "flush"} {
		mustReq(t, client, "POST", base+"/"+route, "", http.StatusOK)
	}
	for _, route := range []string{"append", "delete", "update", "define", "drop", "repair", "accept"} {
		var got ErrorBody
		body := mustReq(t, client, "POST", base+"/"+route, "", http.StatusBadRequest)
		if err := json.Unmarshal(body, &got); err != nil || got.Error.Code != "bad_request" {
			t.Fatalf("empty %s body answered %s (%v), want bad_request", route, body, err)
		}
	}
}
