package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	evolvefd "github.com/evolvefd/evolvefd"
	"github.com/evolvefd/evolvefd/internal/wal"
)

// Server mounts the /v1 advisor API over a Registry. It is an http.Handler;
// serve it with an http.Server of the caller's choosing and drain it with
// Shutdown.
type Server struct {
	reg *Registry
	mux *http.ServeMux
	// done closes when shutdown begins: long-lived SSE handlers return on
	// it, so http.Server.Shutdown's drain is not held hostage by designers
	// with open feeds.
	done chan struct{}
	once sync.Once
}

// New builds a Server over a registry.
func New(reg *Registry) *Server {
	s := &Server{reg: reg, mux: http.NewServeMux(), done: make(chan struct{})}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/tenants", s.handleTenants)
	s.mux.HandleFunc("POST /v1/{tenant}", s.handleCreate)
	s.mux.HandleFunc("GET /v1/{tenant}", s.handleStats)
	s.mux.HandleFunc("DELETE /v1/{tenant}", s.handleClose)
	// post(s, mutates, call): a mutating route publishes to the tenant's feed.
	s.mux.HandleFunc("POST /v1/{tenant}/append", post(s, true, appendRows))
	s.mux.HandleFunc("POST /v1/{tenant}/delete", post(s, true, deleteRows))
	s.mux.HandleFunc("POST /v1/{tenant}/update", post(s, true, updateRows))
	s.mux.HandleFunc("POST /v1/{tenant}/define", post(s, true, define))
	s.mux.HandleFunc("POST /v1/{tenant}/drop", post(s, true, drop))
	s.mux.HandleFunc("POST /v1/{tenant}/repair", post(s, false, repair))
	s.mux.HandleFunc("POST /v1/{tenant}/accept", post(s, true, accept))
	s.mux.HandleFunc("POST /v1/{tenant}/compact", post(s, true, compact))
	s.mux.HandleFunc("POST /v1/{tenant}/flush", post(s, false, flush))
	s.mux.HandleFunc("GET /v1/{tenant}/check", s.handleCheck)
	s.mux.HandleFunc("GET /v1/{tenant}/measures", s.handleMeasures)
	s.mux.HandleFunc("GET /v1/{tenant}/discover", s.handleDiscover)
	s.mux.HandleFunc("GET /v1/{tenant}/suggestions", s.handleSuggestions)
	s.mux.HandleFunc("GET /v1/{tenant}/feed", s.handleFeed)
	return s
}

// ServeHTTP dispatches to the mounted routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Shutdown drains the server: SSE feeds are released, in-flight handlers
// finish under hs.Shutdown's deadline, and every tenant session is flushed
// and closed. A non-nil return means either the drain timed out or some
// tenant's log tail may not have reached disk. hs may be nil when the
// Server is mounted in a test harness that owns the listener.
func (s *Server) Shutdown(ctx context.Context, hs *http.Server) error {
	s.once.Do(func() { close(s.done) })
	var firstErr error
	if hs != nil {
		if err := hs.Shutdown(ctx); err != nil {
			firstErr = err
		}
	}
	if err := s.reg.CloseAll(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// marshalCanonical renders v as one-line JSON without HTML escaping, so FD
// arrows survive as "->" and response bytes are stable for golden and
// differential comparison.
func marshalCanonical(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return bytes.TrimRight(buf.Bytes(), "\n"), nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := marshalCanonical(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	status, code := classify(err)
	writeJSON(w, status, ErrorBody{Error: ErrorDetail{Code: code, Message: err.Error()}})
}

// Request bodies are bounded: a tenant upload carries a whole CSV (the
// benchmark's are ~35 MB), every other body a batch of rows or names.
const (
	maxCreateBody = 1 << 30
	maxBody       = 64 << 20
)

// noBody is the request type of the routes that take no arguments (compact,
// flush): only they accept an empty body.
type noBody struct{}

// decode parses a request body of at most limit bytes strictly: it must be
// exactly one JSON value, and unknown fields are bad requests, not silent
// typos.
func decode(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if _, none := v.(*noBody); none && err == io.EOF {
		return nil
	}
	if err == nil {
		if _, err = dec.Token(); err == io.EOF {
			return nil
		}
		if err == nil {
			err = errors.New("trailing data after the JSON value")
		}
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return fmt.Errorf("serve: body: %w", tooLarge)
	}
	return fmt.Errorf("%w: body: %v", errBadRequest, err)
}

// post is the one shape of every tenant POST route: resolve the tenant,
// decode the body, call, publish, answer. A mutating route publishes on
// success only: each request is one all-or-nothing batch, so a failed call
// changed nothing the feed could report.
func post[Req, Resp any](s *Server, mutates bool, call func(*evolvefd.Session, Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t, ok := s.tenant(w, r)
		if !ok {
			return
		}
		var req Req
		if err := decode(w, r, maxBody, &req); err != nil {
			s.writeError(w, err)
			return
		}
		resp, err := call(t.s, req)
		if err != nil {
			s.writeError(w, err)
			return
		}
		if mutates {
			t.publish()
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// tenant resolves the {tenant} path segment, writing the error response on
// failure.
func (s *Server) tenant(w http.ResponseWriter, r *http.Request) (*Tenant, bool) {
	t, err := s.reg.Get(r.PathValue("tenant"))
	if err != nil {
		s.writeError(w, err)
		return nil, false
	}
	return t, true
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{OK: true, Tenants: s.reg.Len()})
}

func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, TenantsResponse{Tenants: s.reg.List()})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateRequest
	if err := decode(w, r, maxCreateBody, &req); err != nil {
		s.writeError(w, err)
		return
	}
	name := r.PathValue("tenant")
	t, err := s.reg.Create(name, req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, CreateResponse{
		Tenant:  name,
		Rows:    t.s.LiveRows(),
		FDs:     len(req.FDs),
		Durable: t.durable,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, buildStats(t.name, t.durable, t.s))
}

// buildStats renders a tenant's observable state; the differential suites
// call it on the library twin.
func buildStats(name string, durable bool, s *evolvefd.Session) StatsResponse {
	m := s.MemStats()
	return StatsResponse{
		Tenant:     name,
		Durable:    durable,
		Generation: s.Generation(),
		Epoch:      m.Epoch,
		LiveRows:   m.LiveRows,
		FDs:        s.Labels(),
		Mem:        m,
	}
}

func (s *Server) handleClose(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.Close(r.PathValue("tenant")); err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, OKResponse{OK: true})
}

// applyBatch applies one request's ops as a single all-or-nothing batch,
// naming a refused op by its position in the request ("row 2: …").
func applyBatch(s *evolvefd.Session, noun string, ops []wal.Op) error {
	err := s.Apply(ops...)
	var refused *wal.OpError
	if errors.As(err, &refused) {
		return fmt.Errorf("%s %d: %w", noun, refused.Index, refused.Err)
	}
	return err
}

func appendRows(s *evolvefd.Session, req AppendRequest) (AppendResponse, error) {
	ops := make([]wal.Op, len(req.Rows))
	for i, cells := range req.Rows {
		ops[i] = wal.Op{Kind: wal.OpAppendStrings, Cells: cells}
	}
	if err := applyBatch(s, "row", ops); err != nil {
		return AppendResponse{}, err
	}
	return AppendResponse{Appended: len(req.Rows), LiveRows: s.LiveRows()}, nil
}

func deleteRows(s *evolvefd.Session, req DeleteRequest) (DeleteResponse, error) {
	if err := s.Delete(req.Rows...); err != nil {
		return DeleteResponse{}, err
	}
	return DeleteResponse{Deleted: len(req.Rows), LiveRows: s.LiveRows()}, nil
}

func updateRows(s *evolvefd.Session, req UpdateRequest) (UpdateResponse, error) {
	ops := make([]wal.Op, len(req.Updates))
	for i, u := range req.Updates {
		ops[i] = wal.Op{Kind: wal.OpUpdateStrings, Row: u.Row, Cells: u.Cells}
	}
	if err := applyBatch(s, "update", ops); err != nil {
		return UpdateResponse{}, err
	}
	return UpdateResponse{Updated: len(req.Updates)}, nil
}

func define(s *evolvefd.Session, req DefineRequest) (OKResponse, error) {
	return ack(s.Define(req.Label, req.Spec))
}

func drop(s *evolvefd.Session, req DropRequest) (OKResponse, error) {
	return ack(s.Drop(req.Label))
}

func flush(s *evolvefd.Session, _ noBody) (OKResponse, error) {
	return ack(s.Flush())
}

func ack(err error) (OKResponse, error) { return OKResponse{OK: err == nil}, err }

func compact(s *evolvefd.Session, _ noBody) (evolvefd.CompactionStats, error) {
	return s.Compact(), nil
}

func repair(s *evolvefd.Session, req RepairRequest) (RepairResponse, error) {
	suggestions, err := s.Repair(req.FD, evolvefd.Options{
		FirstOnly:      req.FirstOnly,
		MaxAdded:       req.MaxAdded,
		MaxGoodness:    req.MaxGoodness,
		MinimalOnly:    req.MinimalOnly,
		Balanced:       req.Balanced,
		GoodnessWeight: req.GoodnessWeight,
		Parallelism:    req.Parallelism,
	})
	return RepairResponse{Label: req.FD, Suggestions: suggestions}, err
}

func accept(s *evolvefd.Session, req AcceptRequest) (AcceptResponse, error) {
	if err := s.Accept(req.FD, evolvefd.Suggestion{Added: req.Added}); err != nil {
		return AcceptResponse{}, err
	}
	text, err := s.FDText(req.FD)
	return AcceptResponse{Label: req.FD, FD: text}, err
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	violations := t.s.Check()
	writeJSON(w, http.StatusOK, CheckResponse{Consistent: len(violations) == 0, Violations: violations})
}

func (s *Server) handleMeasures(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	label := r.URL.Query().Get("fd")
	if label == "" {
		s.writeError(w, fmt.Errorf("%w: missing ?fd= label", errBadRequest))
		return
	}
	m, err := t.s.Measures(label)
	if err != nil {
		s.writeError(w, err)
		return
	}
	text, err := t.s.FDText(label)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, MeasuresResponse{Label: label, FD: text, Measures: m})
}

// queryBound parses an optional non-negative integer query parameter. A
// negative bound is refused, not answered: it would silently mean the
// default (max_lhs) or a truncated, order-dependent cover (max_results).
func queryBound(q url.Values, name string) (int, error) {
	v := q.Get(name)
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err == nil && n < 0 {
		err = errors.New("must not be negative")
	}
	if err != nil {
		return 0, fmt.Errorf("%w: %s: %v", errBadRequest, name, err)
	}
	return n, nil
}

// parseDiscoverQuery maps ?max_lhs=&max_results=&consequents=A,B to
// DiscoveryOptions; ?incremental=true selects the maintained cover.
func parseDiscoverQuery(r *http.Request) (opts evolvefd.DiscoveryOptions, incremental bool, err error) {
	q := r.URL.Query()
	if opts.MaxLHS, err = queryBound(q, "max_lhs"); err != nil {
		return opts, false, err
	}
	if opts.MaxResults, err = queryBound(q, "max_results"); err != nil {
		return opts, false, err
	}
	if q.Has("consequents") {
		opts.Consequents = []string{}
		for _, name := range strings.Split(q.Get("consequents"), ",") {
			if name = strings.TrimSpace(name); name != "" {
				opts.Consequents = append(opts.Consequents, name)
			}
		}
	}
	if v := q.Get("incremental"); v != "" {
		if incremental, err = strconv.ParseBool(v); err != nil {
			return opts, false, fmt.Errorf("%w: incremental: %v", errBadRequest, err)
		}
	}
	return opts, incremental, nil
}

func (s *Server) handleDiscover(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	opts, incremental, err := parseDiscoverQuery(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	var found []evolvefd.DiscoveredFD
	if incremental {
		found, err = t.s.DiscoverIncremental(opts)
	} else {
		found, err = t.s.Discover(opts)
	}
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, DiscoverResponse{Cover: found})
}

func (s *Server) handleSuggestions(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	suggestions, err := t.s.Suggestions()
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, SuggestionsResponse{Suggestions: suggestions})
}

// handleFeed streams the tenant's advisor suggestions as Server-Sent
// Events: a hello event carrying the current generation, then one
// "suggestion" event per emerged/broken FD, pushed after each mutation
// batch in checkpoint order. The stream ends when the client disconnects,
// the tenant closes, or the server drains.
func (s *Server) handleFeed(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		s.writeError(w, fmt.Errorf("%w: connection does not support streaming", errBadRequest))
		return
	}
	ch, cancel := t.hub.subscribe()
	defer cancel()
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "event: hello\ndata: {\"tenant\":%q,\"generation\":%d}\n\n", t.name, t.s.Generation())
	fl.Flush()
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return
			}
			data, err := marshalCanonical(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "event: suggestion\nid: %d\ndata: %s\n\n", ev.Checkpoint, data)
			fl.Flush()
		case <-r.Context().Done():
			return
		case <-s.done:
			return
		}
	}
}
