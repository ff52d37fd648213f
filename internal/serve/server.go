package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	evolvefd "github.com/evolvefd/evolvefd"
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
	s.mux.HandleFunc("POST /v1/{tenant}/append", s.handleAppend)
	s.mux.HandleFunc("POST /v1/{tenant}/delete", s.handleDelete)
	s.mux.HandleFunc("POST /v1/{tenant}/update", s.handleUpdate)
	s.mux.HandleFunc("POST /v1/{tenant}/define", s.handleDefine)
	s.mux.HandleFunc("POST /v1/{tenant}/drop", s.handleDrop)
	s.mux.HandleFunc("POST /v1/{tenant}/repair", s.handleRepair)
	s.mux.HandleFunc("POST /v1/{tenant}/accept", s.handleAccept)
	s.mux.HandleFunc("POST /v1/{tenant}/compact", s.handleCompact)
	s.mux.HandleFunc("POST /v1/{tenant}/flush", s.handleFlush)
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

// decode parses a JSON request body of at most limit bytes strictly: unknown
// fields are bad requests, not silent typos.
func decode(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return fmt.Errorf("serve: body: %w", tooLarge)
		}
		return fmt.Errorf("%w: body: %v", errBadRequest, err)
	}
	return nil
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

func (s *Server) handleClose(w http.ResponseWriter, r *http.Request) {
	if err := s.reg.Close(r.PathValue("tenant")); err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, OKResponse{OK: true})
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	var req AppendRequest
	if err := decode(w, r, maxBody, &req); err != nil {
		s.writeError(w, err)
		return
	}
	for i, cells := range req.Rows {
		if err := t.s.AppendStrings(cells...); err != nil {
			if i > 0 {
				t.publish() // rows 0..i-1 were applied and logged
			}
			s.writeError(w, fmt.Errorf("row %d: %w", i, err))
			return
		}
	}
	t.publish()
	writeJSON(w, http.StatusOK, AppendResponse{Appended: len(req.Rows), LiveRows: t.s.LiveRows()})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	var req DeleteRequest
	if err := decode(w, r, maxBody, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if err := t.s.Delete(req.Rows...); err != nil {
		s.writeError(w, err)
		return
	}
	t.publish()
	writeJSON(w, http.StatusOK, DeleteResponse{Deleted: len(req.Rows), LiveRows: t.s.LiveRows()})
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	var req UpdateRequest
	if err := decode(w, r, maxBody, &req); err != nil {
		s.writeError(w, err)
		return
	}
	for i, u := range req.Updates {
		if err := t.s.UpdateStrings(u.Row, u.Cells...); err != nil {
			if i > 0 {
				t.publish() // updates 0..i-1 were applied and logged
			}
			s.writeError(w, fmt.Errorf("update %d: %w", i, err))
			return
		}
	}
	t.publish()
	writeJSON(w, http.StatusOK, UpdateResponse{Updated: len(req.Updates)})
}

func (s *Server) handleDefine(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	var req DefineRequest
	if err := decode(w, r, maxBody, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if err := t.s.Define(req.Label, req.Spec); err != nil {
		s.writeError(w, err)
		return
	}
	t.publish()
	writeJSON(w, http.StatusOK, OKResponse{OK: true})
}

func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	var req DropRequest
	if err := decode(w, r, maxBody, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if err := t.s.Drop(req.Label); err != nil {
		s.writeError(w, err)
		return
	}
	t.publish()
	writeJSON(w, http.StatusOK, OKResponse{OK: true})
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, buildCheck(t.s.Check()))
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
	writeJSON(w, http.StatusOK, MeasuresResponse{Label: label, FD: text, Measures: toMeasuresBody(m)})
}

func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	var req RepairRequest
	if err := decode(w, r, maxBody, &req); err != nil {
		s.writeError(w, err)
		return
	}
	opts := evolvefd.Options{
		FirstOnly:      req.FirstOnly,
		MaxAdded:       req.MaxAdded,
		MaxGoodness:    req.MaxGoodness,
		MinimalOnly:    req.MinimalOnly,
		Balanced:       req.Balanced,
		GoodnessWeight: req.GoodnessWeight,
		Parallelism:    req.Parallelism,
	}
	suggestions, err := t.s.Repair(req.FD, opts)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, buildRepair(req.FD, suggestions))
}

func (s *Server) handleAccept(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	var req AcceptRequest
	if err := decode(w, r, maxBody, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if err := t.s.Accept(req.FD, evolvefd.Suggestion{Added: req.Added}); err != nil {
		s.writeError(w, err)
		return
	}
	text, err := t.s.FDText(req.FD)
	if err != nil {
		s.writeError(w, err)
		return
	}
	t.publish()
	writeJSON(w, http.StatusOK, AcceptResponse{Label: req.FD, FD: text})
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	st := t.s.Compact()
	t.publish()
	writeJSON(w, http.StatusOK, buildCompact(st))
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tenant(w, r)
	if !ok {
		return
	}
	if err := t.s.Flush(); err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, OKResponse{OK: true})
}

// parseDiscoverQuery maps ?max_lhs=&max_results=&consequents=A,B to
// DiscoveryOptions; ?incremental=true selects the maintained cover.
func parseDiscoverQuery(r *http.Request) (opts evolvefd.DiscoveryOptions, incremental bool, err error) {
	q := r.URL.Query()
	if v := q.Get("max_lhs"); v != "" {
		if opts.MaxLHS, err = strconv.Atoi(v); err != nil {
			return opts, false, fmt.Errorf("%w: max_lhs: %v", errBadRequest, err)
		}
	}
	if v := q.Get("max_results"); v != "" {
		if opts.MaxResults, err = strconv.Atoi(v); err != nil {
			return opts, false, fmt.Errorf("%w: max_results: %v", errBadRequest, err)
		}
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
	writeJSON(w, http.StatusOK, buildDiscover(found))
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
	writeJSON(w, http.StatusOK, buildSuggestions(suggestions))
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
