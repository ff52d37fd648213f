package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's epoch; Parent is the id of the span that caused this
// one (0 for a root) and Req groups the spans of one request.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Op     string `json:"op,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N is the count recorded at the boundary: rows a client request
	// carried, bytes a wal.write wrote.
	N int64 `json:"n,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. It records only from the
// benchmark's own files: around client requests, around the http.Handler
// the service exposes, around the wal.FS it is given, and around facade
// calls. Whether a request is traced is its client's decision, carried to
// the handler in a header and from the handler to the WAL by the goroutine
// binding, so one host serves traced and untraced requests side by side,
// which is how the tracing overhead is measured.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// active maps a goroutine to the handler span it is serving, so that
	// wal.FS calls — which carry no context — find their parent. The WAL
	// writes synchronously on the goroutine that called the session.
	active sync.Map
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// start opens a span and returns its id. A root span (no parent) starts a
// request of its own: its id is the request id its descendants inherit.
func (t *tracer) start(name string, parent int32) int32 {
	return t.startOp(name, "", parent)
}

// startOp is start for a span that carries the operation type it serves.
func (t *tracer) startOp(name, op string, parent int32) int32 {
	now := t.now()
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	req := id
	if parent != 0 {
		req = t.spans[parent-1].Req
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Op: op, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) { t.endN(id, 0) }

// endN closes a span and records the count made at its boundary.
func (t *tracer) endN(id int32, n int64) {
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.spans[id-1].N = n
	t.mu.Unlock()
}

// time runs fn inside a span, for the library workloads' facade calls.
func (t *tracer) time(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	id := t.start(name, 0)
	fn()
	t.end(id)
}

func (t *tracer) bind(handler int32) { t.active.Store(goid(), handler) }
func (t *tracer) unbind()            { t.active.Delete(goid()) }

// bound returns the handler span the calling goroutine serves, 0 for none.
func (t *tracer) bound() int32 {
	v, ok := t.active.Load(goid())
	if !ok {
		return 0
	}
	return v.(int32)
}

// goid parses the current goroutine's id out of its stack header
// ("goroutine 123 [running]:"). Only traced runs call it.
func goid() int64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	var id int64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of it its children
// cover: overlapping children are merged and clipped to the parent first,
// so concurrent children are not subtracted twice.
func selfTimes(spans []span) map[int32]int64 {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cursor := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cursor), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// writeSpans dumps the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
