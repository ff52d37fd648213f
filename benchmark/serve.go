package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	evolvefd "github.com/evolvefd/evolvefd"
	"github.com/evolvefd/evolvefd/internal/serve"
)

// host is fdserved inside this process: a durable registry with the
// service's default flush policy (an fsync per record, no group commit, no
// size-based rotation) behind an http.Server on a loopback TCP listener.
type host struct {
	dir    string
	fs     *crashFS
	reg    *serve.Registry
	srv    *serve.Server
	hs     *http.Server
	url    string
	served chan struct{}
}

// startHost opens the registry over dir, recovering whatever tenants a
// previous host left there, exactly like fdserved's start-up.
func startHost(dir string, tr *tracer) (*host, error) {
	fs := newCrashFS(tr)
	reg := serve.NewRegistry(serve.RegistryOptions{
		DataDir:    dir,
		Durability: evolvefd.DurabilityOptions{FS: fs},
	})
	if _, err := reg.Recover(); err != nil {
		return nil, fmt.Errorf("recover %s: %w", dir, err)
	}
	srv := serve.New(reg)
	var handler http.Handler = srv
	if tr != nil {
		handler = traceHandler(tr, srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		reg.CloseAll()
		return nil, err
	}
	h := &host{
		dir: dir, fs: fs, reg: reg, srv: srv,
		hs:     &http.Server{Handler: handler},
		url:    "http://" + ln.Addr().String(),
		served: make(chan struct{}),
	}
	go func() {
		h.hs.Serve(ln)
		close(h.served)
	}()
	return h, nil
}

// stop is the graceful shutdown: drain, flush and close every tenant.
func (h *host) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.srv.Shutdown(ctx, h.hs)
	<-h.served
	return err
}

// crash drops the listener and every connection, abandons the sessions
// without a flush or close, and cuts every file back to its synced length.
func (h *host) crash() (lost int64, err error) {
	h.hs.Close()
	<-h.served
	return h.fs.Crash()
}

func (h *host) tenantDir(name string) string { return filepath.Join(h.dir, name) }

// traceHandler is the middleware around the service's http.Handler: one
// serve.handler span per request, parented to the client span named in the
// request header, and bound to the serving goroutine for the wal spans.
func traceHandler(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		if parent == 0 {
			next.ServeHTTP(w, r)
			return
		}
		id := tr.start("serve.handler", int32(parent))
		// Only a POST reaches the WAL, so only a POST pays for the binding.
		if r.Method == http.MethodPost {
			tr.bind(id)
			defer tr.unbind()
		}
		next.ServeHTTP(w, r)
		tr.end(id)
	})
}

const spanHeader = "X-Bench-Span"

type opKind uint8

const (
	opCheck opKind = iota
	opMeasures
	opStats
	opAppend
	opDelete
	opUpdate
	opCompact
	numOpKinds
)

var opNames = [numOpKinds]string{"check", "measures", "stats", "append", "delete", "update", "compact"}

func (k opKind) isDML() bool { return k == opAppend || k == opDelete || k == opUpdate }

// loggedOp is one executed request, kept in traced runs for the twin replay.
type loggedOp struct {
	kind  opKind
	start int64 // ns since the stage began
	fd    int   // opMeasures
	ids   []int // opDelete, opUpdate
	rows  []row // opAppend, opUpdate
}

// sample is one completed request as its client saw it.
type sample struct {
	kind   opKind
	traced bool
	start  int64 // ns since the stage began
	lat    int64 // ns
}

// tenant is one hosted dataset as the benchmark knows it.
type tenant struct {
	name    string
	codec   *codec
	initial []row
	// mir follows the tenant's live rows. In the write mix its one client
	// updates it after every ack; in the read mix it is the initial rows
	// plus everything any client appended, assembled when the stage ends.
	mir *mirror
}

// client is one closed-loop caller: it sends its next request only when
// the previous one has been answered, over one keep-alive connection.
type client struct {
	hc      *http.Client
	t       *tenant
	base    string
	rng     *rand.Rand
	tr      *tracer // non-nil in a traced run, which also keeps the op log
	epoch   time.Time
	slice   time.Duration
	buf     bytes.Buffer
	scratch []byte

	samples   []sample
	log       []loggedOp
	appended  []row // read mix: this client's share of the shared tenant
	attempted int
	failed    int
	userBytes int64
	reqBytes  [numOpKinds]int64
	respBytes [numOpKinds]int64
	firstErr  error
}

func newClient(h *host, t *tenant, seed int64, tr *tracer, epoch time.Time, slice time.Duration) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		t:     t,
		base:  h.url + "/v1/" + t.name,
		rng:   rand.New(rand.NewSource(seed)),
		tr:    tr,
		epoch: epoch,
		slice: slice,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// roundTrip sends one request, reads the whole answer and reports whether
// the status was 2xx.
func (c *client) roundTrip(kind opKind, rows int, method, url string, body []byte) bool {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		c.fail(err)
		return false
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	var spanID int32
	traced := c.tr != nil && tracedAt(time.Since(c.epoch), c.slice)
	if traced {
		spanID = c.tr.startOp("client.request", opNames[kind], 0)
		req.Header.Set(spanHeader, strconv.Itoa(int(spanID)))
	}
	c.attempted++
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.fail(fmt.Errorf("%s %s: %w", method, url, err))
		return false
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if spanID != 0 {
		c.tr.endN(spanID, int64(rows))
	}
	if err != nil || resp.StatusCode/100 != 2 {
		c.fail(fmt.Errorf("%s %s: status %d: %.200s (%v)", method, url, resp.StatusCode, c.buf.Bytes(), err))
		return false
	}
	c.samples = append(c.samples, sample{kind: kind, traced: traced, start: int64(start.Sub(c.epoch)), lat: int64(lat)})
	c.reqBytes[kind] += int64(len(body))
	c.respBytes[kind] += int64(c.buf.Len())
	return true
}

func (c *client) record(op loggedOp) {
	if c.tr != nil {
		op.start = int64(time.Since(c.epoch))
		c.log = append(c.log, op)
	}
}

func (c *client) check() {
	c.record(loggedOp{kind: opCheck})
	c.roundTrip(opCheck, 0, http.MethodGet, c.base+"/check", nil)
}

func (c *client) measures() {
	fd := c.rng.Intn(len(lineitemFDs))
	c.record(loggedOp{kind: opMeasures, fd: fd})
	c.roundTrip(opMeasures, 0, http.MethodGet, c.base+"/measures?fd="+lineitemFDs[fd].label, nil)
}

func (c *client) stats() {
	c.record(loggedOp{kind: opStats})
	c.roundTrip(opStats, 0, http.MethodGet, c.base, nil)
}

// newRow draws a tuple to write: a copy of one of the tenant's initial rows
// with one to three cells redrawn.
func (c *client) newRow() row {
	return c.t.codec.mutate(c.t.initial[c.rng.Intn(len(c.t.initial))], c.rng)
}

func (c *client) appendRows(n int) {
	rows := make([]row, n)
	b := append(c.scratch[:0], `{"rows":[`...)
	for i := range rows {
		rows[i] = c.newRow()
		if i > 0 {
			b = append(b, ',')
		}
		b = c.t.codec.appendJSONRow(b, rows[i])
	}
	b = append(b, "]}"...)
	c.scratch = b
	c.record(loggedOp{kind: opAppend, rows: rows})
	if !c.roundTrip(opAppend, n, http.MethodPost, c.base+"/append", b) {
		return
	}
	for _, r := range rows {
		c.userBytes += int64(c.t.codec.textLen(r))
		if c.t.mir != nil {
			c.t.mir.append(r)
		} else {
			c.appended = append(c.appended, r)
		}
	}
}

func (c *client) deleteRows(n int) {
	ids := c.t.mir.pickLive(n, c.rng)
	b := append(c.scratch[:0], `{"rows":[`...)
	idBytes := 0
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		before := len(b)
		b = strconv.AppendInt(b, int64(id), 10)
		idBytes += len(b) - before
	}
	b = append(b, "]}"...)
	c.scratch = b
	c.record(loggedOp{kind: opDelete, ids: ids})
	if !c.roundTrip(opDelete, len(ids), http.MethodPost, c.base+"/delete", b) {
		return
	}
	c.userBytes += int64(idBytes)
	for _, id := range ids {
		c.t.mir.delete(id)
	}
}

func (c *client) updateRows(n int) {
	ids := c.t.mir.pickLive(n, c.rng)
	rows := make([]row, len(ids))
	b := append(c.scratch[:0], `{"updates":[`...)
	for i, id := range ids {
		rows[i] = c.t.codec.mutate(c.t.mir.rows[id], c.rng)
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"row":`...)
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, `,"cells":`...)
		b = c.t.codec.appendJSONRow(b, rows[i])
		b = append(b, '}')
	}
	b = append(b, "]}"...)
	c.scratch = b
	c.record(loggedOp{kind: opUpdate, ids: ids, rows: rows})
	if !c.roundTrip(opUpdate, len(ids), http.MethodPost, c.base+"/update", b) {
		return
	}
	for i, id := range ids {
		c.userBytes += int64(c.t.codec.textLen(rows[i]))
		c.t.mir.update(id, rows[i])
	}
}

func (c *client) compact() {
	c.record(loggedOp{kind: opCompact})
	if c.roundTrip(opCompact, 0, http.MethodPost, c.base+"/compact", nil) {
		c.t.mir.compact()
	}
}

// readOp is one request of the read mix.
func (c *client) readOp() {
	switch p := c.rng.Intn(100); {
	case p < 60:
		c.check()
	case p < 85:
		c.measures()
	case p < 95:
		c.stats()
	default:
		c.appendRows(1)
	}
}

// writeRound is one round's requests of the write mix: the mix's shares of
// the round exactly — 55% append, 15% delete, 15% update, 15% check — in an
// order the client's seed shuffles. Exact shares make the stage's I/O per
// user byte a quantity of the mix, not of how many appends the dice gave it.
func (c *client) writeRound(reqs int) []opKind {
	round := make([]opKind, 0, reqs)
	for len(round) < reqs*55/100 {
		round = append(round, opAppend)
	}
	for len(round) < reqs*70/100 {
		round = append(round, opDelete)
	}
	for len(round) < reqs*85/100 {
		round = append(round, opUpdate)
	}
	for len(round) < reqs {
		round = append(round, opCheck)
	}
	c.rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
	return round
}

func (c *client) writeOp(kind opKind) {
	switch kind {
	case opAppend:
		c.appendRows(appendBatch)
	case opDelete:
		c.deleteRows(deleteBatch)
	case opUpdate:
		c.updateRows(updateBatch)
	default:
		c.check()
	}
}

// runWrite sends the stage's requests in rounds with a compaction between
// one round and the next — none after the last, so that the crash finds a
// round's worth of log to replay behind the last snapshot.
func (c *client) runWrite(st serveStage) {
	for sent := 0; sent < st.reqs; sent += st.round {
		if sent > 0 {
			c.compact()
		}
		for _, kind := range c.writeRound(st.round) {
			c.writeOp(kind)
		}
	}
}

func (c *client) runRead(reqs int) {
	for i := 0; i < reqs; i++ {
		c.readOp()
	}
}

func numClients() int { return min(2, runtime.NumCPU()) }

// serveResult is what the serve stage measured.
type serveResult struct {
	wall     time.Duration
	slice    time.Duration // traced runs alternate untraced and traced slices
	samples  []sample
	clients  []*client
	walRatio float64
}

func (r *serveResult) latenciesMs(keep func(opKind) bool) []float64 {
	var out []float64
	for _, s := range r.samples {
		if keep(s.kind) {
			out = append(out, float64(s.lat)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// tracedAt reports whether a request that starts at offset d into a traced
// run's serve stage is traced: the stage alternates between untraced and
// traced slices, so that both modes see the same mix of rounds, compactions
// and instance sizes and their throughputs compare.
func tracedAt(d, slice time.Duration) bool { return d/slice%2 == 1 }

// throughputBy is completed requests per second among the traced, or the
// untraced, requests.
func (r *serveResult) throughputBy(traced bool) float64 {
	n := 0
	for _, s := range r.samples {
		if s.traced == traced {
			n++
		}
	}
	var span time.Duration
	for at := time.Duration(0); at < r.wall; at += r.slice {
		if tracedAt(at, r.slice) == traced {
			span += min(r.slice, r.wall-at)
		}
	}
	return float64(n) / span.Seconds()
}

// runServe has every client send its fixed sequence of requests. In a
// traced run the clients trace every other slice of the stage.
func runServe(h *host, st serveStage, tenants []*tenant, seed int64, tr *tracer, slice time.Duration) *serveResult {
	res := &serveResult{slice: slice}
	var ioBefore ioTotals
	for _, t := range tenants {
		ioBefore = ioBefore.add(h.fs.totals(h.tenantDir(t.name)))
	}
	epoch := time.Now()
	res.clients = make([]*client, numClients())
	for i := range res.clients {
		res.clients[i] = newClient(h, tenants[i%len(tenants)], seed+int64(i)*7919, tr, epoch, res.slice)
	}
	var wg sync.WaitGroup
	for _, c := range res.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			if st.mix == mixWrite {
				c.runWrite(st)
			} else {
				c.runRead(st.reqs)
			}
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(epoch)

	var userBytes int64
	for _, c := range res.clients {
		res.samples = append(res.samples, c.samples...)
		userBytes += c.userBytes
		c.close()
	}
	if st.mix == mixRead {
		t := tenants[0]
		t.mir = newMirror(t.initial)
		for _, c := range res.clients {
			for _, r := range c.appended {
				t.mir.append(r)
			}
		}
	}
	var ioAfter ioTotals
	for _, t := range tenants {
		ioAfter = ioAfter.add(h.fs.totals(h.tenantDir(t.name)))
	}
	if userBytes > 0 {
		res.walRatio = float64(ioAfter.sub(ioBefore).bytes) / float64(userBytes)
	}
	return res
}

// createTenant uploads a tenant's CSV and FDs the way a designer would.
func createTenant(h *host, t *tenant) error {
	fds := make([]serve.FDDef, len(lineitemFDs))
	for i, fd := range lineitemFDs {
		fds[i] = serve.FDDef{Label: fd.label, Spec: fd.spec}
	}
	body, err := json.Marshal(serve.CreateRequest{CSV: t.codec.toCSV(t.initial), FDs: fds})
	if err != nil {
		return err
	}
	resp, err := http.Post(h.url+"/v1/"+t.name, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("create %s: status %d: %.200s", t.name, resp.StatusCode, msg)
	}
	return nil
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("GET %s: status %d: %.200s", url, resp.StatusCode, msg)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// recoverOnce starts a host over dir and waits for the first 200 on check
// from every tenant: the time a restarted service needs to answer again.
func recoverOnce(dir string, tenants []*tenant, tr *tracer) (*host, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	h, err := startHost(dir, tr)
	if err != nil {
		return nil, 0, err
	}
	for _, t := range tenants {
		var body serve.CheckResponse
		if err := getJSON(h.url+"/v1/"+t.name+"/check", &body); err != nil {
			h.stop()
			return nil, 0, err
		}
	}
	return h, time.Since(start), nil
}

// verifyTenants compares what the (recovered) service answers with the
// oracle: live rows, the measures of every FD, and the instance itself,
// tuple by tuple. Each comparison is one attempted operation.
func verifyTenants(h *host, tenants []*tenant, v *verdict) {
	for _, t := range tenants {
		var st serve.StatsResponse
		err := getJSON(h.url+"/v1/"+t.name, &st)
		v.expect(err == nil && st.LiveRows == t.mir.liveRows(),
			"%s: live rows %d, mirror %d (%v)", t.name, st.LiveRows, t.mir.liveRows(), err)
		for _, fd := range lineitemFDs {
			var got serve.MeasuresResponse
			err := getJSON(h.url+"/v1/"+t.name+"/measures?fd="+fd.label, &got)
			x, y := parseSpec(fd.spec)
			want := t.mir.counts(x, y)
			v.expect(err == nil && got.Measures.ConfidenceRatio == want.ratio() &&
				got.Measures.Goodness == want.goodness() && got.Measures.Exact == want.exact(),
				"%s %s: served %s g=%d, oracle %s g=%d (%v)", t.name, fd.label,
				got.Measures.ConfidenceRatio, got.Measures.Goodness, want.ratio(), want.goodness(), err)
		}
		ten, err := h.reg.Get(t.name)
		if err != nil {
			v.expect(false, "%s: %v", t.name, err)
			continue
		}
		v.expect(relationHash(ten.Session().Relation()) == t.mir.contentHash(t.codec),
			"%s: recovered tuples differ from the acknowledged writes", t.name)
	}
}

// relationHash is mirror.contentHash over the program's relation.
func relationHash(rel *evolvefd.Relation) uint64 {
	var sum uint64
	var buf []byte
	for id := 0; id < rel.NumRows(); id++ {
		if rel.IsDeleted(id) {
			continue
		}
		buf = buf[:0]
		for c := 0; c < numCols; c++ {
			v := rel.Value(id, c)
			switch colKinds[c] {
			case "int":
				buf = strconv.AppendInt(buf, v.AsInt(), 10)
			case "float":
				buf = strconv.AppendFloat(buf, v.AsFloat(), 'f', 2, 64)
			default:
				buf = append(buf, v.AsString()...)
			}
			buf = append(buf, 0)
		}
		sum += hashBytes(buf)
	}
	return sum
}

// verdict counts attempted and failed operations and keeps the first few
// failure messages.
type verdict struct {
	attempted, failed int
	messages          []string
}

func (v *verdict) expect(ok bool, format string, args ...any) {
	v.attempted++
	if ok {
		return
	}
	v.failed++
	if len(v.messages) < 10 {
		v.messages = append(v.messages, fmt.Sprintf(format, args...))
	}
}

func (v *verdict) add(attempted, failed int, err error) {
	v.attempted += attempted
	v.failed += failed
	if err != nil && len(v.messages) < 10 {
		v.messages = append(v.messages, err.Error())
	}
}
