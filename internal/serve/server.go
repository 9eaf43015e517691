package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/lineio"
	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/scenario"
	"repro/internal/sweep/pool"
	"repro/internal/traffic"
	"repro/internal/wcet"
	"repro/internal/workload"
)

const (
	// defaultQueueDepth bounds each connection's ordered-response queue (and
	// the shared worker task queue): at most this many lines are admitted
	// ahead of the writer, after which the reader blocks — backpressure
	// instead of unbounded buffering.
	defaultQueueDepth = 256

	// maxNodes is the largest mesh (width x height endpoints) any verb
	// accepts: 128x128. Every table a verb builds is at least O(nodes), so
	// the ceiling is checked before the first allocation.
	maxNodes = 128 * 128

	// maxScenarioSide is the longest side of a scenario line's mesh. A
	// scenario runs whole-mesh kernels whose tables grow with a side times
	// the node count, so maxNodes alone does not bound them: the regular
	// all-pairs summary of an 11111x1 strip allocated 2.8 GB, and ran for
	// seconds, before it first asked for its deadline. Every mesh up to
	// 128x128 is accepted.
	maxScenarioSide = 128

	// MaxPayloadBits is the largest payload_bits the wctt and batch verbs
	// accept (a 512 MiB message), checked before any flit arithmetic.
	MaxPayloadBits = 1 << 32

	// MaxBatchTuples is the largest queries array the batch and wcet-batch
	// verbs accept. The scan that decodes the line counts the tuples and
	// stores no more than MaxBatchTuples of them, so the ceiling is checked
	// before a model is looked up, a response byte allocated or a bound
	// computed.
	MaxBatchTuples = 1 << 20

	// maxRecycled is the largest buffer handed back for reuse: the copy of a
	// serve-batch line (4032 tuples, about 40 KiB) and its response fit, and
	// a longer line's buffers are left to the collector, so what the pool
	// keeps stays small whatever lines a caller sends.
	maxRecycled = 64 << 10
)

// recycled is a byte buffer that goes back to a pool when its holder is done
// with it: the copy of a line handed to the worker pool, or the response of a
// vector verb.
type recycled struct{ b []byte }

var recycledBufs = sync.Pool{New: func() any { return new(recycled) }}

// newRecycled returns an empty buffer from the pool.
func newRecycled() *recycled {
	r := recycledBufs.Get().(*recycled)
	r.b = r.b[:0]
	return r
}

// release hands r back to the pool, its bytes only when they are at most
// maxRecycled. Nothing may use r or its bytes afterwards.
func (r *recycled) release() {
	if cap(r.b) > maxRecycled {
		r.b = nil
	}
	recycledBufs.Put(r)
}

// checkNodeLimit rejects a mesh above maxNodes with the coded limit error.
// A side below 1 is left to the verb's own validation; each side is compared
// before the product, which therefore cannot overflow.
func checkNodeLimit(width, height int) error {
	if width < 1 || height < 1 {
		return nil
	}
	if width > maxNodes || height > maxNodes || width*height > maxNodes {
		return limitError("mesh %dx%d exceeds the limit of %d nodes", width, height, maxNodes)
	}
	return nil
}

// limitError is the coded, non-retryable error of a request that asks for
// more than the daemon will build or compute.
func limitError(format string, args ...any) error {
	return &protoError{msg: fmt.Sprintf(format, args...), code: "limit", retryable: false}
}

// checkPayload validates a payload_bits value, top-level or in a batch tuple:
// negative is a bad request, above MaxPayloadBits the coded limit error.
func checkPayload(bits int64) error {
	if bits < 0 {
		return fmt.Errorf("payload_bits must not be negative, got %d", bits)
	}
	if bits > MaxPayloadBits {
		return limitError("payload_bits %d exceeds the limit of %d", bits, int64(MaxPayloadBits))
	}
	return nil
}

// checkTuples rejects a queries array above MaxBatchTuples with the coded
// limit error.
func checkTuples(tuples int) error {
	if tuples > MaxBatchTuples {
		return limitError("queries holds %d tuples, which exceeds the limit of %d", tuples, MaxBatchTuples)
	}
	return nil
}

// checkMaxPacket rejects a max_packet_flits above the scenario layer's
// ceiling with the coded limit error, before an engine is looked up or built.
func checkMaxPacket(flits int) error {
	if flits > scenario.MaxPacketFlitsLimit {
		return limitError("max_packet_flits %d exceeds the limit of %d", flits, scenario.MaxPacketFlitsLimit)
	}
	return nil
}

// Server answers protocol lines over any number of concurrent transports
// (stdin pipe, TCP connections, HTTP bodies) from one shared worker pool
// and the scenario layer's model and engine caches; responses on each
// transport come back in request order. A scenario line shares nothing with
// another: it runs its own execution under its own deadline budget.
//
// Caches and worker scheduling are execution policy, never result identity:
// a response is byte-identical whether its model or engine came from a cache
// or a fresh build, and byte-identical to the one-shot CLI.
type Server struct {
	workers *pool.Workers
	queue   int
	cfg     Config
	stats   counters

	// admitted counts server-wide admitted-but-unanswered lines; the
	// admission gate (Config.MaxInflight) reads it before queueing a line.
	admitted atomic.Int64

	// testHold, set only by tests, runs on the pool worker between a line's
	// decode and its verb: a test blocks in it to make "this line is still
	// running" a fact instead of a race against the verb's speed.
	testHold func(op string)

	drainCh   chan struct{}
	drainOnce sync.Once
	closeOnce sync.Once
	inflight  sync.WaitGroup // active ServeLines loops

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	readers   map[deadlineReader]struct{}
}

// deadlineReader is a blocking line source Shutdown can unblock: net.Conn
// and *os.File (pipes, stdin) both implement it.
type deadlineReader interface {
	SetReadDeadline(t time.Time) error
}

// Config sizes the server and tunes its resilience policy. The zero value
// is a GOMAXPROCS-wide pool with per-connection backpressure only: no
// admission gate, no deadlines.
type Config struct {
	// Workers is the shared pool size (<1 = GOMAXPROCS, the pool.Jobs
	// convention).
	Workers int
	// Queue is the per-connection response-queue depth (<1 = the default).
	Queue int
	// MaxInflight bounds admitted-but-unanswered lines across every
	// transport; excess lines are answered immediately with the retryable
	// "server overloaded" error instead of queueing behind a backlog the
	// caller's deadline cannot survive. 0 disables the gate (per-connection
	// backpressure still applies).
	MaxInflight int
	// QueryTimeout is the default deadline budget of the query verbs
	// (wctt, batch, wcet, wcet-batch); ScenarioTimeout that of the
	// scenario verb. 0 means no deadline. A request's timeout_ms can only
	// tighten its budget.
	QueryTimeout    time.Duration
	ScenarioTimeout time.Duration
}

// NewServer builds a server. The worker pool is shared by every transport
// the server is attached to, so total concurrency is bounded regardless of
// connection count.
func NewServer(cfg Config) *Server {
	queue := cfg.Queue
	if queue < 1 {
		queue = defaultQueueDepth
	}
	return &Server{
		workers:   pool.NewWorkers(cfg.Workers, queue),
		queue:     queue,
		cfg:       cfg,
		drainCh:   make(chan struct{}),
		listeners: make(map[net.Listener]struct{}),
		readers:   make(map[deadlineReader]struct{}),
	}
}

// draining reports whether Shutdown has been called.
func (s *Server) draining() bool {
	select {
	case <-s.drainCh:
		return true
	default:
		return false
	}
}

// Shutdown gracefully drains the server: line admission stops everywhere
// (listeners close, blocked reads are unblocked, readers stop at the next
// line boundary), every already-admitted line is handled and its response
// written, then Shutdown returns. It is idempotent and safe to call
// concurrently with serving.
func (s *Server) Shutdown() {
	s.drainOnce.Do(func() { close(s.drainCh) })
	s.mu.Lock()
	for ln := range s.listeners {
		_ = ln.Close()
	}
	for r := range s.readers {
		_ = r.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	s.inflight.Wait()
}

// Close drains the server and releases its worker pool. The server cannot
// be reused afterwards.
func (s *Server) Close() {
	s.Shutdown()
	s.closeOnce.Do(func() { s.workers.Close() })
}

// Stats snapshots the server counters, shared-cache stats and latency
// histogram.
func (s *Server) Stats() Stats { return s.stats.snapshot() }

// slot is one response's place in a connection's ordered queue: ready holds
// the bytes of a line answered on the reader goroutine, pending delivers
// those of a line handed to the pool.
type slot struct {
	ready   []byte
	pending chan reply
}

// reply is the response of a line answered on the worker pool. When buf is
// set, b lies in it and the writer owns it: it releases buf once b is
// written. Only a vector verb's response is recycled.
type reply struct {
	b   []byte
	buf *recycled
}

// conn is the state of one ServeLines stream. Two goroutines share its
// buffered writer without a lock: the writer goroutine touches bw only
// between receiving a slot and decrementing queued for it, and the reader
// only while it reads queued as 0 — and only the reader sends slots.
type conn struct {
	s     *Server
	r     io.Reader
	bw    *bufio.Writer
	order chan slot
	// queued counts slots sent to order that the writer goroutine has not
	// finished writing. While it is 0 the reader owns bw.
	queued atomic.Int64
	dec    flatDecoder
	out    []byte // the reader goroutine's response scratch
}

// Read is the line scanner's source. The scanner calls it only when it
// holds no complete line, that is when the server has consumed all the
// input it has received: what the reader goroutine answered since the last
// call is flushed here, one transport write per burst of lines (per line
// for a closed-loop caller), before blocking for more.
func (c *conn) Read(p []byte) (int, error) {
	if c.queued.Load() == 0 {
		_ = c.bw.Flush() // a write error is sticky in bw; ServeLines returns it from its last Flush
	}
	return c.r.Read(p)
}

// writeLoop resolves queued slots in order. It flushes when it catches up
// and before it waits on an unresolved slot, so a finished response is never
// held back by a slower line behind it.
func (c *conn) writeLoop(done chan<- struct{}) {
	defer close(done)
	for sl := range c.order {
		r := reply{b: sl.ready}
		if r.b == nil {
			select {
			case r = <-sl.pending:
			default:
				_ = c.bw.Flush() // sticky, as in Read
				r = <-sl.pending
			}
		}
		c.write(r.b) // copies r.b into bw, or writes it through before returning
		if r.buf != nil {
			r.buf.release()
		}
		if len(c.order) == 0 {
			_ = c.bw.Flush()
		}
		c.queued.Add(-1)
	}
}

// write buffers one response line; write errors are sticky in bw.
func (c *conn) write(resp []byte) {
	_, _ = c.bw.Write(resp)
	_ = c.bw.WriteByte('\n')
}

// enqueue reserves the next place in the response order.
func (c *conn) enqueue(sl slot) {
	c.queued.Add(1)
	c.order <- sl
}

// deliver emits a response computed on the reader goroutine at its place in
// request order: into the buffered writer directly when no earlier response
// is still queued, else as an already-resolved slot behind those that are.
func (c *conn) deliver(resp []byte) {
	if c.queued.Load() == 0 {
		c.write(resp)
		return
	}
	c.enqueue(slot{ready: bytes.Clone(resp)})
}

// inline answers a flat wctt, wcet or ping request on the reader goroutine
// and reports whether it did. false sends the line to the pool: its verb
// needs a model or engine that is not built yet — the pool bounds cold builds
// by Config.Workers however many connections ask at once.
func (c *conn) inline(ctx context.Context, req *Request, start time.Time) bool {
	resp, failed := c.s.answer(ctx, c.out[:0], req, nil, true)
	if resp == nil {
		return false
	}
	c.s.stats.observe(uint64(time.Since(start).Nanoseconds()), failed)
	c.out = resp
	c.deliver(resp)
	return true
}

// reject answers a line without admitting it: the id is recovered from the
// raw bytes (best effort — a line that is not JSON echoes its id only if it
// leads the line, else 0) and the coded error takes the line's place in
// request order.
func (c *conn) reject(raw []byte, pe *protoError) {
	id, ok := lineID(raw)
	if !ok {
		var hdr struct {
			ID int64 `json:"id"`
		}
		_ = json.Unmarshal(raw, &hdr) // best effort: id stays 0
		id = hdr.ID
	}
	c.s.stats.reject()
	c.out = appendError(c.out[:0], id, pe)
	c.deliver(c.out)
}

// ServeLines reads newline-delimited requests from r and writes one
// response line per request to w, in request order, until EOF, context
// cancellation or drain. Every line meets the flat decoder here, once. A flat
// wctt, wcet or ping line whose model or engine is already built is answered
// where it is read, on this goroutine; every other line reserves a slot in a
// bounded ordered queue and goes to the shared pool — with its Request if the
// flat decoder read it, for encoding/json to decode there if not — and a
// writer goroutine resolves the slots in order. When
// the queue is full the reader blocks — backpressure — so at most
// queue-depth lines are in flight per connection. Output is flushed whenever
// all received input has been consumed and before waiting on a slower line.
func (s *Server) ServeLines(ctx context.Context, r io.Reader, w io.Writer) error {
	if s.draining() {
		return fmt.Errorf("serve: %w", errDraining)
	}
	s.inflight.Add(1)
	defer s.inflight.Done()
	if dr, ok := r.(deadlineReader); ok {
		s.mu.Lock()
		s.readers[dr] = struct{}{}
		s.mu.Unlock()
		defer func() {
			s.mu.Lock()
			delete(s.readers, dr)
			s.mu.Unlock()
		}()
	}

	c := &conn{s: s, r: r, bw: bufio.NewWriterSize(w, 64<<10), order: make(chan slot, s.queue)}
	writerDone := make(chan struct{})
	go c.writeLoop(writerDone)

	sc := lineio.NewScanner(c)
	drainAnswers := 0
	for sc.Scan() {
		if ctx.Err() != nil {
			break
		}
		raw := sc.Bytes()
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		if s.draining() {
			// Answer lines still buffered behind the drain point with the
			// coded retryable error — the stdin/TCP mirror of the HTTP 503 —
			// instead of dropping them silently. The answer count is bounded
			// so Shutdown terminates even on a reader the deadline poke
			// cannot unblock (an HTTP request body).
			if drainAnswers >= s.queue {
				break
			}
			drainAnswers++
			c.reject(raw, errDraining)
			continue
		}
		if s.cfg.MaxInflight > 0 && s.admitted.Load() >= int64(s.cfg.MaxInflight) {
			c.reject(raw, errOverloaded)
			continue
		}
		s.admitted.Add(1)
		start := time.Now()
		req, flat := c.dec.decode(raw)
		if flat && !vectorOp(req.Op) && c.inline(ctx, req, start) {
			s.admitted.Add(-1)
			continue
		}
		line := newRecycled()
		line.b = append(line.b, raw...)
		var tl *tupleList
		if flat {
			req, tl = c.dec.handOff(line.b)
		}
		pending := make(chan reply, 1)
		c.enqueue(slot{pending: pending})
		s.workers.Submit(func() {
			defer s.admitted.Add(-1)
			r := s.handleLine(ctx, line.b, req, tl)
			line.release() // nothing the verb returns points into the line
			pending <- r
		})
	}
	readErr := sc.Err()
	close(c.order)
	<-writerDone
	writeErr := c.bw.Flush()

	if readErr != nil && s.draining() {
		readErr = nil // the deadline poke that unblocked the read
	}
	if readErr == nil {
		readErr = writeErr
	}
	if readErr == nil && !s.draining() {
		readErr = ctx.Err()
	}
	return readErr
}

// ServeListener accepts connections until the listener fails, the context
// is cancelled or the server drains, running each connection through
// ServeLines on its own goroutine (the worker pool stays shared). It
// returns nil on graceful drain.
func (s *Server) ServeListener(ctx context.Context, ln net.Listener) error {
	s.mu.Lock()
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
		_ = ln.Close()
	}()

	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining() || ctx.Err() != nil {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func(c net.Conn) {
			defer wg.Done()
			_ = s.ServeLines(ctx, c, c) // registers c for drain unblocking
			_ = c.Close()
		}(conn)
	}
}

// Handler exposes the protocol over HTTP: POST runs the request body
// through ServeLines (one response line per body line, request order), GET
// returns the stats snapshot. A draining server answers 503.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.draining() {
			http.Error(w, "server draining", http.StatusServiceUnavailable)
			return
		}
		switch r.Method {
		case http.MethodGet:
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(s.Stats())
		case http.MethodPost:
			w.Header().Set("Content-Type", "application/x-ndjson")
			_ = s.ServeLines(r.Context(), r.Body, w)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
}

// handleLine answers one line on a pool worker and records its latency. req
// and tl are what the flat decoder read from the line; a nil req is a line it
// declined, which encoding/json decodes here.
func (s *Server) handleLine(ctx context.Context, line []byte, req *Request, tl *tupleList) reply {
	start := time.Now()
	r, failed := s.dispatch(ctx, line, req, tl)
	s.stats.observe(uint64(time.Since(start).Nanoseconds()), failed)
	return r
}

// requestCtx derives the request's deadline context: the verb's configured
// budget, tightened by the request's own timeout_ms. The returned cancel is
// nil when no deadline applies.
func (s *Server) requestCtx(ctx context.Context, req *Request) (context.Context, context.CancelFunc) {
	var budget time.Duration
	switch req.Op {
	case "scenario":
		budget = s.cfg.ScenarioTimeout
	case "wctt", "batch", "wcet", "wcet-batch":
		budget = s.cfg.QueryTimeout
	}
	if req.TimeoutMS > 0 {
		t := time.Duration(req.TimeoutMS) * time.Millisecond
		if budget == 0 || t < budget {
			budget = t
		}
	}
	if budget <= 0 {
		return ctx, nil
	}
	return context.WithTimeout(ctx, budget)
}

// dispatch answers one line (see handleLine); the bool reports failure. A
// vector verb appends its response, error or not, to the bytes of a recycled
// buffer, which the reply hands to the writer; every other verb's response is
// its own allocation.
func (s *Server) dispatch(ctx context.Context, line []byte, req *Request, tl *tupleList) (reply, bool) {
	if req == nil {
		req = new(Request)
		if err := json.Unmarshal(line, req); err != nil {
			return reply{b: errorResponse(0, fmt.Errorf("parse: %w", err))}, true
		}
	}
	if s.testHold != nil {
		s.testHold(req.Op)
	}
	if !vectorOp(req.Op) {
		resp, failed := s.answer(ctx, nil, req, tl, false)
		return reply{b: resp}, failed
	}
	buf := newRecycled()
	resp, failed := s.answer(ctx, buf.b, req, tl, false)
	buf.b = resp
	return reply{b: resp, buf: buf}, failed
}

// answer runs one decoded request and returns its response appended to dst;
// the bool reports failure. It is the one place a verb is given its deadline
// budget, validated and executed, whichever decoder read the line and
// whichever goroutine runs it. tl holds the tuples of req.Queries as the flat
// decoder read them; when it is nil, a vector verb's array is scanned here,
// once. answer releases tl. inline is set by the reader goroutine, which only
// brings wctt, wcet and ping: a verb that would have to build a model or
// compile an engine then returns nil instead, and the line is run again from
// the pool.
func (s *Server) answer(ctx context.Context, dst []byte, req *Request, tl *tupleList, inline bool) ([]byte, bool) {
	if tl == nil && vectorOp(req.Op) {
		// A malformed array is the verb's to report, where it always was.
		tl = tupleLists.Get().(*tupleList)
		tl.scanQueries(req.Queries)
	}
	if tl != nil {
		defer tupleLists.Put(tl)
	}
	rctx, cancel := s.requestCtx(ctx, req)
	if cancel != nil {
		defer cancel()
	}
	// A line whose budget is already spent is answered with the coded
	// deadline error before any work starts.
	if err := rctx.Err(); err != nil {
		return appendError(dst, req.ID, wireError(req.Op, err)), true
	}
	switch req.Op {
	case "ping":
		return append(appendHeader(dst, req.ID, true), '}'), false
	case "wctt":
		return s.wcttOne(dst, req, inline)
	case "batch":
		return s.wcttBatch(rctx, dst, req, tl)
	case "wcet":
		return s.wcetOne(rctx, dst, req, inline)
	case "wcet-batch":
		return s.wcetBatch(rctx, dst, req, tl)
	case "scenario":
		return s.scenarioOp(rctx, req)
	case "stats":
		return s.statsOp(req)
	default:
		return appendError(dst, req.ID, fmt.Errorf("unknown op %q", req.Op)), true
	}
}

// queryTarget resolves the design/mesh/topology fields shared by every
// query verb. The topology defaults to the 2D mesh; whether a non-default
// topology is acceptable is the verb's decision (the analytical verbs defer
// to the model, the WCET verbs are mesh-only).
func queryTarget(req *Request) (network.Design, mesh.Dim, mesh.TopoSpec, error) {
	design, err := scenario.ParseDesign(req.Design)
	if err != nil {
		return 0, mesh.Dim{}, mesh.TopoSpec{}, err
	}
	if err := checkNodeLimit(req.Width, req.Height); err != nil {
		return 0, mesh.Dim{}, mesh.TopoSpec{}, err
	}
	dim, err := mesh.NewDim(req.Width, req.Height)
	if err != nil {
		return 0, mesh.Dim{}, mesh.TopoSpec{}, err
	}
	ts, err := mesh.ParseTopology(req.Topology)
	if err != nil {
		return 0, mesh.Dim{}, mesh.TopoSpec{}, err
	}
	return design, dim, ts, nil
}

// meshOnly rejects non-mesh topologies for the WCET verbs, which model the
// paper's many-core platform (memory controller placement, EEMBC traffic
// phases) and are defined on the 2D mesh only.
func meshOnly(verb string, ts mesh.TopoSpec) error {
	if ts.Kind != mesh.TopoMesh {
		return fmt.Errorf("%s: the paper's many-core WCET platform is defined on the 2D mesh only; topology %v is not supported (omit the topology field or set it to \"mesh\")", verb, ts)
	}
	return nil
}

// wcttOne answers the wctt verb (see answer for dst and inline).
func (s *Server) wcttOne(dst []byte, req *Request, inline bool) ([]byte, bool) {
	design, dim, ts, err := queryTarget(req)
	if err != nil {
		return appendError(dst, req.ID, err), true
	}
	if req.Src == nil || req.Dst == nil {
		return appendError(dst, req.ID, errors.New("wctt: src and dst are required")), true
	}
	if err := checkPayload(int64(req.PayloadBits)); err != nil {
		return appendError(dst, req.ID, err), true
	}
	payload := req.PayloadBits
	if payload == 0 {
		payload = traffic.RequestPayloadBits
	}
	p := analysis.DefaultParams(dim)
	p.Topo = ts
	var m *analysis.Model
	if inline {
		var ok bool
		if m, ok = scenario.CachedModel(p); !ok {
			return nil, false
		}
	} else if m, err = scenario.SharedModel(p); err != nil {
		return appendError(dst, req.ID, err), true
	}
	c, err := m.MessageWCTT(design,
		mesh.Node{X: req.Src.X, Y: req.Src.Y}, mesh.Node{X: req.Dst.X, Y: req.Dst.Y}, payload)
	if err != nil {
		return appendError(dst, req.ID, err), true
	}
	s.stats.queries.Add(1)
	return appendCycles(dst, req.ID, c), false
}

// wcttBatch answers the batch verb: a vector of WCTT queries sharing one
// design/mesh (and default payload), answered in one call of the model's
// grouped kernel sweeps. The response, error or not, is appended to dst.
func (s *Server) wcttBatch(ctx context.Context, dst []byte, req *Request, tl *tupleList) ([]byte, bool) {
	design, dim, ts, err := queryTarget(req)
	if err != nil {
		return appendError(dst, req.ID, err), true
	}
	if err := checkPayload(int64(req.PayloadBits)); err != nil {
		return appendError(dst, req.ID, err), true
	}
	if err := checkTuples(tl.n); err != nil {
		return appendError(dst, req.ID, err), true
	}
	defPayload := req.PayloadBits
	if defPayload == 0 {
		defPayload = traffic.RequestPayloadBits
	}
	p := analysis.DefaultParams(dim)
	p.Topo = ts
	m, err := scenario.SharedModel(p)
	if err != nil {
		return appendError(dst, req.ID, err), true
	}
	// The first bad tuple fails the line, unless a tuple before it is
	// invalid for the model: the model answers only the tuples before it.
	valid, bad := tl.prefix(req.Queries, 4, 5)
	for i, t := range tl.tuples[:valid] {
		if t.n == 5 {
			if err := checkPayload(t.v[4]); err != nil {
				valid, bad = i, err
				break
			}
		}
	}
	cycles, err := m.BatchMessageWCTT(ctx, design, valid, func(i int) (mesh.Node, mesh.Node, int) {
		t := &tl.tuples[i]
		payload := defPayload
		if t.n == 5 {
			payload = int(t.v[4])
		}
		return mesh.Node{X: int(t.v[0]), Y: int(t.v[1])}, mesh.Node{X: int(t.v[2]), Y: int(t.v[3])}, payload
	}, tl.cycles)
	if err == nil {
		tl.cycles, err = cycles, bad
	}
	return s.cyclesVector(dst, req, cycles, err)
}

// cyclesVector appends the one response line of a vector verb to dst: the
// bounds of every tuple, or err. The query count merges once, on success — the
// million-QPS path touches no shared cache line per query, and a line that
// fails has answered no bound.
func (s *Server) cyclesVector(dst []byte, req *Request, cycles []uint64, err error) ([]byte, bool) {
	if err != nil {
		return appendError(dst, req.ID, wireError(req.Op, err)), true
	}
	// One reservation: the header and brackets take under 64 bytes, and each
	// bound at most the digits of the largest and a comma.
	var most uint64
	for _, c := range cycles {
		most = max(most, c)
	}
	buf := appendHeader(slices.Grow(dst, 64+(decimalLen(most)+1)*len(cycles)), req.ID, true)
	buf = append(buf, `,"cycles":[`...)
	buf = buf[:putDecimals(buf[:cap(buf)], len(buf), cycles)]
	s.stats.queries.Add(uint64(len(cycles)))
	return append(buf, ']', '}'), false
}

// wcetOne answers the wcet verb (see answer for dst and inline) under the
// line's deadline context.
func (s *Server) wcetOne(ctx context.Context, dst []byte, req *Request, inline bool) ([]byte, bool) {
	design, dim, ts, err := queryTarget(req)
	if err != nil {
		return appendError(dst, req.ID, err), true
	}
	if err := meshOnly("wcet", ts); err != nil {
		return appendError(dst, req.ID, err), true
	}
	if err := checkMaxPacket(req.MaxPacketFlits); err != nil {
		return appendError(dst, req.ID, err), true
	}
	if req.Core == nil {
		return appendError(dst, req.ID, errors.New("wcet: core is required")), true
	}
	b, err := workload.BenchmarkByName(req.Workload)
	if err != nil {
		return appendError(dst, req.ID, err), true
	}
	var eng *wcet.Engine
	if inline {
		var ok bool
		if eng, ok = scenario.CachedEngine(dim, req.MaxPacketFlits); !ok {
			return nil, false
		}
	} else if eng, err = scenario.SharedEngine(dim, req.MaxPacketFlits); err != nil {
		return appendError(dst, req.ID, err), true
	}
	c, err := eng.BenchmarkWCET(ctx, design, mesh.Node{X: req.Core.X, Y: req.Core.Y}, b)
	if err != nil {
		return appendError(dst, req.ID, wireError(req.Op, err)), true
	}
	s.stats.queries.Add(1)
	return appendCycles(dst, req.ID, c), false
}

// wcetBatch answers the wcet-batch verb: per-core WCET estimates sharing
// one design/mesh/workload, queries = [[cx,cy],...]. The response, error or
// not, is appended to dst.
func (s *Server) wcetBatch(ctx context.Context, dst []byte, req *Request, tl *tupleList) ([]byte, bool) {
	design, dim, ts, err := queryTarget(req)
	if err != nil {
		return appendError(dst, req.ID, err), true
	}
	if err := meshOnly("wcet-batch", ts); err != nil {
		return appendError(dst, req.ID, err), true
	}
	if err := checkMaxPacket(req.MaxPacketFlits); err != nil {
		return appendError(dst, req.ID, err), true
	}
	if err := checkTuples(tl.n); err != nil {
		return appendError(dst, req.ID, err), true
	}
	b, err := workload.BenchmarkByName(req.Workload)
	if err != nil {
		return appendError(dst, req.ID, err), true
	}
	eng, err := scenario.SharedEngine(dim, req.MaxPacketFlits)
	if err != nil {
		return appendError(dst, req.ID, err), true
	}
	valid, err := tl.prefix(req.Queries, 2, 2)
	tl.cycles = tl.cycles[:0]
	for i, t := range tl.tuples[:valid] {
		// One ctx.Err() per 1024 tuples keeps the hot path unburdened while a
		// stalled line still stops within a bounded slice of work.
		if i%1024 == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return s.cyclesVector(dst, req, nil, cerr)
			}
		}
		c, berr := eng.BenchmarkWCET(ctx, design, mesh.Node{X: int(t.v[0]), Y: int(t.v[1])}, b)
		if berr != nil {
			return s.cyclesVector(dst, req, nil, berr)
		}
		tl.cycles = append(tl.cycles, c)
	}
	return s.cyclesVector(dst, req, tl.cycles, err)
}

// scenarioOp answers the scenario verb: a whole concrete scenario.Spec,
// executed through the same ExecuteContext path as the CLI under this line's
// own context, so its deadline budget is its alone; the embedded result JSON
// is byte-identical to json.Marshal of the CLI's Result.
func (s *Server) scenarioOp(ctx context.Context, req *Request) ([]byte, bool) {
	if req.Spec == nil {
		return errorResponse(req.ID, errors.New("scenario: missing spec")), true
	}
	spec := *req.Spec
	if err := checkNodeLimit(spec.Width, spec.Height); err != nil {
		return errorResponse(req.ID, err), true
	}
	if spec.Width > maxScenarioSide || spec.Height > maxScenarioSide {
		return errorResponse(req.ID, limitError("scenario: mesh %dx%d exceeds the limit of %dx%d",
			spec.Width, spec.Height, maxScenarioSide, maxScenarioSide)), true
	}
	if err := spec.Validate(); err != nil {
		return errorResponse(req.ID, err), true
	}
	switch spec.Mode {
	case scenario.ModeWCTT, scenario.ModeWCETMap, scenario.ModeParallelWCET:
		// These modes run on the kernel-backed analytical paths (all-pairs
		// summaries, all-cores UBD rows); surface that in the stats verb.
		s.stats.scenarioKernel.Add(1)
	}
	r, err := scenario.ExecuteContext(ctx, spec)
	if err != nil {
		return errorResponse(req.ID, wireError("scenario", err)), true
	}
	res, err := json.Marshal(r)
	if err != nil {
		return errorResponse(req.ID, err), true
	}
	buf := appendHeader(make([]byte, 0, len(res)+32), req.ID, true)
	buf = append(buf, `,"result":`...)
	buf = append(buf, res...)
	return append(buf, '}'), false
}

// statsOp answers the stats verb.
func (s *Server) statsOp(req *Request) ([]byte, bool) {
	payload, err := json.Marshal(s.stats.snapshot())
	if err != nil {
		return errorResponse(req.ID, err), true
	}
	buf := appendHeader(make([]byte, 0, len(payload)+32), req.ID, true)
	buf = append(buf, `,"stats":`...)
	buf = append(buf, payload...)
	return append(buf, '}'), false
}
