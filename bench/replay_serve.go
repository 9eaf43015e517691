package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"time"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/lineio"
	"repro/internal/mesh"
	"repro/internal/serve"
)

// inprocServer is a serve.Server answering lines over in-memory pipes: the
// program's whole serving stack without the kernel's TCP path.
type inprocServer struct {
	srv    *serve.Server
	reqW   *io.PipeWriter
	respW  *io.PipeWriter
	rd     *bufio.Reader
	cancel context.CancelFunc
	done   chan error
}

func startInproc(ctx context.Context) *inprocServer {
	ctx, cancel := context.WithCancel(ctx)
	reqR, reqW := io.Pipe()
	respR, respW := io.Pipe()
	s := &inprocServer{srv: serve.NewServer(serve.Config{}), reqW: reqW, respW: respW,
		rd: bufio.NewReaderSize(respR, 1<<18), cancel: cancel, done: make(chan error, 1)}
	go func() {
		err := s.srv.ServeLines(ctx, reqR, respW)
		respW.Close()
		s.done <- err
	}()
	return s
}

// errNoAnswer is what a round trip returns once abort has run.
var errNoAnswer = errors.New("bench: in-process server did not answer within " + sendTimeout.String())

// abort unblocks a round trip the server never answers: pipes have no
// deadlines, so a watchdog timer closes them instead.
func (s *inprocServer) abort() {
	s.cancel()
	s.reqW.CloseWithError(errNoAnswer)
	s.respW.CloseWithError(errNoAnswer)
}

// roundTrip sends one line and reads its response line.
func (s *inprocServer) roundTrip(req []byte) ([]byte, error) {
	if _, err := s.reqW.Write(req); err != nil {
		return nil, err
	}
	got, err := s.rd.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return got[:len(got)-1], nil
}

// close ends the request stream, waits for ServeLines to return and releases
// the server's worker pool.
func (s *inprocServer) close() error {
	s.reqW.Close()
	defer s.cancel()
	select {
	case err := <-s.done:
		s.srv.Close()
		return err
	case <-time.After(5 * time.Second):
		return errors.New("bench: in-process server did not stop within 5s")
	}
}

// replayServe sends the workload's lines, closed-loop, one caller, through an
// in-process server: one span per request line. Every response must equal
// the oracle's. It returns the wall time of the timed lines.
func replayServe(ctx context.Context, tr *tracer, lines []serveLine, n int, res *result) (time.Duration, error) {
	s := startInproc(ctx)
	// The whole replay is a second of work at most.
	watchdog := time.AfterFunc(sendTimeout, s.abort)
	defer watchdog.Stop()
	for _, ln := range lines { // untimed pass: fill the model cache and memo
		if _, err := s.roundTrip(ln.req); err != nil {
			s.close()
			return 0, err
		}
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		ln := &lines[i%len(lines)]
		id := tr.begin("serve", "line", i)
		got, err := s.roundTrip(ln.req)
		tr.end(id)
		if err != nil {
			s.close()
			return 0, err
		}
		res.Attempted++
		if !bytes.Equal(got, ln.want) {
			res.Failed++
			res.fail("in-process line %d differs from the oracle", i)
		}
	}
	wall := time.Since(start)
	return wall, s.close()
}

// probeServeLayers times, over the workload's own request and response bytes,
// the per-line work the serve layer's callees do, each as one roll-up span
// of the replay: lineio scanning and writing, and the encoding/json decode
// into serve.Request that dispatch performs.
func probeServeLayers(tr *tracer, lines []serveLine, res *result) error {
	var reqs bytes.Buffer
	for _, ln := range lines {
		reqs.Write(ln.req)
	}
	const rounds = 5
	n := int64(rounds * len(lines))

	start := time.Now()
	for i := 0; i < rounds; i++ {
		sc := lineio.NewScanner(bytes.NewReader(reqs.Bytes()))
		seen := 0
		for sc.Scan() {
			seen++
		}
		if err := sc.Err(); err != nil || seen != len(lines) {
			return fmt.Errorf("lineio scan saw %d of %d lines: %v", seen, len(lines), err)
		}
	}
	scan := time.Since(start)
	tr.rollup("lineio", "scan", -1, n, int64(scan))
	res.set("lineio.scan_ns_per_line", float64(scan)/float64(n))

	w := bufio.NewWriterSize(io.Discard, 1<<16)
	start = time.Now()
	for i := 0; i < rounds; i++ {
		for _, ln := range lines {
			if err := lineio.WriteLine(w, ln.want); err != nil {
				return err
			}
		}
	}
	write := time.Since(start)
	tr.rollup("lineio", "write", -1, n, int64(write))
	res.set("lineio.write_ns_per_line", float64(write)/float64(n))

	start = time.Now()
	for i := 0; i < rounds; i++ {
		for _, ln := range lines {
			var req serve.Request
			if err := json.Unmarshal(ln.req, &req); err != nil {
				return err
			}
		}
	}
	decode := time.Since(start)
	tr.rollup("serve", "decode", -1, n, int64(decode))
	res.set("serve.decode_us_per_line", float64(decode.Microseconds())/float64(n))
	return nil
}

// probeCache times the two cache primitives a request line touches: an LRU
// hit keyed like the scenario layer's model cache, and a singleflight Do
// with nothing in flight.
func probeCache(res *result) {
	lru := cache.NewLRU[analysis.Params, int](128, nil)
	keys := make([]analysis.Params, 16)
	for i := range keys {
		keys[i] = analysis.DefaultParams(mesh.MustDim(i+2, i+2))
		lru.Put(keys[i], i)
	}
	const n = 1 << 18
	hits := 0
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, ok := lru.Get(keys[i&15]); ok {
			hits++
		}
	}
	res.set("cache.lru_get_ns", float64(time.Since(start).Nanoseconds())/n)
	if hits != n {
		res.fail("cache probe: %d of %d LRU gets hit", hits, n)
	}
	var g cache.Group[int, int]
	start = time.Now()
	for i := 0; i < n; i++ {
		_, _, _ = g.Do(i&15, func() (int, error) { return i, nil })
	}
	res.set("cache.singleflight_do_ns", float64(time.Since(start).Nanoseconds())/n)
}

// tcpPass runs the load generator against the real daemon for a couple of
// seconds and reads the daemon's side of the story: its CPU time per line,
// its stats verb, and how much of the machine the generator itself used. It
// returns the median raw round trip in µs.
func (r *runner) tcpPass(sz serveSizing, res *result) (float64, error) {
	rig, err := r.setupServe(sz)
	if err != nil {
		return 0, err
	}
	defer rig.close()
	cl := serve.NewClient(serve.ClientConfig{Dial: func() (net.Conn, error) { return net.Dial("tcp", rig.d.addr) }})
	defer cl.Close()
	stats := func() (*serve.Stats, error) {
		resp, err := cl.Do(r.ctx, &serve.Request{Op: "stats"})
		if err != nil || resp.Stats == nil {
			return nil, fmt.Errorf("stats verb: %v", err)
		}
		return resp.Stats, nil
	}
	before, err := stats()
	if err != nil {
		return 0, err
	}
	daemonBefore, err := rig.d.cpuTime()
	if err != nil {
		return 0, err
	}
	selfBefore := selfCPU()
	lines := 0
	seconds := min(2, r.seconds)
	var p50US, p99US []float64
	start := time.Now()
	for lines == 0 || time.Since(start).Seconds() < seconds {
		_, lat := rig.repetition(sz.linesPerRep)
		if bad := rig.badLines(); bad > 0 {
			return 0, fmt.Errorf("%d TCP lines lost, refused or different from the oracle", bad)
		}
		lines += serveConns * sz.linesPerRep
		p50US = append(p50US, float64(percentile(lat, 50))/1e3)
		p99US = append(p99US, float64(percentile(lat, 99))/1e3)
	}
	wall := time.Since(start)
	self := selfCPU() - selfBefore
	daemonAfter, err := rig.d.cpuTime()
	if err != nil {
		return 0, err
	}
	daemonCPU := daemonAfter - daemonBefore
	res.Attempted += lines
	// The generator's share of the machine while it generates: past a third,
	// it competes with the daemon for CPU and the numbers partly measure it.
	share := self.Seconds() / (wall.Seconds() * float64(runtime.NumCPU()))
	res.set("bench.loadgen_cpu_share", share)
	if share > 0.35 && !r.mini {
		res.notes = append(res.notes, fmt.Sprintf("load generator used %.0f%% of the machine: the numbers partly measure the generator", share*100))
	}
	res.set("serve.daemon_cpu_us_per_line", float64(daemonCPU.Microseconds())/float64(lines))
	rawUS := median(p50US)
	res.set("serve.tcp_us_per_line", rawUS)
	res.set("serve.tcp_p99_us", median(p99US))

	// serve.Client against one raw caller alone on the same lines: what the
	// resilient client adds to a round trip.
	alone := rig.callers[0]
	alone.send(256)
	aloneLat := slices.Clone(alone.lat)
	slices.Sort(aloneLat)
	aloneUS := float64(percentile(aloneLat, 50)) / 1e3
	reqs := make([]serve.Request, min(len(alone.lines), 256))
	for i := range reqs {
		if err := json.Unmarshal(alone.lines[i].req, &reqs[i]); err != nil {
			return 0, err
		}
	}
	var doUS []float64
	for i := range reqs {
		start := time.Now()
		resp, err := cl.Do(r.ctx, &reqs[i])
		doUS = append(doUS, float64(time.Since(start).Nanoseconds())/1e3)
		if err != nil || !resp.OK {
			return 0, fmt.Errorf("serve.Client.Do: %v %+v", err, resp)
		}
	}
	res.set("serve.client_do_us", median(doUS))
	res.set("serve.client_overhead_us", median(doUS)-aloneUS)

	// The daemon's own counters over the timed pass and the client probe
	// (the latency histogram is the daemon's lifetime, warm-up included).
	st, err := stats()
	if err != nil {
		return 0, err
	}
	hits, misses := st.WCTTMemoHits-before.WCTTMemoHits, st.WCTTMemoMisses-before.WCTTMemoMisses
	res.set("serve.srv_p50_ns", float64(st.Latency.P50NS))
	res.set("serve.srv_p99_ns", float64(st.Latency.P99NS))
	res.set("serve.memo_hit_share", float64(hits)/float64(hits+misses))
	res.set("serve.errors", float64(st.Errors))
	res.set("serve.rejected", float64(st.Rejected))
	res.set("serve.coalesced", float64(st.Coalesced))
	res.set("serve.batch_warms", float64(st.Kernel.BatchWarms))
	if st.Errors > 0 || st.Rejected > 0 {
		res.fail("daemon counted %d errors and %d rejected lines", st.Errors, st.Rejected)
	}
	return rawUS, nil
}
