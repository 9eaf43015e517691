package serve

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/scenario"
)

// scriptReader is a request stream under the test's control: every Read
// returns the next step's bytes, a step that returns nil only synchronises,
// and EOF follows the last step.
type scriptReader struct {
	steps []func() []byte
	buf   []byte
}

func (r *scriptReader) Read(p []byte) (int, error) {
	for len(r.buf) == 0 {
		if len(r.steps) == 0 {
			return 0, io.EOF
		}
		r.buf = r.steps[0]()
		r.steps = r.steps[1:]
	}
	n := copy(p, r.buf)
	r.buf = r.buf[n:]
	return n, nil
}

// chunk is a scriptReader step that yields fixed bytes.
func chunk(s string) func() []byte { return func() []byte { return []byte(s) } }

// holdGate installs the server's test hold: the first line of the given op
// to reach a pool worker closes held and then blocks until release is
// closed.
func holdGate(s *Server, op string) (held, release chan struct{}) {
	held, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	s.testHold = func(got string) {
		if got == op {
			once.Do(func() { close(held) })
			<-release
		}
	}
	return held, release
}

// recordingWriter is a transport that keeps every Write apart and announces
// each on wrote.
type recordingWriter struct {
	mu     sync.Mutex
	writes [][]byte
	wrote  chan struct{} // buffered: one token per Write
}

func newRecordingWriter() *recordingWriter {
	return &recordingWriter{wrote: make(chan struct{}, 1024)}
}

func (w *recordingWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.writes = append(w.writes, bytes.Clone(p))
	w.mu.Unlock()
	w.wrote <- struct{}{}
	return len(p), nil
}

func (w *recordingWriter) snapshot() [][]byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([][]byte(nil), w.writes...)
}

const (
	wcttWarm     = `{"id":%d,"op":"wctt","design":"waw+wap","width":4,"height":4,"src":{"x":0,"y":0},"dst":{"x":3,"y":3}}`
	quickScen    = `{"id":%d,"op":"scenario","spec":{"name":"quick","mode":"simulate","width":4,"height":4,"design":"regular","seed":1,"traffic":{"pattern":"uniform","rate":40,"messages":200}}}`
	overloadedAs = `{"id":%d,"ok":false,"error":"server overloaded","code":"overloaded","retryable":true}`
)

// serveString runs the lines through ServeLines on a plain buffer.
func serveString(t *testing.T, s *Server, lines string) string {
	t.Helper()
	var out bytes.Buffer
	if err := s.ServeLines(context.Background(), strings.NewReader(lines), &out); err != nil {
		t.Fatalf("ServeLines: %v", err)
	}
	return out.String()
}

// TestServeOverloadAdmission holds a scenario on the only admission slot of
// a MaxInflight=1 server — held by the server's test gate, so "still
// running" is a fact — and pins that the lines read behind it are answered
// at once with the exact overloaded error bytes, in request order, and
// counted as rejections rather than handled requests. The lines behind are
// flat pings the reader goroutine could answer itself: the admission check
// comes first.
func TestServeOverloadAdmission(t *testing.T) {
	s := NewServer(Config{Workers: 1, Queue: 8, MaxInflight: 1})
	defer s.Close()
	held, release := holdGate(s, "scenario")
	out := newRecordingWriter()
	in := &scriptReader{steps: []func() []byte{
		chunk(fmt.Sprintf(quickScen, 1) + "\n"),
		func() []byte {
			<-held
			return []byte(`{"id":2,"op":"ping"}` + "\n" + `{"id":3,"op":"ping"}` + "\n")
		},
		func() []byte {
			// The scanner asks for more only once both pings are handled:
			// they met the admission gate while the scenario was held.
			close(release)
			return nil
		},
	}}
	if err := s.ServeLines(context.Background(), in, out); err != nil {
		t.Fatalf("ServeLines: %v", err)
	}
	resps := splitLines(bytes.Join(out.snapshot(), nil))
	if len(resps) != 3 {
		t.Fatalf("got %d responses, want 3:\n%s", len(resps), bytes.Join(resps, []byte("\n")))
	}
	if !bytes.Contains(resps[0], []byte(`"ok":true`)) {
		t.Fatalf("scenario line failed: %s", resps[0])
	}
	for i, id := range []int{2, 3} {
		if want := fmt.Sprintf(overloadedAs, id); string(resps[i+1]) != want {
			t.Errorf("rejection %d:\ngot  %s\nwant %s", id, resps[i+1], want)
		}
	}
	st := s.Stats()
	if st.Rejected != 2 {
		t.Errorf("rejected counter %d, want 2", st.Rejected)
	}
	if st.Requests != 1 {
		t.Errorf("rejections leaked into the request counter: %d requests, want 1", st.Requests)
	}
}

// TestServeFastResponseNotHeldHostage pins the flush-before-wait rule: with
// a fast line and a slow line read in one burst, the fast response reaches
// the transport while the slow line is still running (held by the test
// gate), whichever goroutine answered the fast one.
func TestServeFastResponseNotHeldHostage(t *testing.T) {
	for _, c := range []struct{ name, fast, want string }{
		{"inline", `{"id":1,"op":"ping"}`, `{"id":1,"ok":true}`},
		{"pool", `{"id":1,"op":"ping","note":"unknown key, generic decode"}`, `{"id":1,"ok":true}`},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := NewServer(Config{Workers: 2})
			defer s.Close()
			held, release := holdGate(s, "scenario")
			out := newRecordingWriter()
			served := make(chan error, 1)
			go func() {
				served <- s.ServeLines(context.Background(),
					strings.NewReader(c.fast+"\n"+fmt.Sprintf(quickScen, 2)+"\n"), out)
			}()
			<-held
			select {
			case <-out.wrote:
			case <-time.After(10 * time.Second):
				t.Error("the fast response did not reach the transport while the slow line was running")
			}
			if got := out.snapshot(); len(got) != 1 || string(got[0]) != c.want+"\n" {
				t.Errorf("first write %q, want the fast response alone", got)
			}
			close(release)
			if err := <-served; err != nil {
				t.Fatalf("ServeLines: %v", err)
			}
			all := bytes.Join(out.snapshot(), nil)
			if !bytes.HasPrefix(all, []byte(c.want+"\n"+`{"id":2,"ok":true,"result":`)) {
				t.Fatalf("responses out of order or wrong: %s", all)
			}
		})
	}
}

// TestServeInterleavedOrder pipelines pool lines and reader-goroutine lines
// in one write: responses come back in request order, each with the bytes
// the line gets when it is served alone.
func TestServeInterleavedOrder(t *testing.T) {
	s := NewServer(Config{Workers: 2})
	defer s.Close()
	lines := []string{
		fmt.Sprintf(quickScen, 1),
		fmt.Sprintf(wcttWarm, 2),
		fmt.Sprintf(wcttWarm, 3),
		fmt.Sprintf(quickScen, 4),
		`{"id":5,"op":"ping"}`,
		fmt.Sprintf(wcttWarm, 6),
	}
	var want strings.Builder
	for _, line := range lines {
		want.WriteString(serveString(t, s, line+"\n"))
	}
	for round := 0; round < 20; round++ {
		if got := serveString(t, s, strings.Join(lines, "\n")+"\n"); got != want.String() {
			t.Fatalf("round %d: pipelined responses\n%s\nwant, line by line,\n%s", round, got, want.String())
		}
	}
}

// TestServeWriteCounts pins the flush rule from the transport's side: a
// burst of flat lines that arrives in one read is answered in one write, and
// a closed-loop caller (one line per read) gets one write per line.
func TestServeWriteCounts(t *testing.T) {
	s := NewServer(Config{Workers: 2})
	defer s.Close()
	serveString(t, s, fmt.Sprintf(wcttWarm, 0)+"\n") // build the model
	const n = 100
	var burst strings.Builder
	var steps []func() []byte
	for i := 1; i <= n; i++ {
		line := fmt.Sprintf(wcttWarm, i) + "\n"
		burst.WriteString(line)
		steps = append(steps, chunk(line))
	}
	want := serveString(t, s, burst.String())

	out := newRecordingWriter()
	if err := s.ServeLines(context.Background(), &scriptReader{steps: []func() []byte{chunk(burst.String())}}, out); err != nil {
		t.Fatalf("ServeLines: %v", err)
	}
	if got := out.snapshot(); len(got) != 1 || string(got[0]) != want {
		t.Errorf("a %d-line burst was answered in %d writes, want 1 carrying every response", n, len(got))
	}

	out = newRecordingWriter()
	if err := s.ServeLines(context.Background(), &scriptReader{steps: steps}, out); err != nil {
		t.Fatalf("ServeLines: %v", err)
	}
	got := out.snapshot()
	if len(got) != n || string(bytes.Join(got, nil)) != want {
		t.Errorf("%d closed-loop lines were answered in %d writes, want one each", n, len(got))
	}
}

// TestServeFlatLineZeroAllocs pins the steady state of the co-simulator
// line: a warm flat wctt request through ServeLines, transport to transport,
// allocates nothing.
func TestServeFlatLineZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := NewServer(Config{Workers: 2})
	defer s.Close()
	reqR, reqW := io.Pipe()
	respR, respW := io.Pipe()
	served := make(chan error, 1)
	go func() { served <- s.ServeLines(context.Background(), reqR, respW) }()

	line := []byte(fmt.Sprintf(wcttWarm, 7) + "\n")
	resp := make([]byte, 256)
	var got []byte
	roundTrip := func() {
		if _, err := reqW.Write(line); err != nil {
			t.Error(err)
		}
		n, err := respR.Read(resp) // the response is one write, so one read
		if err != nil {
			t.Error(err)
		}
		got = resp[:n]
	}
	roundTrip() // builds the model on the pool
	want := string(got)
	if !strings.HasPrefix(want, `{"id":7,"ok":true,"cycles":`) {
		t.Fatalf("warm-up answered %q", want)
	}
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Errorf("a warm flat wctt line costs %v allocs, want 0", allocs)
	}
	if string(got) != want {
		t.Errorf("steady-state answer %q, want %q", got, want)
	}
	reqW.Close()
	if err := <-served; err != nil {
		t.Fatalf("ServeLines: %v", err)
	}
}

// TestServeBatchLineAllocs pins the steady state of the vectorised line: a
// warm batch line in the documented spelling through ServeLines, transport to
// transport, costs the same four allocations whatever its length — its
// Request, its slot's channel and that channel's one-reply buffer, and its
// pool task — and 384 bytes (pinned at 512, room for a stray allocation of
// the runtime): the copy of the line and the response come from recycled
// buffers, where they cost about 70 KiB a 4032-tuple line, and decoding it
// through encoding/json cost about 160 KB in 28 allocations.
func TestServeBatchLineAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const maxAllocs, maxBytes = 4, 512
	// Counted on one processor throughout: a change of GOMAXPROCS, such as
	// AllocsPerRun's, empties every sync.Pool.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := NewServer(Config{Workers: 2})
	defer s.Close()
	reqR, reqW := io.Pipe()
	respR, respW := io.Pipe()
	served := make(chan error, 1)
	go func() { served <- s.ServeLines(context.Background(), reqR, respW) }()
	resp := bufio.NewReaderSize(respR, 64<<10)

	measure := func(tuples int) (allocs, bytesPerLine float64) {
		var line bytes.Buffer
		line.WriteString(`{"id":7,"op":"batch","design":"waw+wap","width":8,"height":8,"payload_bits":512,"queries":[`)
		for q := 0; q < tuples; q++ {
			fmt.Fprintf(&line, "[%d,%d,%d,%d],", q%8, q/8%8, (q+1)%8, (q/8+1)%8)
		}
		line.Truncate(line.Len() - 1)
		line.WriteString("]}\n")
		roundTrip := func() {
			if _, err := reqW.Write(line.Bytes()); err != nil {
				t.Error(err)
			}
			got, err := resp.ReadSlice('\n')
			if err != nil || !bytes.HasPrefix(got, []byte(`{"id":7,"ok":true,"cycles":[`)) || bytes.Count(got, []byte(",")) != tuples+1 {
				t.Errorf("a %d-tuple line was answered %.80q, %v", tuples, got, err)
			}
		}
		roundTrip() // builds the model and grows the scanner's buffer
		// A collection now sets a fresh heap goal, so that none starts in the
		// counted runs. The uncounted runs after it refill the pools' queues
		// and grow the recycled buffers to this line's size.
		runtime.GC()
		for range 4 {
			roundTrip()
		}
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, roundTrip)
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	}
	for _, tuples := range []int{504, 4032} {
		allocs, perLine := measure(tuples)
		t.Logf("a warm %d-tuple line: %v allocs, %.0f bytes", tuples, allocs, perLine)
		if allocs > maxAllocs || perLine > maxBytes {
			t.Errorf("a warm %d-tuple line costs %v allocs and %.0f bytes, want at most %d and %d", tuples, allocs, perLine, maxAllocs, maxBytes)
		}
	}
	reqW.Close()
	if err := <-served; err != nil {
		t.Fatalf("ServeLines: %v", err)
	}
}

// maxScratchPerTuple is the pooled scratch a vector line keeps per tuple at
// most, as PROTOCOL.md's "Memory per in-flight line" states it: the scan's
// 48-byte tuple record, the answer, and the grouped sweeps' query links and
// group table when every tuple is a group of its own, with the slack of the
// slices' growth.
const maxScratchPerTuple = 160

// TestServeBatchLineScratchBounded holds the pooled scratch of one batch line
// to maxScratchPerTuple: a 65 536-tuple line on a 128x128 mesh whose tuples
// are all groups of their own (every source router with four payloads of
// distinct packet counts) is answered on a warm connection, and the heap the
// pools keep is measured as the heap they free when a second collection
// empties them.
func TestServeBatchLineScratchBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := NewServer(Config{Workers: 1})
	defer s.Close()
	reqR, reqW := io.Pipe()
	respR, respW := io.Pipe()
	served := make(chan error, 1)
	go func() { served <- s.ServeLines(context.Background(), reqR, respW) }()
	resp := bufio.NewReader(respR)

	const side, tuples = 128, 1 << 16
	var line bytes.Buffer
	line.WriteString(`{"id":7,"op":"batch","design":"waw+wap","width":128,"height":128,"queries":[`)
	for q := 0; q < tuples; q++ {
		src := q % (side * side)
		fmt.Fprintf(&line, "[%d,%d,%d,%d,%d],", src%side, src/side, (src+side+1)%side, (src/side+3)%side, (q/(side*side)+1)*100000)
	}
	line.Truncate(line.Len() - 1)
	line.WriteString("]}\n")
	// A round trip is the line and then a one-tuple line, which leaves the
	// connection and the pool worker holding nothing of the long one.
	roundTrip := func() {
		for _, l := range [][]byte{line.Bytes(), []byte(`{"id":7,"op":"batch","design":"waw+wap","width":128,"height":128,"queries":[[0,0,1,1]]}` + "\n")} {
			if _, err := reqW.Write(l); err != nil {
				t.Fatal(err)
			}
			got, err := resp.ReadBytes('\n')
			if err != nil || !bytes.HasPrefix(got, []byte(`{"id":7,"ok":true,"cycles":[`)) {
				t.Fatalf("a batch line was answered %.80q, %v", got, err)
			}
			if len(l) == line.Len() && bytes.Count(got, []byte(",")) != tuples+1 {
				t.Fatalf("a %d-tuple line was answered %.80q", tuples, got)
			}
		}
	}
	roundTrip() // builds the model, grows the scanner's buffer
	roundTrip()
	var pooled, emptied runtime.MemStats
	runtime.GC() // what the pools hold survives one collection
	runtime.ReadMemStats(&pooled)
	runtime.GC() // and not two
	runtime.ReadMemStats(&emptied)
	if kept := int64(pooled.HeapAlloc) - int64(emptied.HeapAlloc); kept > maxScratchPerTuple*tuples {
		t.Errorf("a %d-tuple line left %d bytes of pooled scratch (%.1f per tuple), want at most %d per tuple",
			tuples, kept, float64(kept)/tuples, maxScratchPerTuple)
	} else {
		t.Logf("a %d-tuple line left %d bytes of pooled scratch (%.1f per tuple)", tuples, kept, float64(kept)/tuples)
	}
	reqW.Close()
	if err := <-served; err != nil {
		t.Fatalf("ServeLines: %v", err)
	}
}

// coldWidth hands every run of TestServeColdBuildsStayOnPool (-count) a mesh
// width nothing in this package has built: the model cache is process-wide.
var coldWidth atomic.Int64

// TestServeColdBuildsStayOnPool opens 32 connections that each ask for a
// bound on a mesh nobody has built, against a pool of 2: the reader
// goroutines only look the model up, the builds run on pool workers — at
// most 2 at once however many connections ask — and each miss is counted
// once.
func TestServeColdBuildsStayOnPool(t *testing.T) {
	const conns, workers = 32, 2
	s := NewServer(Config{Workers: workers})
	defer s.Close()
	release := make(chan struct{})
	var inPool, maxInPool atomic.Int64
	s.testHold = func(string) {
		n := inPool.Add(1)
		for m := maxInPool.Load(); n > m && !maxInPool.CompareAndSwap(m, n); m = maxInPool.Load() {
		}
		<-release
		inPool.Add(-1)
	}
	before := scenario.CacheStats().Models
	width := 36 + coldWidth.Add(1)

	outs := make([]string, conns)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			line := fmt.Sprintf(`{"id":%d,"op":"wctt","design":"regular","width":%d,"height":%d,"src":{"x":0,"y":0},"dst":{"x":36,"y":1}}`+"\n", i, width, i+2)
			var out bytes.Buffer
			if err := s.ServeLines(context.Background(), strings.NewReader(line), &out); err != nil {
				t.Errorf("connection %d: %v", i, err)
			}
			outs[i] = out.String()
		}()
	}
	// Every line admitted and the pool full of held lines: from here on a
	// model build could only come from a reader goroutine.
	for deadline := time.Now().Add(10 * time.Second); s.admitted.Load() != conns || inPool.Load() != workers; {
		if time.Now().After(deadline) {
			t.Fatalf("%d lines admitted, %d on the pool; want %d and %d", s.admitted.Load(), inPool.Load(), conns, workers)
		}
		time.Sleep(time.Millisecond)
	}
	if now := scenario.CacheStats().Models; now.Misses != before.Misses || now.Entries != before.Entries {
		t.Errorf("a model was looked up for building or built off the pool: %+v -> %+v", before, now)
	}
	close(release)
	wg.Wait()
	for i, out := range outs {
		if !strings.HasPrefix(out, fmt.Sprintf(`{"id":%d,"ok":true,"cycles":`, i)) {
			t.Errorf("connection %d answered %q", i, out)
		}
	}
	if got := maxInPool.Load(); got != workers {
		t.Errorf("%d lines were on the pool at once, want %d", got, workers)
	}
	after := scenario.CacheStats().Models
	if got := after.Misses - before.Misses; got != conns {
		t.Errorf("%d model-cache misses for %d distinct cold meshes, want one each", got, conns)
	}
	if after.Hits != before.Hits {
		t.Errorf("model-cache hits moved by %d on lines that all missed", after.Hits-before.Hits)
	}
}

// TestServeInlineDeadline pins that a line answered on the reader goroutine
// gets its deadline budget from the same place as every other line: a spent
// QueryTimeout yields the coded deadline error, byte for byte what the pool
// path answers, and a timeout_ms the line can meet changes nothing.
func TestServeInlineDeadline(t *testing.T) {
	warm := NewServer(Config{})
	defer warm.Close()
	ok := serveString(t, warm, fmt.Sprintf(wcttWarm, 5)+"\n") // also builds the model
	timed := strings.Replace(fmt.Sprintf(wcttWarm, 5), `{"id":5,`, `{"id":5,"timeout_ms":60000,`, 1)
	if got := serveString(t, warm, timed+"\n"); got != ok {
		t.Errorf("timeout_ms the line meets changed its answer: %q, want %q", got, ok)
	}

	s := NewServer(Config{QueryTimeout: time.Nanosecond})
	defer s.Close()
	const want = `{"id":5,"ok":false,"error":"wctt: deadline exceeded","code":"deadline","retryable":false}` + "\n"
	generic := strings.Replace(fmt.Sprintf(wcttWarm, 5), `"wctt"`, `"wct\u0074"`, 1)
	for _, line := range []string{fmt.Sprintf(wcttWarm, 5), timed, generic} {
		if got := serveString(t, s, line+"\n"); got != want {
			t.Errorf("line %s under a spent budget:\ngot  %swant %s", line, got, want)
		}
	}
	if got := serveString(t, s, `{"id":6,"op":"ping"}`+"\n"); got != `{"id":6,"ok":true}`+"\n" {
		t.Errorf("ping has no budget class, got %q", got)
	}
	if st := s.Stats(); st.Requests != 4 || st.Errors != 3 || st.Latency.Count != 4 {
		t.Errorf("inline lines not counted like pool lines: %d requests, %d errors, %d latencies; want 4, 3, 4",
			st.Requests, st.Errors, st.Latency.Count)
	}
}

// TestServeTransportsAgree runs the mixed flat/generic smoke corpus over the
// three transports — a plain stream (the stdin path), TCP and an HTTP POST —
// and requires the committed golden bytes from each.
func TestServeTransportsAgree(t *testing.T) {
	reqs, err := os.ReadFile("../../cmd/noctool/testdata/serve-smoke.requests")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("../../cmd/noctool/testdata/serve-smoke.golden")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(Config{Workers: 2})
	defer s.Close()

	if got := serveString(t, s, string(reqs)); got != string(golden) {
		t.Errorf("stream transport:\n%s\nwant\n%s", got, golden)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.ServeListener(context.Background(), ln) }()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(reqs); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	got := make([]byte, len(golden))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatalf("TCP transport: %v after %q", err, got)
	}
	if !bytes.Equal(got, golden) {
		t.Errorf("TCP transport:\n%s\nwant\n%s", got, golden)
	}

	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	res, err := srv.Client().Post(srv.URL, "application/x-ndjson", bytes.NewReader(reqs))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, golden) {
		t.Errorf("HTTP transport:\n%s\nwant\n%s", body, golden)
	}
}
