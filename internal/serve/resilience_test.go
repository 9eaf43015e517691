package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/scenario"
)

// TestServeErrorWireShapes pins the exact bytes of the coded error lines —
// the stdin/TCP mirror of the HTTP 503 taxonomy — and that pre-existing
// error shapes carry no code field. These strings are wire contract;
// see the error-taxonomy appendix of PROTOCOL.md.
func TestServeErrorWireShapes(t *testing.T) {
	cases := []struct {
		name string
		got  []byte
		want string
	}{
		{"overloaded", errorResponse(7, errOverloaded),
			`{"id":7,"ok":false,"error":"server overloaded","code":"overloaded","retryable":true}`},
		{"draining", errorResponse(8, errDraining),
			`{"id":8,"ok":false,"error":"server draining","code":"draining","retryable":true}`},
		{"deadline", errorResponse(9, wireError("batch", fmt.Errorf("wrapped: %w", context.DeadlineExceeded))),
			`{"id":9,"ok":false,"error":"batch: deadline exceeded","code":"deadline","retryable":false}`},
		{"canceled", errorResponse(10, wireError("scenario", context.Canceled)),
			`{"id":10,"ok":false,"error":"scenario: canceled","code":"canceled","retryable":true}`},
		{"plain errors stay uncoded", errorResponse(11, errors.New("boom")),
			`{"id":11,"ok":false,"error":"boom"}`},
		{"limit", errorResponse(12, checkNodeLimit(100000, 100000)),
			`{"id":12,"ok":false,"error":"mesh 100000x100000 exceeds the limit of 16384 nodes","code":"limit","retryable":false}`},
	}
	for _, c := range cases {
		if string(c.got) != c.want {
			t.Errorf("%s:\ngot  %s\nwant %s", c.name, c.got, c.want)
		}
	}
	if err := wireError("x", errors.New("boom")); err.Error() != "boom" {
		t.Errorf("wireError rewrote a non-context error: %v", err)
	}
}

// TestServeNodeLimit pins the node ceiling: every verb that names a mesh —
// on the flat decoder's reader-goroutine path and on the pool — answers a
// mesh above 128x128 with the coded limit error before building anything
// (the 100000x100000 weight table alone would be a 2.56 TB allocation), the
// connection goes on answering, and the comparison cannot overflow.
func TestServeNodeLimit(t *testing.T) {
	for _, c := range []struct {
		w, h  int
		limit bool
	}{
		{128, 128, false}, {129, 128, true}, {128, 129, true},
		{16384, 1, false}, {16385, 1, true}, {1, 16385, true},
		{1 << 62, 1 << 62, true}, {1 << 32, 1 << 32, true}, {3 << 61, 4, true},
		{0, 1 << 40, false}, {-1 << 62, -1 << 62, false}, // not a mesh: the verb's validation names it
	} {
		if err := checkNodeLimit(c.w, c.h); (err != nil) != c.limit {
			t.Errorf("checkNodeLimit(%d, %d) = %v, want limit error: %v", c.w, c.h, err, c.limit)
		}
	}

	s := NewServer(Config{Workers: 2})
	defer s.Close()
	got := strings.Split(strings.TrimSpace(serveString(t, s, strings.Join([]string{
		`{"id":1,"op":"wctt","design":"regular","width":100000,"height":100000,"src":{"x":0,"y":0},"dst":{"x":1,"y":1}}`,
		`{"id":2,"op":"batch","design":"regular","width":100000,"height":100000,"queries":[[0,0,1,1]]}`,
		`{"id":3,"op":"wcet","design":"regular","width":100000,"height":100000,"core":{"x":1,"y":1},"workload":"matrix"}`,
		`{"id":4,"op":"wcet-batch","design":"regular","width":100000,"height":100000,"workload":"matrix","queries":[[1,1]]}`,
		`{"id":5,"op":"scenario","spec":{"name":"big","mode":"wctt","width":100000,"height":100000,"design":"regular"}}`,
		`{"id":6,"op":"wctt","design":"regular","width":4,"height":4,"src":{"x":0,"y":0},"dst":{"x":3,"y":3}}`,
	}, "\n")+"\n")), "\n")
	if len(got) != 6 {
		t.Fatalf("got %d responses, want 6:\n%s", len(got), strings.Join(got, "\n"))
	}
	for i, resp := range got[:5] {
		want := fmt.Sprintf(`{"id":%d,"ok":false,"error":"mesh 100000x100000 exceeds the limit of 16384 nodes","code":"limit","retryable":false}`, i+1)
		if resp != want {
			t.Errorf("line %d:\ngot  %s\nwant %s", i+1, resp, want)
		}
	}
	if !strings.HasPrefix(got[5], `{"id":6,"ok":true,"cycles":`) {
		t.Errorf("line after the rejected ones: %s", got[5])
	}
}

// TestServePayloadLimit pins the payload ceiling on the 8x8 corner-to-corner
// flow: up to MaxPayloadBits the bound never shrinks as payload_bits grows,
// and a wctt line (flat, and escaped onto the generic decode path), a batch
// default and a batch tuple agree on it; above the ceiling all four answer
// the coded limit error, below zero a plain one. Before the ceiling a payload
// near MaxInt64 wrapped the flit count negative and was answered with the
// one-flit bound.
func TestServePayloadLimit(t *testing.T) {
	s := NewServer(Config{Workers: 2})
	defer s.Close()
	ask := func(design string, payload int64) []string {
		const mesh = `"width":8,"height":8`
		pair := `"src":{"x":0,"y":0},"dst":{"x":7,"y":7}`
		return strings.Split(strings.TrimSpace(serveString(t, s, fmt.Sprintf(
			`{"id":1,"op":"wctt","design":%[1]q,%[3]s,%[4]s,"payload_bits":%[2]d}
{"id":1,"op":"wct\u0074","design":%[1]q,%[3]s,%[4]s,"payload_bits":%[2]d}
{"id":1,"op":"batch","design":%[1]q,%[3]s,"payload_bits":%[2]d,"queries":[[0,0,7,7]]}
{"id":1,"op":"batch","design":%[1]q,%[3]s,"queries":[[0,0,7,7,%[2]d]]}
`, design, payload, mesh, pair))), "\n")
	}
	for _, design := range []string{"regular", "waw+wap", "waw-only", "wap-only"} {
		var prev uint64
		for _, payload := range []int64{1, 48, 116, 117, 512, 1 << 20, 1 << 31, MaxPayloadBits - 1, MaxPayloadBits} {
			got := ask(design, payload)
			var c uint64
			if _, err := fmt.Sscanf(got[0], `{"id":1,"ok":true,"cycles":%d}`, &c); err != nil || c < prev {
				t.Fatalf("%s payload_bits %d: %s, want a bound >= %d", design, payload, got[0], prev)
			}
			batch := fmt.Sprintf(`{"id":1,"ok":true,"cycles":[%d]}`, c)
			if got[1] != got[0] || got[2] != batch || got[3] != batch {
				t.Fatalf("%s payload_bits %d: the four routes disagree:\n%s", design, payload, strings.Join(got, "\n"))
			}
			prev = c
		}
		for _, payload := range []int64{MaxPayloadBits + 1, 9223372036854775000, math.MaxInt64, -1, math.MinInt64} {
			want := fmt.Sprintf(`{"id":1,"ok":false,"error":"payload_bits %d exceeds the limit of 4294967296","code":"limit","retryable":false}`, payload)
			if payload < 0 {
				want = fmt.Sprintf(`{"id":1,"ok":false,"error":"payload_bits must not be negative, got %d"}`, payload)
			}
			for i, got := range ask(design, payload) {
				if got != want {
					t.Errorf("%s payload_bits %d, route %d:\ngot  %s\nwant %s", design, payload, i, got, want)
				}
			}
		}
	}
}

// TestServeMaxPacketLimit pins the max_packet_flits ceiling on the far corner
// of the 8x8 platform: up to scenario.MaxPacketFlitsLimit the wcet answer
// never shrinks as the maximum packet size grows, and a wcet line (flat, and
// escaped onto the generic decode path) and a wcet-batch line agree on it;
// above the ceiling all three answer the coded limit error. Before the
// ceiling the regular design's access-count product wrapped: 10^12 answered
// less than 10^9, and from 10^17 the answer fell below WaW+WaP's.
func TestServeMaxPacketLimit(t *testing.T) {
	s := NewServer(Config{Workers: 2})
	defer s.Close()
	ask := func(design string, flits int64) []string {
		const target = `"width":8,"height":8,"workload":"matrix"`
		return strings.Split(strings.TrimSpace(serveString(t, s, fmt.Sprintf(
			`{"id":1,"op":"wcet","design":%[1]q,%[3]s,"core":{"x":7,"y":7},"max_packet_flits":%[2]d}
{"id":1,"op":"wce\u0074","design":%[1]q,%[3]s,"core":{"x":7,"y":7},"max_packet_flits":%[2]d}
{"id":1,"op":"wcet-batch","design":%[1]q,%[3]s,"max_packet_flits":%[2]d,"queries":[[7,7]]}
`, design, flits, target))), "\n")
	}
	for _, design := range []string{"regular", "waw+wap"} {
		var prev uint64
		for _, flits := range []int64{1, 2, 4, 8, 64, 1 << 10, scenario.MaxPacketFlitsLimit - 1, scenario.MaxPacketFlitsLimit} {
			got := ask(design, flits)
			var c uint64
			if _, err := fmt.Sscanf(got[0], `{"id":1,"ok":true,"cycles":%d}`, &c); err != nil || c < prev {
				t.Fatalf("%s max_packet_flits %d: %s, want a bound >= %d", design, flits, got[0], prev)
			}
			if batch := fmt.Sprintf(`{"id":1,"ok":true,"cycles":[%d]}`, c); got[1] != got[0] || got[2] != batch {
				t.Fatalf("%s max_packet_flits %d: the three routes disagree:\n%s", design, flits, strings.Join(got, "\n"))
			}
			prev = c
		}
		for _, flits := range []int64{scenario.MaxPacketFlitsLimit + 1, 1e9, 1e12, 1e17, 1 << 62, math.MaxInt64} {
			want := fmt.Sprintf(`{"id":1,"ok":false,"error":"max_packet_flits %d exceeds the limit of 65536","code":"limit","retryable":false}`, flits)
			for i, got := range ask(design, flits) {
				if got != want {
					t.Errorf("%s max_packet_flits %d, route %d:\ngot  %s\nwant %s", design, flits, i, got, want)
				}
			}
		}
	}
}

// TestServeTupleLimit pins the tuple ceiling of the vector verbs on both
// decoders: MaxBatchTuples tuples are answered, one more gets the coded limit
// error — before a model is looked up: the mesh named is one nothing has
// built, and the model cache does not see it — and the connection goes on.
// The scan behind the count stores at most MaxBatchTuples tuples.
func TestServeTupleLimit(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Close()
	line := func(head, tuple string, n int) io.Reader {
		return io.MultiReader(strings.NewReader(head+`,"queries":[`+tuple),
			strings.NewReader(strings.Repeat(","+tuple, n-1)), strings.NewReader("]}\n"))
	}
	const wcetHead = `"design":"regular","width":4,"height":4,"workload":"matrix"`
	before := scenario.CacheStats().Models
	var out bytes.Buffer
	if err := s.ServeLines(context.Background(), io.MultiReader(
		line(`{"id":1,"op":"wcet-batch",`+wcetHead, "[0,0]", MaxBatchTuples+1),
		line(`{"id":2,"op":"wcet-b\u0061tch",`+wcetHead, "[0,0]", MaxBatchTuples+1),
		line(`{"id":3,"op":"batch","design":"regular","width":23,"height":29`, "[0,0,1,1]", MaxBatchTuples+1),
		line(`{"id":4,"op":"wcet-batch",`+wcetHead, "[3,3]", MaxBatchTuples),
		strings.NewReader(`{"id":5,"op":"ping"}`+"\n"),
	), &out); err != nil {
		t.Fatalf("ServeLines: %v", err)
	}
	got := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(got) != 5 {
		t.Fatalf("got %d responses, want 5", len(got))
	}
	for i, resp := range got[:3] {
		want := fmt.Sprintf(`{"id":%d,"ok":false,"error":"queries holds %d tuples, which exceeds the limit of %d","code":"limit","retryable":false}`, i+1, MaxBatchTuples+1, MaxBatchTuples)
		if resp != want {
			t.Errorf("line %d:\ngot  %.200s\nwant %s", i+1, resp, want)
		}
	}
	if after := scenario.CacheStats().Models; after.Misses != before.Misses {
		t.Errorf("a model was looked up for a line over the tuple limit: %+v -> %+v", before, after)
	}
	if !strings.HasPrefix(got[3], `{"id":4,"ok":true,"cycles":[`) || strings.Count(got[3], ",") != MaxBatchTuples+1 {
		t.Errorf("a line of exactly %d tuples was answered %.100s", MaxBatchTuples, got[3])
	}
	if got[4] != `{"id":5,"ok":true}` {
		t.Errorf("line after the rejected ones: %s", got[4])
	}
	if st := s.Stats(); st.Queries != MaxBatchTuples {
		t.Errorf("counted %d bounds answered, want %d", st.Queries, MaxBatchTuples)
	}
	// The scan that counts a line's tuples stores no more than the limit.
	var tl tupleList
	tl.scanQueries([]byte("[" + strings.Repeat("[0,0],", MaxBatchTuples) + "[3,3]]"))
	if !tl.complete || tl.n != MaxBatchTuples+1 || len(tl.tuples) != MaxBatchTuples {
		t.Errorf("a scan of %d tuples counted %d, stored %d (complete %v), want every one counted and %d stored",
			MaxBatchTuples+1, tl.n, len(tl.tuples), tl.complete, MaxBatchTuples)
	}
}

// drainGateReader yields its first chunk immediately and the rest only once
// the server drains. It deliberately lacks SetReadDeadline, so Shutdown
// cannot poke it — the scan loop itself must answer the buffered tail.
type drainGateReader struct {
	s      *Server
	chunks [][]byte
	i      int
}

func (r *drainGateReader) Read(p []byte) (int, error) {
	if r.i >= len(r.chunks) {
		return 0, io.EOF
	}
	if r.i > 0 {
		for !r.s.draining() {
			time.Sleep(time.Millisecond)
		}
	}
	n := copy(p, r.chunks[r.i])
	if n < len(r.chunks[r.i]) {
		r.chunks[r.i] = r.chunks[r.i][n:]
	} else {
		r.i++
	}
	return n, nil
}

// TestServeDrainingAnswersBufferedLines pins the drain contract on the
// line transports: requests that arrive behind the drain point get the
// exact coded draining error instead of silence, and Shutdown still
// terminates.
func TestServeDrainingAnswersBufferedLines(t *testing.T) {
	s := NewServer(Config{Workers: 1, Queue: 4})
	defer s.Close()
	r := &drainGateReader{s: s, chunks: [][]byte{
		[]byte(`{"id":1,"op":"ping"}` + "\n"),
		[]byte(`{"id":2,"op":"ping"}` + "\n" + `{"id":3,"op":"ping"}` + "\n"),
	}}
	var mu sync.Mutex
	var out bytes.Buffer
	served := make(chan error, 1)
	go func() { served <- s.ServeLines(context.Background(), r, lockedWriter{&mu, &out}) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := bytes.Count(out.Bytes(), []byte("\n"))
		mu.Unlock()
		if n >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no response to the pre-drain line")
		}
		time.Sleep(time.Millisecond)
	}
	s.Shutdown()
	if err := <-served; err != nil {
		t.Fatalf("ServeLines after drain: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	resps := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if len(resps) != 3 {
		t.Fatalf("got %d responses, want 3:\n%s", len(resps), out.Bytes())
	}
	if string(resps[0]) != `{"id":1,"ok":true}` {
		t.Errorf("pre-drain ping: %s", resps[0])
	}
	for i, id := range []int{2, 3} {
		want := fmt.Sprintf(`{"id":%d,"ok":false,"error":"server draining","code":"draining","retryable":true}`, id)
		if string(resps[i+1]) != want {
			t.Errorf("buffered line %d:\ngot  %s\nwant %s", id, resps[i+1], want)
		}
	}
}

// TestServeRequestTimeout runs a load-curve scenario far larger than its
// 1ms timeout_ms budget and pins the coded deadline error. The scenario
// layer polls the context between rates and every 4096 simulated cycles,
// so whichever check fires first yields the identical wire bytes.
func TestServeRequestTimeout(t *testing.T) {
	s := NewServer(Config{Workers: 2})
	defer s.Close()
	line := `{"id":4,"op":"scenario","timeout_ms":1,"spec":{"name":"dl","mode":"load-curve","width":8,"height":8,"design":"regular","seed":1,"traffic":{"rates":[100,200,300],"warmup_cycles":2000,"measure_cycles":20000}}}` + "\n"
	var out bytes.Buffer
	if err := s.ServeLines(context.Background(), strings.NewReader(line), &out); err != nil {
		t.Fatalf("ServeLines: %v", err)
	}
	got := string(bytes.TrimSpace(out.Bytes()))
	want := `{"id":4,"ok":false,"error":"scenario: deadline exceeded","code":"deadline","retryable":false}`
	if got != want {
		t.Fatalf("timed-out scenario:\ngot  %s\nwant %s", got, want)
	}
}

// TestServeVerbTimeoutBudget checks the server-side per-verb budget with no
// client timeout_ms: ScenarioTimeout bounds the scenario verb, and the
// query verbs (different budget class) are unaffected by it.
func TestServeVerbTimeoutBudget(t *testing.T) {
	s := NewServer(Config{Workers: 2, ScenarioTimeout: time.Millisecond})
	defer s.Close()
	lines := `{"id":1,"op":"scenario","spec":{"name":"dl","mode":"load-curve","width":8,"height":8,"design":"regular","seed":1,"traffic":{"rates":[100,200,300],"warmup_cycles":2000,"measure_cycles":20000}}}` + "\n" +
		`{"id":2,"op":"wctt","design":"regular","width":4,"height":4,"src":{"x":0,"y":0},"dst":{"x":3,"y":3}}` + "\n"
	var out bytes.Buffer
	if err := s.ServeLines(context.Background(), strings.NewReader(lines), &out); err != nil {
		t.Fatalf("ServeLines: %v", err)
	}
	resps := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if len(resps) != 2 {
		t.Fatalf("got %d responses, want 2:\n%s", len(resps), out.Bytes())
	}
	want := `{"id":1,"ok":false,"error":"scenario: deadline exceeded","code":"deadline","retryable":false}`
	if string(resps[0]) != want {
		t.Errorf("scenario under ScenarioTimeout:\ngot  %s\nwant %s", resps[0], want)
	}
	if !bytes.Contains(resps[1], []byte(`"ok":true`)) {
		t.Errorf("query verb caught by the scenario budget: %s", resps[1])
	}
}

// liveHeap returns the bytes of heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what sync.Pool held over the first
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestServePayloadChurnHeapBounded is the hostile-input regression for the
// deleted per-pair memo: one daemon answers over 200 000 bounds whose
// payload_bits never repeat (batch tuples and wctt lines), then whole-mesh
// batches cycling dims and topologies with a fresh payload each, and its
// live heap must not grow with the number of distinct queries. Before PR 12
// every distinct (design, src, dst, payload) was retained forever in the
// model memo and every (params, design, payload) in the warm marker set.
func TestServePayloadChurnHeapBounded(t *testing.T) {
	s := NewServer(Config{Workers: 2})
	defer s.Close()
	serve := func(lines *bytes.Buffer) {
		t.Helper()
		if err := s.ServeLines(context.Background(), lines, io.Discard); err != nil {
			t.Fatalf("ServeLines: %v", err)
		}
	}
	payload := 0 // never repeats across the whole test
	churn := func(rounds int) {
		var lines bytes.Buffer
		for r := 0; r < rounds; r++ {
			lines.Reset()
			lines.WriteString(`{"id":1,"op":"batch","design":"waw+wap","width":8,"height":8,"queries":[`)
			for i := 0; i < 1000; i++ {
				payload++
				if i > 0 {
					lines.WriteByte(',')
				}
				fmt.Fprintf(&lines, "[%d,%d,%d,%d,%d]", i%8, (i/8)%8, (i+1)%8, (i/8+3)%8, payload)
			}
			lines.WriteString("]}\n")
			for i := 0; i < 10; i++ {
				payload++
				fmt.Fprintf(&lines, `{"id":2,"op":"wctt","design":"regular","width":8,"height":8,"src":{"x":%d,"y":0},"dst":{"x":7,"y":7},"payload_bits":%d}`+"\n", i%7, payload)
			}
			serve(&lines)
		}
	}
	wholeMeshes := func() {
		var lines bytes.Buffer
		for _, topo := range []string{"mesh", "cmesh2"} {
			for w := 2; w <= 8; w += 2 {
				for h := 2; h <= 8; h++ {
					payload++
					lines.Reset()
					fmt.Fprintf(&lines, `{"id":3,"op":"batch","design":"waw-only","topology":%q,"width":%d,"height":%d,"payload_bits":%d,"queries":[`, topo, w, h, payload)
					sep := ""
					for src := 0; src < w*h; src++ {
						for dst := 0; dst < w*h; dst++ {
							if src != dst {
								fmt.Fprintf(&lines, "%s[%d,%d,%d,%d]", sep, src%w, src/w, dst%w, dst/w)
								sep = ","
							}
						}
					}
					lines.WriteString("]}\n")
					serve(&lines)
				}
			}
		}
	}
	// One lap first, so the models, weight tables and pool buffers the
	// workload legitimately keeps are already part of the baseline.
	churn(1)
	wholeMeshes()
	base := liveHeap()
	churn(200)
	wholeMeshes()
	after := liveHeap()

	st := s.Stats()
	if st.Errors != 0 || st.Queries < 200_000 {
		t.Fatalf("churn answered %d bounds with %d failed lines, want >= 200000 and 0", st.Queries, st.Errors)
	}
	const ceiling = 4 << 20
	if after > base && after-base > ceiling {
		t.Fatalf("live heap grew by %d KiB over %d distinct-payload bounds (ceiling %d KiB): something retains per-query state",
			(after-base)>>10, st.Queries, ceiling>>10)
	}
	t.Logf("live heap %d KiB -> %d KiB over %d bounds", base>>10, after>>10, st.Queries)
}

// TestServeDimsChurnHeapBounded is the hostile-input regression for the
// process-lifetime tables that used to sit under the scenario caches: one
// daemon answers wctt and batch lines whose (width, height, topology) never
// repeats and wcet lines whose (mesh, max_packet_flits) never repeats, six
// times more distinct keys than the model and engine caches hold. Once the
// caches have filled, live heap must stop growing: what an evicted model or
// engine was built from (weight table, node list, UBD rows) has to go with
// it. Before this test every distinct topology kept its weight table and
// node list, and every distinct (platform, L) its engine, forever.
func TestServeDimsChurnHeapBounded(t *testing.T) {
	s := NewServer(Config{Workers: 2})
	defer s.Close()
	// 16 even widths x 16 even heights x 3 topologies, visited in a fixed
	// scattered order so that every window of keys holds a similar mix of
	// mesh sizes and the caches' legitimate content stays the same size.
	const meshKeys = 16 * 16 * 3
	topologies := [3]string{"mesh", "cmesh2", "cmesh4"}
	nextMesh, nextL := 0, 0
	churn := func(meshes, engines int) {
		t.Helper()
		var lines bytes.Buffer
		for i := 0; i < meshes; i++ {
			j := nextMesh * 331 % meshKeys // 331 is coprime to 768: a permutation
			nextMesh++
			w, h, topo := 2+2*(j%16), 2+2*(j/16%16), topologies[j/256]
			if i%2 == 0 {
				fmt.Fprintf(&lines, `{"id":1,"op":"wctt","design":"waw+wap","topology":%q,"width":%d,"height":%d,"src":{"x":0,"y":0},"dst":{"x":%d,"y":%d}}`+"\n", topo, w, h, w-1, h-1)
			} else {
				fmt.Fprintf(&lines, `{"id":2,"op":"batch","design":"regular","topology":%q,"width":%d,"height":%d,"queries":[[0,0,%d,%d],[%d,0,0,%d]]}`+"\n", topo, w, h, w-1, h-1, w-1, h-1)
			}
		}
		for i := 0; i < engines; i++ {
			nextL++
			side := 12 + 4*(i%3)
			fmt.Fprintf(&lines, `{"id":3,"op":"wcet","design":"waw+wap","width":%d,"height":%d,"core":{"x":%d,"y":%d},"workload":"matrix","max_packet_flits":%d}`+"\n", side, side, side-1, side-1, nextL)
		}
		if err := s.ServeLines(context.Background(), &lines, io.Discard); err != nil {
			t.Fatalf("ServeLines: %v", err)
		}
	}
	// Twice the capacity of each cache first (128 models, 64 engines), so
	// both are full and evicting when the baseline is taken.
	churn(256, 128)
	base := liveHeap()
	for round := 0; round < 4; round++ {
		churn(128, 64)
	}
	after := liveHeap()

	st := s.Stats()
	if st.Errors != 0 || st.Caches.Models.Evictions == 0 || st.Caches.Engines.Evictions == 0 {
		t.Fatalf("churn: %d failed lines, %d model and %d engine evictions; want 0 failures and both caches evicting",
			st.Errors, st.Caches.Models.Evictions, st.Caches.Engines.Evictions)
	}
	const ceiling = 8 << 20
	if after > base && after-base > ceiling {
		t.Fatalf("live heap grew by %d KiB over %d more distinct meshes and %d more distinct engines (ceiling %d KiB): something below the bounded caches retains per-topology state",
			(after-base)>>10, 4*128, 4*64, ceiling>>10)
	}
	t.Logf("live heap %d KiB -> %d KiB", base>>10, after>>10)
}
