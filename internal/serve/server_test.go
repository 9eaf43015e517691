package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/scenario"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// response mirrors the wire format for test-side decoding.
type response struct {
	ID     int64           `json:"id"`
	OK     bool            `json:"ok"`
	Cycles json.RawMessage `json:"cycles"`
	Result json.RawMessage `json:"result"`
	Stats  *Stats          `json:"stats"`
	Error  string          `json:"error"`
}

// run feeds the lines through a fresh server and decodes one response per
// line.
func run(t *testing.T, workers int, lines ...string) []response {
	t.Helper()
	s := NewServer(Config{Workers: workers})
	defer s.Close()
	var out bytes.Buffer
	in := strings.NewReader(strings.Join(lines, "\n") + "\n")
	if err := s.ServeLines(context.Background(), in, &out); err != nil {
		t.Fatalf("ServeLines: %v", err)
	}
	return decodeLines(t, out.Bytes(), len(lines))
}

func decodeLines(t *testing.T, raw []byte, want int) []response {
	t.Helper()
	var resps []response
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var r response
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("bad response line %q: %v", line, err)
		}
		resps = append(resps, r)
	}
	if len(resps) != want {
		t.Fatalf("got %d responses, want %d:\n%s", len(resps), want, raw)
	}
	return resps
}

func cyclesScalar(t *testing.T, r response) uint64 {
	t.Helper()
	if !r.OK {
		t.Fatalf("response %d failed: %s", r.ID, r.Error)
	}
	var c uint64
	if err := json.Unmarshal(r.Cycles, &c); err != nil {
		t.Fatalf("cycles %q: %v", r.Cycles, err)
	}
	return c
}

func cyclesVector(t *testing.T, r response) []uint64 {
	t.Helper()
	if !r.OK {
		t.Fatalf("response %d failed: %s", r.ID, r.Error)
	}
	var c []uint64
	if err := json.Unmarshal(r.Cycles, &c); err != nil {
		t.Fatalf("cycles %q: %v", r.Cycles, err)
	}
	return c
}

func TestServePingAndErrors(t *testing.T) {
	resps := run(t, 2,
		`{"id":1,"op":"ping"}`,
		`{"id":2,"op":"warp"}`,
		`{"id":3,"op":"wctt","design":"nope","width":4,"height":4}`,
		`{"id":4,"op":"ping"}`,
	)
	if !resps[0].OK || resps[0].ID != 1 {
		t.Fatalf("ping failed: %+v", resps[0])
	}
	if resps[1].OK || !strings.Contains(resps[1].Error, "unknown op") {
		t.Fatalf("unknown op not rejected: %+v", resps[1])
	}
	if resps[2].OK || !strings.Contains(resps[2].Error, "unknown design") {
		t.Fatalf("bad design not rejected: %+v", resps[2])
	}
	if !resps[3].OK || resps[3].ID != 4 {
		t.Fatalf("server did not keep serving after errors: %+v", resps[3])
	}
}

// TestServeWCTTMatchesModel pins the served bound to the analytical model's
// answer — the serving layer must be execution policy only.
func TestServeWCTTMatchesModel(t *testing.T) {
	m := analysis.MustNewModel(analysis.DefaultParams(mesh.MustDim(4, 4)))
	want, err := m.MessageWCTT(network.DesignWaWWaP, mesh.Node{X: 0, Y: 0}, mesh.Node{X: 3, Y: 3}, traffic.RequestPayloadBits)
	if err != nil {
		t.Fatal(err)
	}
	resps := run(t, 2,
		`{"id":1,"op":"wctt","design":"waw+wap","width":4,"height":4,"src":{"x":0,"y":0},"dst":{"x":3,"y":3}}`,
		`{"id":2,"op":"wctt","design":"waw+wap","width":4,"height":4,"src":{"x":0,"y":0},"dst":{"x":3,"y":3},"payload_bits":48}`,
	)
	if got := cyclesScalar(t, resps[0]); got != want {
		t.Fatalf("served WCTT %d, model says %d", got, want)
	}
	// payload_bits 48 is the explicit form of the default.
	if got := cyclesScalar(t, resps[1]); got != want {
		t.Fatalf("explicit payload served %d, want %d", cyclesScalar(t, resps[1]), want)
	}
}

// TestServeBatchMatchesSingles pins every batch answer to its single-query
// equivalent, and response ordering to request ordering: every ordered pair
// of the mesh, the 2-core and the 4-core concentrated mesh under each design,
// as one line that mixes 4-tuples (the line's payload) with 5-tuples (their
// own) and repeats tuples.
func TestServeBatchMatchesSingles(t *testing.T) {
	for _, c := range []struct {
		topology, design string
		w, h, payload    int
	}{
		{"", "regular", 3, 3, 0}, {"", "waw+wap", 4, 3, 512}, {"cmesh2", "waw-only", 4, 4, 0},
		{"cmesh2", "regular", 4, 6, 4096}, {"cmesh4", "wap-only", 4, 4, 0}, {"cmesh4", "waw+wap", 6, 4, 0},
	} {
		d := mesh.MustDim(c.w, c.h)
		head := fmt.Sprintf(`"design":"%s","width":%d,"height":%d,"topology":"%s"`, c.design, c.w, c.h, c.topology)
		var singles, tuples []string
		id := int64(10)
		for i, src := range d.AllNodes() {
			for j, dst := range d.AllNodes() {
				if src == dst {
					continue // self-flow WCTT is undefined
				}
				payload, tuple := c.payload, fmt.Sprintf("[%d,%d,%d,%d]", src.X, src.Y, dst.X, dst.Y)
				if (i+j)%3 == 0 {
					payload = []int{48, 512, 4096, 1 << 20}[(i+j)/3%4]
					tuple = fmt.Sprintf("[%d,%d,%d,%d,%d]", src.X, src.Y, dst.X, dst.Y, payload)
				}
				line := fmt.Sprintf(`{"id":%d,"op":"wctt",%s,"src":{"x":%d,"y":%d},"dst":{"x":%d,"y":%d},"payload_bits":%d}`,
					id, head, src.X, src.Y, dst.X, dst.Y, payload)
				singles, tuples = append(singles, line), append(tuples, tuple)
				id++
			}
		}
		// Repeat the first tuples, 4- and 5-tuples alike, at the end.
		singles, tuples = append(singles, singles[:7]...), append(tuples, tuples[:7]...)
		batch := fmt.Sprintf(`{"id":1,"op":"batch",%s,"payload_bits":%d,"queries":[%s]}`, head, c.payload, strings.Join(tuples, ","))
		resps := run(t, 4, append([]string{batch}, singles...)...)

		vec := cyclesVector(t, resps[0])
		if len(vec) != len(singles) {
			t.Fatalf("%+v: batch answered %d queries, want %d", c, len(vec), len(singles))
		}
		for i, r := range resps[1:] {
			if want := int64(10 + i%(len(singles)-7)); r.ID != want {
				t.Fatalf("%+v: response %d out of order: id %d, want %d", c, i+1, r.ID, want)
			}
			if got := cyclesScalar(t, r); got != vec[i] {
				t.Fatalf("%+v: query %d %s: single says %d, batch says %d", c, i, tuples[i], got, vec[i])
			}
		}
	}
}

// TestServeBatchFirstInvalidTuple pins which error a batch line with several
// invalid tuples reports: that of its first invalid tuple in line order,
// behind valid tuples of other groups and before invalid tuples the model
// would reject sooner — an endpoint off the mesh, a self flow, a payload past
// the limit, a tuple too short or too long — on either decoder, with no
// bound answered or counted.
func TestServeBatchFirstInvalidTuple(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Close()
	valid := "[0,0,3,3],[3,3,0,0],[1,2,3,0,512],[2,1,0,3],[0,0,3,3]"
	for _, c := range []struct{ bad, want string }{
		{"[0,0,4,1],[2,2,2,2]", `"error":"mesh: route destination (4,1) outside 4x4 mesh"`},
		{"[2,2,2,2],[0,0,4,1]", `"error":"analysis: WCTT of a self flow is undefined"`},
		{"[-1,0,1,1],[0,0,1,1,4294967297]", `"error":"mesh: route source (-1,0) outside 4x4 mesh"`},
		{"[0,0,1,1,4294967297],[0,0,4,1]", `"error":"payload_bits 4294967297 exceeds the limit of 4294967296","code":"limit","retryable":false`},
		{"[0,0,1,1,-1],[0,0,1]", `"error":"payload_bits must not be negative, got -1"`},
		{"[0,0,1],[0,0,4,1]", `"error":"queries: tuple needs at least 4 elements, got 3"`},
		{"[0,0,4,1],[0,0,1]", `"error":"mesh: route destination (4,1) outside 4x4 mesh"`},
		{"[0,0,1,1,48,9],[2,2,2,2]", `"error":"queries: tuple longer than 5 at offset 67"`},
	} {
		for _, op := range []string{"batch", `b\u0061tch`} {
			for _, design := range []string{"regular", "waw+wap"} {
				line := fmt.Sprintf(`{"id":3,"op":"%s","design":"%s","width":4,"height":4,"queries":[%s,%s,%s]}`, op, design, valid, c.bad, valid)
				want := `{"id":3,"ok":false,` + c.want + "}\n"
				if got := serveString(t, s, line+"\n"); got != want {
					t.Errorf("%s %s %s:\ngot  %s\nwant %s", op, design, c.bad, got, want)
				}
			}
		}
	}
	if st := s.Stats(); st.Queries != 0 {
		t.Errorf("failed lines counted %d bounds answered, want 0", st.Queries)
	}
}

// TestServeBatchDeadlineMidLine runs a batch line of random pairs, most of
// them groups of their own, into its deadline after the bounds of some of
// its groups are computed: the line answers the coded deadline error and
// counts no bound, and it stopped where the deadline was first reported.
func TestServeBatchDeadlineMidLine(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	var tuples []string
	for len(tuples) < 5000 {
		sx, sy, dx, dy := rng.Intn(16), rng.Intn(16), rng.Intn(16), rng.Intn(16)
		if sx != dx || sy != dy {
			tuples = append(tuples, fmt.Sprintf("[%d,%d,%d,%d]", sx, sy, dx, dy))
		}
	}
	queries := json.RawMessage("[" + strings.Join(tuples, ",") + "]")
	for _, design := range []string{"regular", "waw+wap"} {
		req := &Request{ID: 8, Op: "batch", Design: design, Width: 16, Height: 16, Queries: queries}
		// answer asks once, and the batch once per 1024 units of work: the
		// 5000 tuples grouped (five asks), then the bounds answered, so the
		// eighth ask comes after 1144 of them.
		ctx := &expiringCtx{Context: context.Background(), after: 7}
		resp, failed := s.answer(ctx, nil, req, nil, false)
		want := `{"id":8,"ok":false,"error":"batch: deadline exceeded","code":"deadline","retryable":false}`
		if !failed || string(resp) != want {
			t.Errorf("%s:\ngot  %s\nwant %s", design, resp, want)
		}
		if ctx.asked != 8 {
			t.Errorf("%s: the deadline was asked %d times, want 8", design, ctx.asked)
		}
	}
	if st := s.Stats(); st.Queries != 0 {
		t.Errorf("lines that ran out of time counted %d bounds answered, want 0", st.Queries)
	}
}

func TestServeWCET(t *testing.T) {
	eng, err := scenario.PlatformFor(mesh.MustDim(4, 4)).Engine()
	if err != nil {
		t.Fatal(err)
	}
	b := mustBenchmark(t, "a2time")
	want, err := eng.BenchmarkWCET(network.DesignWaWWaP, mesh.Node{X: 2, Y: 1}, b)
	if err != nil {
		t.Fatal(err)
	}
	resps := run(t, 2,
		`{"id":1,"op":"wcet","design":"waw+wap","width":4,"height":4,"core":{"x":2,"y":1},"workload":"a2time"}`,
		`{"id":2,"op":"wcet-batch","design":"waw+wap","width":4,"height":4,"workload":"a2time","queries":[[2,1],[0,0]]}`,
	)
	if got := cyclesScalar(t, resps[0]); got != want {
		t.Fatalf("served WCET %d, engine says %d", got, want)
	}
	vec := cyclesVector(t, resps[1])
	if len(vec) != 2 || vec[0] != want {
		t.Fatalf("wcet-batch %v, want first element %d", vec, want)
	}
}

// TestServeScenarioMatchesExecute pins the embedded result JSON to the
// one-shot Execute path byte for byte.
func TestServeScenarioMatchesExecute(t *testing.T) {
	spec := scenario.Spec{
		Name:    "serve-test",
		Mode:    scenario.ModeSimulate,
		Width:   4,
		Height:  4,
		Design:  network.DesignWaWWaP,
		Seed:    5,
		Traffic: scenario.Traffic{Pattern: "uniform", Rate: 40, Messages: 400},
	}
	res, err := scenario.Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resps := run(t, 2, fmt.Sprintf(`{"id":1,"op":"scenario","spec":%s}`, specJSON))
	if !resps[0].OK {
		t.Fatalf("scenario failed: %s", resps[0].Error)
	}
	if !bytes.Equal(resps[0].Result, want) {
		t.Fatalf("served result differs from Execute:\nserve: %s\nexec:  %s", resps[0].Result, want)
	}
}

// TestServeScenarioOwnBudget: a scenario line runs under its own deadline
// budget whatever an identical line in flight beside it asks for. The line
// with timeout_ms:100 answers the coded deadline error within its budget
// plus the simulator's poll slack, and the identical line without a timeout
// answers Execute's bytes — in either order, whichever line the pool starts
// first. Before this test the two shared one execution: the follower got
// the leader's outcome and waited out the leader's run.
func TestServeScenarioOwnBudget(t *testing.T) {
	// About 0.3 s of simulation (seconds under -race): well past the budget.
	spec := scenario.Spec{
		Name:    "own-budget",
		Mode:    scenario.ModeSimulate,
		Width:   8,
		Height:  8,
		Design:  network.DesignWaWWaP,
		Seed:    1,
		Traffic: scenario.Traffic{Pattern: "uniform", Rate: 300, Messages: 400_000},
	}
	res, err := scenario.Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 100 * time.Millisecond
	short := fmt.Sprintf(`{"id":1,"op":"scenario","timeout_ms":%d,"spec":%s}`, budget.Milliseconds(), specJSON)
	long := fmt.Sprintf(`{"id":2,"op":"scenario","spec":%s}`, specJSON)
	check := func(t *testing.T, short, long response) {
		t.Helper()
		if short.OK || short.Error != "scenario: deadline exceeded" {
			t.Errorf("line with timeout_ms:%d: ok %v error %q, want the deadline error", budget.Milliseconds(), short.OK, short.Error)
		}
		if !long.OK || !bytes.Equal(long.Result, want) {
			t.Errorf("line without a timeout: ok %v error %q result %s, want Execute's %s", long.OK, long.Error, long.Result, want)
		}
	}

	t.Run("short-first", func(t *testing.T) {
		resps := run(t, 2, short, long)
		check(t, resps[0], resps[1])
	})

	// The long line first, on its own connection: the short line's answer is
	// then not held behind it in one connection's response order, so its
	// arrival time is its own.
	t.Run("long-first", func(t *testing.T) {
		s := NewServer(Config{Workers: 2})
		defer s.Close()
		started := make(chan struct{})
		var once sync.Once
		s.testHold = func(string) { once.Do(func() { close(started) }) }
		longDone := make(chan []byte, 1)
		go func() {
			var out bytes.Buffer
			if err := s.ServeLines(context.Background(), strings.NewReader(long+"\n"), &out); err != nil {
				t.Errorf("ServeLines (long): %v", err)
			}
			longDone <- out.Bytes()
		}()
		<-started
		begin := time.Now()
		var out bytes.Buffer
		if err := s.ServeLines(context.Background(), strings.NewReader(short+"\n"), &out); err != nil {
			t.Fatalf("ServeLines (short): %v", err)
		}
		took := time.Since(begin)
		var longOut []byte
		select {
		case longOut = <-longDone:
			t.Errorf("the line with timeout_ms:%d was answered after the line without one finished (%v)", budget.Milliseconds(), took)
		default:
			longOut = <-longDone
		}
		// The simulator polls its context every 4096 cycles, about 70 ms of
		// this spec (0.7 s under -race); the slack allows a loaded host more.
		slack := time.Second
		if raceEnabled {
			slack = 5 * time.Second
		}
		if took > budget+slack {
			t.Errorf("the line with timeout_ms:%d was answered after %v, want within %v", budget.Milliseconds(), took, budget+slack)
		}
		check(t, decodeLines(t, out.Bytes(), 1)[0], decodeLines(t, longOut, 1)[0])
		t.Logf("deadline answered after %v", took)
	})
}

func TestServeScenarioRejectsAxes(t *testing.T) {
	resps := run(t, 1, `{"id":1,"op":"scenario","spec":{"mode":"wctt","sizes":[2,3],"width":2,"height":2,"design":"regular"}}`)
	if resps[0].OK || !strings.Contains(resps[0].Error, "sweep axes") {
		t.Fatalf("unexpanded spec not rejected: %+v", resps[0])
	}
}

// retiredZero fails the test unless every retired stats field reads 0: the
// memo and warm counters, the coalesced count and the networks cache block
// stay on the wire (the payload is additive-only) but nothing feeds them any
// more.
func retiredZero(t *testing.T, st *Stats) {
	t.Helper()
	k := st.Kernel
	if st.WCTTMemoHits != 0 || st.WCTTMemoMisses != 0 || k.MemoWarmed != 0 || k.BatchWarms != 0 || k.BatchWarmedBounds != 0 {
		t.Fatalf("retired stats fields must read 0: hits %d misses %d kernel %+v", st.WCTTMemoHits, st.WCTTMemoMisses, k)
	}
	if st.Coalesced != 0 || st.Caches.Networks != (cache.Stats{}) {
		t.Fatalf("retired stats fields must read 0: coalesced %d networks %+v", st.Coalesced, st.Caches.Networks)
	}
}

// TestServeStats checks the counter discipline: queries counts every bound
// (repeats included), a repeated batch line is answered with identical
// bytes, the retired memo fields read 0, and the latency histogram counts
// every line.
func TestServeStats(t *testing.T) {
	q := `{"id":1,"op":"batch","design":"regular","width":5,"height":5,"queries":[[0,0,4,4],[0,0,4,4],[1,1,2,2],[0,0,4,4]]}`
	resps := run(t, 1, q, q, `{"id":2,"op":"stats"}`)
	first := cyclesVector(t, resps[0])
	if first[0] != first[1] || first[0] != first[3] || string(resps[0].Cycles) != string(resps[1].Cycles) {
		t.Fatalf("repeated queries answered differently: %s then %s", resps[0].Cycles, resps[1].Cycles)
	}
	st := resps[2].Stats
	if st == nil {
		t.Fatalf("stats verb returned no stats: %+v", resps[2])
	}
	if st.Queries != 8 {
		t.Fatalf("counted %d queries, want 8", st.Queries)
	}
	retiredZero(t, st)
	// The stats line snapshots before observing itself, so it sees the two
	// batch lines only.
	if st.Requests != 2 || st.Latency.Count != 2 {
		t.Fatalf("requests %d, latency count %d, want 2", st.Requests, st.Latency.Count)
	}
}

// expiringCtx reports a spent deadline once it has been asked more than
// after times, from the third Err call on when after is 0: a vector verb
// passes answer's check and its own before the first tuple, does 1024 tuples
// of work and fails at its next check.
type expiringCtx struct {
	context.Context
	asked, after int
}

func (c *expiringCtx) Err() error {
	if c.asked++; c.asked > max(c.after, 2) {
		return context.DeadlineExceeded
	}
	return nil
}

// TestServeFailedBatchCountsNoBounds pins that queries counts bounds
// answered: a batch or wcet-batch line that fails after computing some bounds
// — a bad tuple behind good ones, or the deadline expiring mid-line — puts
// none of them on the wire and none of them in the counter, on either
// decoder's path.
func TestServeFailedBatchCountsNoBounds(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Close()
	got := serveString(t, s, `{"id":1,"op":"batch","design":"regular","width":4,"height":4,"queries":[[0,0,1,1],[0,0,2,2],[0,0,9,9]]}
{"id":2,"op":"b\u0061tch","design":"regular","width":4,"height":4,"queries":[[0,0,1,1],[0,0,2,2],[0,0,9,9]]}
{"id":3,"op":"wcet-batch","design":"regular","width":4,"height":4,"workload":"matrix","queries":[[0,0],[1,1],[9,9]]}
{"id":4,"op":"batch","design":"regular","width":4,"height":4,"queries":[[0,0,1,1],[0,0,2,2],[0,0,3]]}
`)
	if strings.Count(got, `"ok":false`) != 4 || strings.Contains(got, "cycles") {
		t.Fatalf("want four failed lines carrying no bound, got\n%s", got)
	}
	if st := s.Stats(); st.Queries != 0 || st.Errors != 4 {
		t.Errorf("failed lines counted %d bounds answered and %d errors, want 0 and 4", st.Queries, st.Errors)
	}

	tuples := 2000
	queries := json.RawMessage("[" + strings.TrimSuffix(strings.Repeat("[0,0],", tuples), ",") + "]")
	for _, req := range []*Request{
		{ID: 5, Op: "batch", Design: "regular", Width: 4, Height: 4, Queries: bytes.ReplaceAll(queries, []byte("[0,0]"), []byte("[0,0,3,3]"))},
		{ID: 6, Op: "wcet-batch", Design: "regular", Width: 4, Height: 4, Workload: "matrix", Queries: queries},
	} {
		ctx := &expiringCtx{Context: context.Background()}
		resp, failed := s.answer(ctx, nil, req, nil, false)
		want := fmt.Sprintf(`{"id":%d,"ok":false,"error":"%s: deadline exceeded","code":"deadline","retryable":false}`, req.ID, req.Op)
		if !failed || string(resp) != want {
			t.Errorf("%s under an expiring deadline:\ngot  %s\nwant %s", req.Op, resp, want)
		}
		if ctx.asked != 3 {
			t.Errorf("%s asked its deadline %d times, want 3: it has to fail after 1024 bounds", req.Op, ctx.asked)
		}
	}
	if got := s.Stats().Queries; got != 0 {
		t.Errorf("lines that ran out of time counted %d bounds answered, want 0", got)
	}
	if got := serveString(t, s, `{"id":7,"op":"batch","design":"regular","width":4,"height":4,"queries":[[0,0,1,1],[0,0,2,2]]}`+"\n"); !strings.Contains(got, `"ok":true`) || s.Stats().Queries != 2 {
		t.Errorf("a good line answered %q and left the counter at %d, want 2", got, s.Stats().Queries)
	}
}

// TestServeKernelStats checks the kernel accounting: whole-mesh batches are
// answered bound by bound by the route walk (identical bytes both times, no
// kernel run, every bound counted), while a kernel-backed scenario line
// advances all_pairs_runs and scenario_kernel_runs.
func TestServeKernelStats(t *testing.T) {
	d := mesh.MustDim(4, 3)
	var tuples []string
	for _, src := range d.AllNodes() {
		for _, dst := range d.AllNodes() {
			if src == dst {
				continue
			}
			tuples = append(tuples, fmt.Sprintf("[%d,%d,%d,%d]", src.X, src.Y, dst.X, dst.Y))
		}
	}
	batch := fmt.Sprintf(`{"id":1,"op":"batch","design":"waw-only","width":4,"height":3,"queries":[%s]}`,
		strings.Join(tuples, ","))
	scen := `{"id":2,"op":"scenario","spec":{"mode":"wctt","width":3,"height":3,"design":"regular"}}`
	stats := `{"id":3,"op":"stats"}`
	// One worker: the lines are handled strictly in order, so each stats
	// line snapshots exactly the lines before it.
	resps := run(t, 1, stats, batch, batch, stats, scen, stats)
	for _, r := range resps {
		if !r.OK {
			t.Fatalf("line %d failed: %s", r.ID, r.Error)
		}
	}
	if string(resps[1].Cycles) != string(resps[2].Cycles) {
		t.Fatalf("identical whole-mesh batches answered differently:\n%s\n%s", resps[1].Cycles, resps[2].Cycles)
	}
	before, batched, after := resps[0].Stats, resps[3].Stats, resps[5].Stats
	for _, st := range []*Stats{before, batched, after} {
		if st == nil {
			t.Fatal("stats verb returned no stats")
		}
		retiredZero(t, st)
	}
	if got, want := batched.Queries, uint64(2*len(tuples)); got != want {
		t.Fatalf("counted %d queries for two whole-mesh batches, want %d", got, want)
	}
	if batched.Kernel.AllPairsRuns != before.Kernel.AllPairsRuns || batched.Kernel.ScenarioKernelRuns != 0 {
		t.Fatalf("batch lines must not run the kernels: %+v -> %+v", before.Kernel, batched.Kernel)
	}
	if after.Kernel.AllPairsRuns <= batched.Kernel.AllPairsRuns || after.Kernel.ScenarioKernelRuns != 1 {
		t.Fatalf("kernel-backed scenario line not counted: %+v -> %+v", batched.Kernel, after.Kernel)
	}
}

// TestServeKernelStatsWireShape pins the stats payload's wire field names
// (PROTOCOL.md): the payload is additive-only, so the retired memo, warm,
// coalesced and networks fields stay present for consumers that decode them.
func TestServeKernelStatsWireShape(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	defer s.Close()
	var out bytes.Buffer
	if err := s.ServeLines(context.Background(), strings.NewReader(`{"id":1,"op":"stats"}`+"\n"), &out); err != nil {
		t.Fatalf("ServeLines: %v", err)
	}
	raw := out.String()
	for _, field := range []string{
		`"wctt_memo_hits":`, `"wctt_memo_misses":`, `"coalesced":`, `"networks":{`,
		`"kernel":{`, `"all_pairs_runs":`, `"row_sweeps":`, `"memo_warmed":`,
		`"batch_warms":`, `"batch_warmed_bounds":`, `"scenario_kernel_runs":`,
	} {
		if !strings.Contains(raw, field) {
			t.Errorf("stats payload missing wire field %s:\n%s", field, raw)
		}
	}
}

// TestServeListenerDrain exercises the graceful path: a TCP client with an
// open connection and an in-flight request gets its response before
// Shutdown returns, and the reader unblocks without the client closing.
func TestServeListenerDrain(t *testing.T) {
	s := NewServer(Config{Workers: 2})
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.ServeListener(context.Background(), ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(`{"id":7,"op":"wctt","design":"regular","width":6,"height":6,"src":{"x":0,"y":0},"dst":{"x":5,"y":5}}` + "\n")); err != nil {
		t.Fatal(err)
	}
	// Read the response first so the admitted line is provably answered,
	// then drain while the connection sits open and idle.
	line, err := readLine(conn)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	var r response
	if err := json.Unmarshal(line, &r); err != nil || !r.OK || r.ID != 7 {
		t.Fatalf("bad drained response %q (err %v)", line, err)
	}

	done := make(chan struct{})
	go func() { s.Shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not drain an idle open connection")
	}
	if err := <-served; err != nil {
		t.Fatalf("ServeListener after drain: %v", err)
	}
	if err := s.ServeLines(context.Background(), strings.NewReader(""), &bytes.Buffer{}); err == nil {
		t.Fatal("drained server accepted a new stream")
	}
}

// TestServeDrainAnswersInFlight pins the core drain guarantee with the
// worker pool saturated: lines admitted before Shutdown all get responses.
func TestServeDrainAnswersInFlight(t *testing.T) {
	s := NewServer(Config{Workers: 1, Queue: 4})
	defer s.Close()
	client, server := net.Pipe()
	defer client.Close()

	var out bytes.Buffer
	var mu sync.Mutex
	servedDone := make(chan error, 1)
	go func() {
		servedDone <- s.ServeLines(context.Background(), server, lockedWriter{&mu, &out})
	}()

	const n = 8
	var lines bytes.Buffer
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&lines, `{"id":%d,"op":"wctt","design":"waw+wap","width":7,"height":7,"src":{"x":0,"y":0},"dst":{"x":6,"y":6}}`+"\n", i)
	}
	if _, err := client.Write(lines.Bytes()); err != nil {
		t.Fatal(err)
	}
	// Wait until every line is admitted (answered is fine too), then drain
	// without ever closing the client side.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		got := bytes.Count(out.Bytes(), []byte("\n"))
		mu.Unlock()
		if got == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d responses before drain", got, n)
		}
		time.Sleep(time.Millisecond)
	}
	s.Shutdown()
	if err := <-servedDone; err != nil {
		t.Fatalf("ServeLines after drain: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	resps := decodeLines(t, out.Bytes(), n)
	for i, r := range resps {
		if r.ID != int64(i+1) || !r.OK {
			t.Fatalf("response %d: %+v", i, r)
		}
	}
}

// readLine reads one newline-terminated response off a connection.
func readLine(conn net.Conn) ([]byte, error) {
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var line []byte
	buf := make([]byte, 1)
	for {
		if _, err := conn.Read(buf); err != nil {
			return nil, err
		}
		if buf[0] == '\n' {
			return line, nil
		}
		line = append(line, buf[0])
	}
}

func mustBenchmark(t *testing.T, name string) workload.Benchmark {
	t.Helper()
	b, err := workload.BenchmarkByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (l lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
}

func TestServeHTTPHandler(t *testing.T) {
	s := NewServer(Config{Workers: 2})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	body := `{"id":1,"op":"ping"}` + "\n" + `{"id":2,"op":"wctt","design":"regular","width":4,"height":4,"src":{"x":0,"y":0},"dst":{"x":3,"y":3}}` + "\n"
	res, err := srv.Client().Post(srv.URL, "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(res.Body); err != nil {
		t.Fatal(err)
	}
	resps := decodeLines(t, buf.Bytes(), 2)
	if resps[0].ID != 1 || resps[1].ID != 2 || !resps[1].OK {
		t.Fatalf("HTTP responses wrong: %+v", resps)
	}

	st, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	var stats Stats
	if err := json.NewDecoder(st.Body).Decode(&stats); err != nil {
		t.Fatalf("stats GET: %v", err)
	}
	if stats.Requests < 2 {
		t.Fatalf("stats GET saw %d requests, want >= 2", stats.Requests)
	}

	s.Shutdown()
	denied, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	denied.Body.Close()
	if denied.StatusCode != 503 {
		t.Fatalf("draining handler answered %d, want 503", denied.StatusCode)
	}
}

func TestParseTuples(t *testing.T) {
	got, err := scannedTuples([]byte(` [ [1,2,3,4] , [5,6,7,8,-9] ] `), 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].v[3] != 4 || got[1].v[4] != -9 {
		t.Fatalf("parsed %v", got)
	}
	if _, err := scannedTuples([]byte(`[]`), 4, 5); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	for _, bad := range []string{
		`[[1,2,3]]`,            // too short
		`[[1,2,3,4,5,6]]`,      // too long
		`[[1,2,3,4]`,           // unterminated
		`[[1,2,3,4]] trailing`, // trailing data
		`[[1,2,x,4]]`,          // non-integer
	} {
		if err := parseTuples([]byte(bad), 4, 5); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

// TestServeTopologyField pins the wire-level topology contract: the cmesh
// bound matches the analytical model built with the same TopoSpec, the
// mesh-only verbs reject other topologies, and a name that is not a shipped
// topology, the torus included, gets the one unknown-topology error.
func TestServeTopologyField(t *testing.T) {
	p := analysis.DefaultParams(mesh.MustDim(8, 8))
	p.Topo = mesh.TopoSpec{Kind: mesh.TopoCMesh, Conc: 4}
	m := analysis.MustNewModel(p)
	want, err := m.MessageWCTT(network.DesignWaWWaP, mesh.Node{X: 0, Y: 0}, mesh.Node{X: 7, Y: 7}, traffic.RequestPayloadBits)
	if err != nil {
		t.Fatal(err)
	}
	resps := run(t, 2,
		`{"id":1,"op":"wctt","design":"waw+wap","width":8,"height":8,"topology":"cmesh","src":{"x":0,"y":0},"dst":{"x":7,"y":7}}`,
		`{"id":2,"op":"wctt","design":"waw+wap","width":8,"height":8,"topology":"torus","src":{"x":0,"y":0},"dst":{"x":7,"y":7}}`,
		`{"id":3,"op":"batch","design":"regular","width":4,"height":4,"topology":"torus","queries":[[0,0,3,3]]}`,
		`{"id":4,"op":"wcet","design":"waw+wap","width":4,"height":4,"topology":"cmesh","core":{"x":1,"y":1},"workload":"a2time"}`,
		`{"id":5,"op":"wcet-batch","design":"regular","width":4,"height":4,"topology":"cmesh2","workload":"cacheb","queries":[[0,0]]}`,
		`{"id":6,"op":"wctt","design":"regular","width":4,"height":4,"topology":"banana","src":{"x":0,"y":0},"dst":{"x":3,"y":3}}`,
		`{"id":7,"op":"wctt","design":"waw+wap","width":8,"height":8,"topology":"mesh","src":{"x":0,"y":0},"dst":{"x":7,"y":7}}`,
		`{"id":8,"op":"wctt","design":"waw+wap","width":8,"height":8,"src":{"x":0,"y":0},"dst":{"x":7,"y":7}}`,
	)
	if got := cyclesScalar(t, resps[0]); got != want {
		t.Errorf("served cmesh WCTT %d, model says %d", got, want)
	}
	unknown := func(name string) string {
		return fmt.Sprintf("mesh: unknown topology %q (want mesh, cmesh, cmesh2 or cmesh4)", name)
	}
	for i, name := range map[int]string{1: "torus", 2: "torus", 5: "banana"} {
		if resps[i].OK || resps[i].Error != unknown(name) {
			t.Errorf("line %d: topology %q answered %+v, want error %q", i+1, name, resps[i], unknown(name))
		}
	}
	for _, i := range []int{3, 4} {
		if resps[i].OK || !strings.Contains(resps[i].Error, "mesh only") {
			t.Errorf("line %d: cmesh wcet not rejected as mesh-only: %+v", i+1, resps[i])
		}
	}
	// "mesh", "" and an absent field are the same topology.
	if a, b := cyclesScalar(t, resps[6]), cyclesScalar(t, resps[7]); a != b {
		t.Errorf("explicit mesh WCTT %d differs from default %d", a, b)
	}
}

// TestServeScenarioCMesh runs a cmesh2 simulation through the scenario verb
// and pins it to the one-shot Execute path.
func TestServeScenarioCMesh(t *testing.T) {
	spec := scenario.Spec{
		Name:     "serve-cmesh2",
		Mode:     scenario.ModeSimulate,
		Topology: "cmesh2",
		Width:    4,
		Height:   4,
		Design:   network.DesignRegular,
		Seed:     9,
		Traffic:  scenario.Traffic{Pattern: "tornado", Rate: 30, Messages: 200},
	}
	res, err := scenario.Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resps := run(t, 1, fmt.Sprintf(`{"id":1,"op":"scenario","spec":%s}`, specJSON))
	if !resps[0].OK {
		t.Fatalf("cmesh2 scenario failed: %s", resps[0].Error)
	}
	if !bytes.Equal(resps[0].Result, want) {
		t.Fatalf("served cmesh2 result differs from Execute:\nserve: %s\nexec:  %s", resps[0].Result, want)
	}
}

// TestServeScenarioOneEndpoint: a simulate scenario with uniform or hotspot
// traffic on a 1x1 grid is refused with the validation error, at once,
// instead of stepping an idle network through its cycle budget (50 million
// cycles took 0.7 s) or until the line's deadline.
func TestServeScenarioOneEndpoint(t *testing.T) {
	resps := run(t, 1,
		`{"id":1,"op":"scenario","spec":{"mode":"simulate","width":1,"height":1,"design":"regular","traffic":{"pattern":"uniform"},"max_cycles":50000000}}`,
		`{"id":2,"op":"scenario","spec":{"mode":"simulate","width":1,"height":1,"design":"regular","max_cycles":50000000}}`,
	)
	for i, pattern := range []string{"uniform", "hotspot"} {
		want := "scenario: " + pattern + " traffic needs at least two endpoints; the 1x1 grid has one"
		if resps[i].OK || resps[i].Error != want {
			t.Errorf("line %d: %+v, want error %q", i+1, resps[i], want)
		}
	}
}

// TestAppendDecimalMatchesStrconv holds the vector verbs' number encoder to
// strconv.AppendUint: every value below 10^6, every power of ten and its
// neighbours, 2^64-1, and a million values of every bit length. A whole
// cyclesVector response, reserved once from the digits of its largest bound,
// must be the line strconv builds, for the empty vector and vectors of one
// and of mixed digit counts, behind a dst that already holds bytes.
func TestAppendDecimalMatchesStrconv(t *testing.T) {
	check := func(v uint64) {
		b := []byte("[" + strings.Repeat("x", 20))
		if got, want := b[:putDecimals(b, 1, []uint64{v})], strconv.AppendUint([]byte("["), v, 10); string(got) != string(want) {
			t.Fatalf("putDecimals(%d) = %q, want %q", v, got, want)
		}
	}
	for v := uint64(0); v < 1e6; v++ {
		check(v)
	}
	for p := uint64(1); p <= 1e19; p *= 10 {
		check(p - 1)
		check(p)
		check(p + 1)
		if p == 1e19 {
			break
		}
	}
	check(1<<64 - 1)
	rng := rand.New(rand.NewSource(1))
	for range 1000000 {
		check(rng.Uint64() >> rng.Intn(64))
	}

	s := NewServer(Config{Workers: 1})
	defer s.Close()
	mixed := make([]uint64, 4032)
	for i := range mixed {
		mixed[i] = rng.Uint64() >> rng.Intn(64)
	}
	for _, cycles := range [][]uint64{
		{}, {0}, {9}, {10}, {99}, {100}, {1<<64 - 1},
		{0, 9, 10, 99, 100, 1<<64 - 1, 7, 12345, 0},
		{1<<64 - 1, 0, 0, 0}, mixed,
	} {
		want := []byte(`prefix{"id":-3,"ok":true,"cycles":[`)
		for i, c := range cycles {
			if i > 0 {
				want = append(want, ',')
			}
			want = strconv.AppendUint(want, c, 10)
		}
		want = append(want, "]}"...)
		got, failed := s.cyclesVector([]byte("prefix"), &Request{ID: -3, Op: "batch"}, cycles, nil)
		if failed || !bytes.Equal(got, want) {
			t.Fatalf("cyclesVector(%.40v) = %.120q, %v; want %.120q", cycles, got, failed, want)
		}
	}
}
