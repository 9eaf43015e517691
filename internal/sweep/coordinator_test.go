package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/network"
	"repro/internal/scenario"
)

// TestMain doubles as the worker-subprocess entry point: the coordinator
// tests respawn this very test binary with SWEEP_TEST_WORKER=1, so the
// multi-process executor is exercised against real processes and real
// pipes without building noctool first. Fault plans (crashes at exact,
// reproducible points, hangs, garbled output, skewed pongs) arrive through
// the NOCTOOL_FAULT_* environment seam HooksFromEnv decodes.
func TestMain(m *testing.M) {
	if os.Getenv("SWEEP_TEST_WORKER") == "1" {
		if err := ServeWorker(context.Background(), os.Stdin, os.Stdout, HooksFromEnv(os.Getenv)); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// HooksFromEnv decodes a scripted fault plan from the environment (the
// NOCTOOL_FAULT_* keys of internal/faultinject) into worker hooks. This is
// the worker half of the coordinator's Command/Env injection seam: a chaos
// test appends faultinject.WorkerFaults.Env() to the worker command's
// environment, and the re-exec'd test binary turns it into scripted crashes,
// garbled output, skewed heartbeats or hangs. It lives with the tests: the
// production worker (noctool sweep -worker) runs the zero hooks whatever its
// environment holds.
func HooksFromEnv(getenv func(string) string) WorkerHooks {
	f := faultinject.WorkerFaultsFromEnv(getenv)
	h := WorkerHooks{
		PongDelay:   f.PongDelay,
		GarbleEvery: f.GarbleEvery,
		Hang:        f.Hang,
	}
	if n := f.CrashAfter; n > 0 {
		h.AfterRespond = func(k int) {
			if k >= n {
				_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
		}
	}
	if idx := f.CrashIndex; idx >= 0 {
		h.BeforeRun = func(i int) {
			if i == idx {
				_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
			}
		}
	}
	return h
}

// testCoordinator builds a coordinator that re-execs this test binary as
// its worker processes. Respawn backoff is disabled — crash-schedule tests
// pin requeue/quarantine behaviour, not pacing; the backoff test re-enables
// it explicitly.
func testCoordinator(procs int, extraEnv ...string) *Coordinator {
	return &Coordinator{
		Command:        []string{os.Args[0]},
		Env:            append(append(os.Environ(), "SWEEP_TEST_WORKER=1"), extraEnv...),
		Procs:          procs,
		RestartBackoff: -1,
		Stderr:         os.Stderr,
	}
}

// coordGrid is the reference grid of the coordinator tests: the Table II
// acceptance sweep plus a couple of cycle-accurate points, so both the
// analytical and the simulator paths cross the wire.
func coordGrid(t *testing.T) []scenario.Spec {
	t.Helper()
	specs, err := tableIISpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	sim := scenario.Spec{
		Name:    "sim",
		Mode:    scenario.ModeSimulate,
		Sizes:   []int{2, 3},
		Designs: []network.Design{network.DesignRegular, network.DesignWaWWaP},
		Seed:    7,
		Traffic: scenario.Traffic{Pattern: "uniform", Rate: 40, Messages: 120},
	}
	simSpecs, err := sim.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return append(specs, simSpecs...)
}

// runToJSON executes the grid through the given executor and returns the
// aggregated results as canonical JSON plus the collector error.
func runToJSON(t *testing.T, specs []scenario.Spec, exec Executor, opts Options) ([]byte, error) {
	t.Helper()
	c := NewCollector(len(specs))
	if err := Stream(context.Background(), Tasks(specs), opts, exec, c); err != nil {
		t.Fatalf("stream: %v", err)
	}
	raw, err := json.Marshal(c.Results())
	if err != nil {
		t.Fatal(err)
	}
	return raw, c.Err()
}

// TestCoordinatorMatchesInProcess is the acceptance property of the
// multi-process executor: for every worker-process count, the aggregated
// results are byte-identical to the in-process engine.
func TestCoordinatorMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	specs := coordGrid(t)
	want, err := runToJSON(t, specs, InProcess{}, Options{})
	if err != nil {
		t.Fatalf("in-process error: %v", err)
	}
	for _, procs := range []int{1, 2, 4} {
		got, err := runToJSON(t, specs, testCoordinator(procs), Options{})
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if string(got) != string(want) {
			t.Errorf("procs=%d: coordinator results differ from in-process", procs)
		}
	}
}

// TestCoordinatorSurvivesWorkerCrashes kills every worker with SIGKILL
// after its 2nd response; the coordinator must restart workers, requeue
// their in-flight tasks, and still deliver byte-identical results.
func TestCoordinatorSurvivesWorkerCrashes(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	specs := coordGrid(t)
	want, err := runToJSON(t, specs, InProcess{}, Options{})
	if err != nil {
		t.Fatalf("in-process error: %v", err)
	}
	co := testCoordinator(2, "NOCTOOL_FAULT_CRASH_AFTER=2")
	co.MaxRestarts = 50
	// Every single worker crashes after two results, so the same unlucky
	// task can be in flight across many crashes; the poison-task budget
	// must not misfire on it.
	co.MaxAttempts = 50
	got, err := runToJSON(t, specs, co, Options{})
	if err != nil {
		t.Fatalf("crashy coordinator error: %v", err)
	}
	if string(got) != string(want) {
		t.Error("results after worker crashes differ from in-process")
	}
}

// TestCoordinatorKillsHungWorker pins the heartbeat: a worker that stops
// responding entirely (not merely busy) is killed on the liveness timeout
// and its task fails once the attempt budget is spent — the sweep must
// terminate, not hang.
func TestCoordinatorKillsHungWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	specs, err := scenario.Spec{
		Name:    "hang",
		Mode:    scenario.ModeWCTT,
		Sizes:   []int{3},
		Designs: []network.Design{network.DesignRegular},
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	co := testCoordinator(1, "NOCTOOL_FAULT_HANG=1")
	co.HeartbeatInterval = 20 * time.Millisecond
	co.HeartbeatTimeout = 250 * time.Millisecond
	co.MaxRestarts = 1
	co.MaxAttempts = 1
	done := make(chan struct{})
	var raw []byte
	var cerr error
	go func() {
		defer close(done)
		raw, cerr = runToJSON(t, specs, co, Options{})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("sweep with hung worker did not terminate")
	}
	_ = raw
	if cerr == nil {
		t.Fatal("hung worker's task reported success")
	}
	if !strings.Contains(cerr.Error(), "attempt") {
		t.Errorf("unexpected error: %v", cerr)
	}
}

// TestCoordinatorCancellation: cancelling the context mid-run drains the
// remaining grid as skipped (summarised, carrying the cancellation cause)
// and reaps every worker.
func TestCoordinatorCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	specs := coordGrid(t)
	ctx, cancel := context.WithCancel(context.Background())
	c := NewCollector(len(specs))
	fired := 0
	opts := Options{Progress: func(done, total int, r scenario.Result) {
		fired++
		if done == 3 {
			cancel()
		}
	}}
	if err := Stream(ctx, Tasks(specs), opts, testCoordinator(2), c); err != nil {
		t.Fatalf("stream: %v", err)
	}
	if fired != len(specs) {
		t.Errorf("progress fired %d times, want %d (skips must report too)", fired, len(specs))
	}
	err := c.Err()
	if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Errorf("cancelled sweep error = %v, want it to carry %q", err, context.Canceled)
	}
	if strings.Count(err.Error(), "skipped") != 1 {
		t.Errorf("skips were not summarised into one error: %v", err)
	}
}

// TestKillAndResumeDeterminism is the end-to-end resume property, across
// randomized interrupt points and worker-crash injection: a sweep that
// dies mid-run (streamed JSONL + checkpoint cut at an arbitrary record
// boundary, possibly with a torn trailing line) resumes to a merged JSONL
// byte-identical to an uninterrupted run.
func TestKillAndResumeDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	specs := coordGrid(t)
	total := len(specs)
	grid, err := GridKey(specs)
	if err != nil {
		t.Fatal(err)
	}

	// The uninterrupted reference: stream + merge in one process.
	refDir := t.TempDir()
	refOut := refDir + "/out.jsonl"
	refCk := refDir + "/sweep.ckpt"
	runStreamed(t, specs, grid, refOut, refCk, InProcess{})
	if err := MergeJSONL(refOut, total); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(refOut)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 4; trial++ {
		cut := 1 + rng.Intn(total-2)
		dir := t.TempDir()
		out, ck := dir+"/out.jsonl", dir+"/sweep.ckpt"

		// Phase 1: run under a crashy multi-process coordinator and
		// abort the whole sweep after `cut` results by failing the sink —
		// the moral equivalent of SIGKILLing the coordinator at a record
		// boundary, while its workers are themselves being SIGKILLed.
		co := testCoordinator(2, "NOCTOOL_FAULT_CRASH_AFTER=3")
		co.MaxRestarts = 50
		co.MaxAttempts = 50
		abort := fmt.Errorf("simulated coordinator death")
		runStreamedAbort(t, specs, grid, out, ck, co, cut, abort)

		// Torn trailing lines, as a real SIGKILL mid-write would leave.
		if trial%2 == 1 {
			appendRaw(t, out, `{"index":`)
			appendRaw(t, ck, `{"ind`)
		}

		// Phase 2: resume and finish in-process.
		st, err := LoadResume(out, ck, total, grid)
		if err != nil {
			t.Fatalf("trial %d: resume: %v", trial, err)
		}
		if st == nil || len(st.Raw) == 0 {
			t.Fatalf("trial %d: nothing recovered after %d results", trial, cut)
		}
		var tasks []Task
		for i, s := range specs {
			if !st.Done(i) {
				tasks = append(tasks, Task{Index: i, Spec: s})
			}
		}
		if len(tasks) == total {
			t.Fatalf("trial %d: resume recomputes everything", trial)
		}
		outF, err := OpenResumeOutput(out)
		if err != nil {
			t.Fatal(err)
		}
		ckF, ckw, err := RewriteCheckpoint(ck, total, grid, st)
		if err != nil {
			t.Fatal(err)
		}
		sink := NewJSONLSink(outF, ckw)
		if err := Stream(context.Background(), tasks, Options{}, InProcess{}, sink); err != nil {
			t.Fatalf("trial %d: resumed stream: %v", trial, err)
		}
		outF.Close()
		ckF.Close()
		if err := MergeJSONL(out, total); err != nil {
			t.Fatalf("trial %d: merge: %v", trial, err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("trial %d (cut=%d): resumed merged JSONL differs from uninterrupted run", trial, cut)
		}
	}
}

// runStreamed runs specs through exec with a JSONL+checkpoint sink pair.
func runStreamed(t *testing.T, specs []scenario.Spec, grid, out, ck string, exec Executor) {
	t.Helper()
	outF, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	defer outF.Close()
	ckF, err := os.Create(ck)
	if err != nil {
		t.Fatal(err)
	}
	defer ckF.Close()
	ckw, err := NewCheckpointWriter(ckF, len(specs), grid)
	if err != nil {
		t.Fatal(err)
	}
	sink := NewJSONLSink(outF, ckw)
	if err := Stream(context.Background(), Tasks(specs), Options{}, exec, sink); err != nil {
		t.Fatal(err)
	}
}

// abortSink fails the sweep after n successful puts — cutting the stream
// at an exact record boundary, like a kill between two writes. Executors
// call Put concurrently (see ResultSink), so the countdown is locked.
type abortSink struct {
	inner ResultSink
	mu    sync.Mutex
	left  int
	err   error
}

func (a *abortSink) Put(i int, r scenario.Result, err error) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.left <= 0 {
		return a.err
	}
	a.left--
	return a.inner.Put(i, r, err)
}

// runStreamedAbort is runStreamed dying after cut records.
func runStreamedAbort(t *testing.T, specs []scenario.Spec, grid, out, ck string, exec Executor, cut int, abort error) {
	t.Helper()
	outF, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	defer outF.Close()
	ckF, err := os.Create(ck)
	if err != nil {
		t.Fatal(err)
	}
	defer ckF.Close()
	ckw, err := NewCheckpointWriter(ckF, len(specs), grid)
	if err != nil {
		t.Fatal(err)
	}
	sink := &abortSink{inner: NewJSONLSink(outF, ckw), left: cut, err: abort}
	err = Stream(context.Background(), Tasks(specs), Options{}, exec, sink)
	if err == nil || !strings.Contains(err.Error(), abort.Error()) {
		t.Fatalf("aborted stream returned %v, want %v", err, abort)
	}
}

func appendRaw(t *testing.T, path, s string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(s); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointCorruptionRejected: a malformed non-final checkpoint line,
// a wrong grid key, and a wrong total must all refuse to resume.
func TestCheckpointCorruptionRejected(t *testing.T) {
	specs, err := tableIISpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	total := len(specs)
	grid, err := GridKey(specs)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	out, ck := dir+"/out.jsonl", dir+"/sweep.ckpt"
	runStreamed(t, specs, grid, out, ck, InProcess{})

	// Sanity: the intact pair resumes fully done.
	st, err := LoadResume(out, ck, total, grid)
	if err != nil {
		t.Fatalf("intact resume: %v", err)
	}
	if len(st.Raw) != total {
		t.Fatalf("intact resume recovered %d/%d", len(st.Raw), total)
	}

	if _, err := LoadResume(out, ck, total, "deadbeef"); err == nil {
		t.Error("grid-key mismatch accepted")
	}
	if _, err := LoadResume(out, ck, total+1, grid); err == nil {
		t.Error("total mismatch accepted")
	}

	// Corrupt a byte in the middle of the checkpoint (not the last line).
	data, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := []byte(strings.Replace(string(data), `"index"`, `"inde%"`, 1))
	if err := os.WriteFile(ck, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadResume(out, ck, total, grid); err == nil {
		t.Error("corrupted checkpoint accepted")
	}

	// A missing checkpoint is a fresh start, not an error.
	st, err = LoadResume(out, dir+"/nope.ckpt", total, grid)
	if err != nil || st != nil {
		t.Errorf("missing checkpoint: st=%v err=%v, want nil/nil", st, err)
	}
}

// recordingSink records every Put per index, so tests can assert the
// exactly-once delivery property and compare per-index outcomes.
type recordingSink struct {
	mu    sync.Mutex
	count map[int]int
	res   map[int]scenario.Result
	errs  map[int]error
}

func newRecordingSink() *recordingSink {
	return &recordingSink{count: map[int]int{}, res: map[int]scenario.Result{}, errs: map[int]error{}}
}

func (s *recordingSink) Put(i int, r scenario.Result, err error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.count[i]++
	s.res[i] = r
	s.errs[i] = err
	return nil
}

// TestCoordinatorRestartBackoff pins the respawn pacing: a task that kills
// every worker it touches fails after its attempt budget, and the elapsed
// time covers the jittered backoff floors between respawns (half of each
// exponential ceiling), so a crash loop cannot become a spawn storm.
func TestCoordinatorRestartBackoff(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	specs, err := scenario.Spec{
		Name:    "poison",
		Mode:    scenario.ModeWCTT,
		Sizes:   []int{3},
		Designs: []network.Design{network.DesignRegular},
	}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	const base = 40 * time.Millisecond
	co := testCoordinator(1, "NOCTOOL_FAULT_CRASH_INDEX=0")
	co.RestartBackoff = base
	co.MaxAttempts = 3
	start := time.Now()
	_, cerr := runToJSON(t, specs, co, Options{})
	if cerr == nil || !strings.Contains(cerr.Error(), "3 attempts") {
		t.Fatalf("always-crashing task error = %v, want attempt exhaustion", cerr)
	}
	// Two backoff sleeps separate the three attempts, drawn from
	// [base/2, base) and [base, 2*base): at least 20ms + 40ms.
	if floor := base/2 + base; time.Since(start) < floor {
		t.Errorf("three attempts took %v, want >= %v of backoff", time.Since(start), floor)
	}
}

// TestBackoffSchedule pins the respawn delay envelope — respawn n draws from
// [d/2, d], d = min(base·2ⁿ, max) — for explicit and default settings.
func TestBackoffSchedule(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		name      string
		base, max time.Duration
		ceil      []time.Duration // ms
	}{
		{"explicit", 10 * ms, 80 * ms, []time.Duration{10, 20, 40, 80, 80, 80}},
		{"defaults", 0, 0, []time.Duration{100, 200, 400, 800, 1600, 2000, 2000}},
		{"long", 3 * ms, time.Second, []time.Duration{3, 6, 12, 24, 48, 96, 192, 384, 768, 1000, 1000, 1000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := (&Coordinator{RestartBackoff: tc.base, RestartBackoffMax: tc.max, BackoffSeed: 1}).slotBackoff(0)
			for i, c := range tc.ceil {
				c *= ms
				if d := b.next(); d < c/2 || d > c {
					t.Errorf("respawn %d: delay %v outside [%v, %v]", i, d, c/2, c)
				}
			}
		})
	}
	if b := (&Coordinator{RestartBackoff: -1}).slotBackoff(0); b != nil {
		t.Errorf("negative RestartBackoff built a backoff: %+v", b)
	}
}

// TestBackoffDeterministic: a slot's delays replay from the seed — the
// property the chaos harness leans on — while another slot, or another
// seed, draws other ones.
func TestBackoffDeterministic(t *testing.T) {
	co := &Coordinator{RestartBackoff: 3 * time.Millisecond, RestartBackoffMax: time.Second, BackoffSeed: 7}
	reseeded := &Coordinator{RestartBackoff: 3 * time.Millisecond, RestartBackoffMax: time.Second, BackoffSeed: 8}
	b, again, otherSlot, otherSeed := co.slotBackoff(0), co.slotBackoff(0), co.slotBackoff(1), reseeded.slotBackoff(0)
	slotDiffers, seedDiffers := false, false
	for i := 0; i < 32; i++ {
		d := b.next()
		if a := again.next(); a != d {
			t.Errorf("respawn %d: same seed drew %v then %v", i, d, a)
		}
		if otherSlot.next() != d {
			slotDiffers = true
		}
		if otherSeed.next() != d {
			seedDiffers = true
		}
	}
	if !slotDiffers {
		t.Error("slots 0 and 1 drew identical delay sequences")
	}
	if !seedDiffers {
		t.Error("distinct seeds drew identical delay sequences")
	}
}

// TestCoordinatorPoisonTaskQuarantine: one task that SIGKILLs every worker
// dispatched it must not take innocent tasks down with it. After its first
// crash it is quarantined to dedicated solo workers; solo crashes charge
// the task's attempt budget, not the slot's restart budget — so even with
// MaxRestarts=1 the sweep completes, every other index matching the
// in-process engine, and every index reported exactly once.
func TestCoordinatorPoisonTaskQuarantine(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	specs := coordGrid(t)
	const poison = 5
	ref := newRecordingSink()
	if err := Stream(context.Background(), Tasks(specs), Options{}, InProcess{}, ref); err != nil {
		t.Fatalf("in-process stream: %v", err)
	}
	co := testCoordinator(2, fmt.Sprintf("NOCTOOL_FAULT_CRASH_INDEX=%d", poison))
	co.MaxRestarts = 1
	co.MaxAttempts = 2
	got := newRecordingSink()
	if err := Stream(context.Background(), Tasks(specs), Options{}, co, got); err != nil {
		t.Fatalf("stream: %v", err)
	}
	for i := range specs {
		if got.count[i] != 1 {
			t.Errorf("index %d reported %d times, want exactly once", i, got.count[i])
		}
	}
	if err := got.errs[poison]; err == nil || !strings.Contains(err.Error(), "2 attempts") {
		t.Errorf("poison index error = %v, want attempt exhaustion", err)
	}
	for i := range specs {
		if i == poison {
			continue
		}
		if err := got.errs[i]; err != nil {
			t.Errorf("innocent index %d failed: %v", i, err)
			continue
		}
		w, _ := json.Marshal(ref.res[i])
		g, _ := json.Marshal(got.res[i])
		if string(w) != string(g) {
			t.Errorf("index %d result differs from in-process", i)
		}
	}
}

// TestAutoSplit pins the process/window policy on synthetic machine shapes.
func TestAutoSplit(t *testing.T) {
	cases := []struct {
		cores, procs, points int
		want                 Split
	}{
		{cores: 8, procs: -1, points: 100, want: Split{Procs: 8, Window: 2}},
		{cores: 8, procs: 2, points: 100, want: Split{Procs: 2, Window: 2}},
		{cores: 8, procs: 2, points: 3, want: Split{Procs: 2, Window: 2}},
		{cores: 8, procs: 4, points: 2, want: Split{Procs: 2, Window: 1}},
		{cores: 1, procs: -1, points: 5, want: Split{Procs: 1, Window: 2}},
		{cores: 16, procs: 3, points: 3, want: Split{Procs: 3, Window: 1}},
	}
	for _, c := range cases {
		if got := AutoSplit(c.cores, c.procs, c.points); got != c.want {
			t.Errorf("AutoSplit(%d, %d, %d) = %+v, want %+v", c.cores, c.procs, c.points, got, c.want)
		}
	}
}
