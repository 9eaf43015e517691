package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/scenario"
	"repro/internal/sweep/pool"
)

// Task pairs a concrete scenario spec with its index in the expanded grid.
// Executors report outcomes by this index, which is what keeps aggregation
// deterministic (spec-ordered) no matter where or in which order the
// scenarios actually run — in-process goroutines, worker subprocesses, or a
// resumed remainder of a previously interrupted sweep.
type Task struct {
	Index int
	Spec  scenario.Spec
}

// Tasks wraps a spec list into tasks indexed by position.
func Tasks(specs []scenario.Spec) []Task {
	tasks := make([]Task, len(specs))
	for i, s := range specs {
		tasks[i] = Task{Index: i, Spec: s}
	}
	return tasks
}

// ResultSink consumes finished scenarios as they complete, in completion
// order. Put is called exactly once per task: with the scenario's Result on
// success, or with a non-nil error (and a Result carrying only identifying
// fields, at least the Name) on failure or skip. Put may be called
// concurrently from many workers and must be safe for concurrent use. A
// non-nil return aborts the sweep: the executor stops dispatching, drains,
// and returns the sink's error.
type ResultSink interface {
	Put(i int, r scenario.Result, err error) error
}

// Executor runs a list of tasks and reports every outcome to the sink.
// Implementations differ only in *where* scenarios execute (this process,
// worker subprocesses); because scenario execution is deterministic, the
// sink receives identical results from every executor — pinned by the
// coordinator-vs-in-process golden tests.
type Executor interface {
	Execute(ctx context.Context, tasks []Task, opts Options, sink ResultSink) error
}

// Stream executes tasks through the executor into the sink, wrapping the
// Options.Progress callback (when set) around the sink so both executors
// report progress the same way. This is the streaming entry point of the
// engine; Run is a thin collector over it.
func Stream(ctx context.Context, tasks []Task, opts Options, exec Executor, sink ResultSink) error {
	if len(tasks) == 0 {
		return nil
	}
	if opts.Progress != nil {
		sink = newProgressSink(sink, len(tasks), opts.Progress)
	}
	return exec.Execute(ctx, tasks, opts, sink)
}

// skippedError marks a scenario that was never executed because the sweep
// was cancelled. The collector summarises these into one counted error
// instead of joining thousands of identical lines.
type skippedError struct {
	index int
	cause error
}

func (e *skippedError) Error() string {
	return fmt.Sprintf("sweep: scenario %d skipped: %v", e.index, e.cause)
}

func (e *skippedError) Unwrap() error { return e.cause }

// skip builds the canonical skip outcome for a task.
func skip(t Task, cause error) (scenario.Result, error) {
	return scenario.Result{Name: t.Spec.Name}, &skippedError{index: t.Index, cause: cause}
}

// InProcess is the default executor: tasks run on a pool of worker
// goroutines inside this process, exactly as sweep.Run always has. The
// zero value is ready to use.
type InProcess struct{}

// Execute runs every task on min(Options.Jobs, len(tasks)) goroutines.
// Per-task failures are reported through the sink, never returned; the
// returned error is non-nil only when the sink itself failed (the sweep is
// then abandoned mid-flight: tasks not yet reported are dropped, not
// skipped, because the sink is no longer trustworthy).
func (InProcess) Execute(ctx context.Context, tasks []Task, opts Options, sink ResultSink) error {
	if len(tasks) == 0 {
		return nil
	}

	// A sink failure cancels the run context so in-flight scenarios stop
	// early; the original ctx keeps deciding between "skipped by caller"
	// and "abandoned by sink error".
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var sinkErrOnce sync.Once
	var sinkErr error
	put := func(i int, r scenario.Result, err error) {
		if e := sink.Put(i, r, err); e != nil {
			sinkErrOnce.Do(func() {
				sinkErr = e
				cancel()
			})
		}
	}

	pool.ForEach(rctx, len(tasks), opts.Jobs, func(k int) {
		t := tasks[k]
		if err := ctx.Err(); err != nil {
			r, serr := skip(t, err)
			put(t.Index, r, serr)
			return
		}
		if rctx.Err() != nil {
			return // sink failed: the sweep is being abandoned
		}
		r, err := scenario.ExecuteContext(rctx, t.Spec)
		if err != nil {
			put(t.Index, scenario.Result{Name: t.Spec.Name}, err)
			return
		}
		put(t.Index, r, nil)
	}, func(k int) {
		if ctx.Err() == nil {
			return // skipped because the sink failed, not the caller
		}
		r, serr := skip(tasks[k], ctx.Err())
		put(tasks[k].Index, r, serr)
	})
	return sinkErr
}

// Collector is the in-memory ResultSink behind Run: results land in
// index-addressed slots, so the aggregated slice is spec-ordered no matter
// the completion order. It also implements the capped error summary: real
// scenario failures stay individual (in spec order), while the potentially
// thousands of identical "skipped: context canceled" outcomes of a
// cancelled mega-sweep collapse into one counted error.
type Collector struct {
	results []scenario.Result
	errs    []error
}

// NewCollector builds a collector for a grid of the given total size.
func NewCollector(total int) *Collector {
	return &Collector{
		results: make([]scenario.Result, total),
		errs:    make([]error, total),
	}
}

// Preset records an already-known result (e.g. loaded from a resumed
// sweep's JSONL stream) without going through an executor.
func (c *Collector) Preset(i int, r scenario.Result) { c.results[i] = r }

// Put implements ResultSink. Distinct indices touch distinct slots, so no
// lock is needed; each index is put at most once.
func (c *Collector) Put(i int, r scenario.Result, err error) error {
	if i < 0 || i >= len(c.results) {
		return fmt.Errorf("sweep: result index %d outside grid of %d", i, len(c.results))
	}
	if err != nil {
		c.errs[i] = err
		return nil
	}
	c.results[i] = r
	return nil
}

// Results returns the spec-ordered result slice. Failed or skipped slots
// are zero-valued.
func (c *Collector) Results() []scenario.Result { return c.results }

// Err joins the recorded failures in spec order, with skipped-scenario
// errors summarised into a single counted entry (a cancelled 10k-point
// sweep reports one "9994 scenarios skipped" line, not 9994 identical
// ones). Real failures keep their individual, spec-ordered errors.
func (c *Collector) Err() error {
	var joined []error
	skips := 0
	var firstSkip error
	for _, err := range c.errs {
		if err == nil {
			continue
		}
		var se *skippedError
		if errors.As(err, &se) {
			skips++
			if firstSkip == nil {
				firstSkip = se.cause
			}
			continue
		}
		joined = append(joined, err)
	}
	if skips > 0 {
		joined = append(joined, fmt.Errorf("sweep: %d scenarios skipped: %w", skips, firstSkip))
	}
	return errors.Join(joined...)
}

// progressSink wraps a sink with the Options.Progress contract: callbacks
// are serialised and their done counts strictly increase, but a slow
// callback never blocks other workers' completions — completing workers
// enqueue their event and move on, while one goroutine at a time drains the
// queue through the callback (lock handoff: the lock is never held across
// the user callback).
type progressSink struct {
	inner ResultSink
	total int
	fn    func(done, total int, r scenario.Result)

	mu         sync.Mutex
	done       int
	pending    []scenario.Result
	delivering bool
}

func newProgressSink(inner ResultSink, total int, fn func(done, total int, r scenario.Result)) *progressSink {
	return &progressSink{inner: inner, total: total, fn: fn}
}

// Put records the outcome first (so a Progress observer never sees done
// counts ahead of durable results), then reports progress. Failed and
// skipped scenarios report with their zero, name-only Result, so done
// always reaches total.
func (p *progressSink) Put(i int, r scenario.Result, err error) error {
	sinkErr := p.inner.Put(i, r, err)
	if err != nil {
		r = scenario.Result{Name: r.Name}
	}
	p.mu.Lock()
	p.pending = append(p.pending, r)
	if p.delivering {
		p.mu.Unlock()
		return sinkErr
	}
	p.delivering = true
	for len(p.pending) > 0 {
		next := p.pending[0]
		p.pending = p.pending[1:]
		p.done++
		d := p.done
		p.mu.Unlock()
		p.fn(d, p.total, next)
		p.mu.Lock()
	}
	p.delivering = false
	p.mu.Unlock()
	return sinkErr
}

// Tee fans every Put out to multiple sinks in order (e.g. the in-memory
// collector plus a streaming JSONL file). The first sink error aborts the
// fan-out and is returned.
func Tee(sinks ...ResultSink) ResultSink { return teeSink(sinks) }

type teeSink []ResultSink

func (t teeSink) Put(i int, r scenario.Result, err error) error {
	for _, s := range t {
		if e := s.Put(i, r, err); e != nil {
			return e
		}
	}
	return nil
}
