// Package sweep is the parallel execution engine of the experiment layer:
// it runs lists of scenario specs and aggregates the results
// deterministically, in spec order, regardless of how many workers run or in
// which order scenarios finish. Because scenario execution itself is
// deterministic (every source of pseudo-randomness is seeded from the spec),
// a sweep's aggregated output is byte-identical for one worker and for
// GOMAXPROCS workers — which is what makes the engine safe to drop under
// every table- and figure-generating code path.
//
// The engine is layered as Executor + ResultSink: an Executor decides
// *where* scenarios run (the InProcess goroutine pool, or the Coordinator
// fanning specs out to worker subprocesses, each the serve daemon on stdio),
// and a ResultSink decides *what happens* to each finished result the
// moment it completes (the in-memory Collector behind Run, the streaming
// JSONL/checkpoint sinks behind `noctool sweep -out/-checkpoint`, or any
// Tee of those). Results carry their spec index, so deterministic
// spec-ordered aggregation is a cheap final merge no matter the executor.
package sweep

import (
	"context"

	"repro/internal/scenario"
)

// Options tunes a sweep run.
type Options struct {
	// Jobs is the number of worker goroutines of the InProcess executor;
	// values < 1 select runtime.GOMAXPROCS(0). The multi-process
	// Coordinator sizes itself from its own Procs and AutoSplit instead.
	Jobs int
	// Progress, when non-nil, is called after every finished scenario
	// (successful, failed or skipped) with the number of scenarios
	// finished so far, the total, and the scenario's result — a zero
	// Result carrying only the spec name when the scenario failed. Calls
	// are serialised and done increases monotonically to total, but the
	// callback runs outside the engine's internal locks: a slow callback
	// delays further progress reports, never the workers' completions.
	Progress func(done, total int, r scenario.Result)
}

// Split is the two-level parallelism plan of a multi-process sweep: worker
// processes x points in flight per worker. Both levels are execution policy
// — results are byte-identical for every split, pinned by the coordinator
// goldens.
type Split struct {
	// Procs is the number of worker subprocesses.
	Procs int
	// Window is the in-flight task window per worker process.
	Window int
}

// AutoSplit plans a multi-process sweep: given the machine's core count, a
// requested worker-process count (<1 = one per core, capped by the grid) and
// the grid size, it picks the process count and bounds the per-worker
// in-flight window so the coordinator keeps every process busy (one
// executing + one queued) without racing far ahead of the checkpoint stream.
func AutoSplit(cores, procs, points int) Split {
	if cores < 1 {
		cores = 1
	}
	if points < 1 {
		points = 1
	}
	if procs < 1 {
		procs = cores
	}
	if procs > points {
		procs = points
	}
	window := 2
	if perProc := (points + procs - 1) / procs; window > perProc {
		window = perProc
	}
	return Split{Procs: procs, Window: window}
}

// Run executes every spec and returns the results in spec order. All specs
// are attempted even if some fail; the returned error joins the individual
// failures in spec order, with scenarios skipped by cancellation summarised
// into a single counted error (which includes ctx's error). Results of
// failed or skipped scenarios are zero-valued. Run is a thin driver over
// the streaming engine: an InProcess executor feeding a Collector sink.
func Run(ctx context.Context, specs []scenario.Spec, opts Options) ([]scenario.Result, error) {
	c := NewCollector(len(specs))
	if len(specs) == 0 {
		return c.Results(), nil
	}
	if err := Stream(ctx, Tasks(specs), opts, InProcess{}, c); err != nil {
		return c.Results(), err
	}
	return c.Results(), c.Err()
}

// RunAll is Run with a background context and default options — the
// convenience entry point for the table generators.
func RunAll(specs []scenario.Spec) ([]scenario.Result, error) {
	return Run(context.Background(), specs, Options{})
}

// Expand expands the spec's sweep axes and runs every resulting scenario.
func Expand(ctx context.Context, s scenario.Spec, opts Options) ([]scenario.Result, error) {
	specs, err := s.Expand()
	if err != nil {
		return nil, err
	}
	return Run(ctx, specs, opts)
}
