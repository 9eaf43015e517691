package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/mesh"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/tablegen"
)

// workerEnv marks a process as a sweep worker. The coordinator sets it when
// spawning `noctool sweep -worker` children so re-exec'd test binaries (which
// cannot parse noctool arguments) recognise the role too.
const workerEnv = "NOCTOOL_SWEEP_WORKER"

// cmdSweep runs a declarative scenario grid (sizes x designs x workloads)
// through the parallel sweep engine and renders the aggregated results.
// Because scenario execution is deterministic and the engine aggregates in
// spec order, the output is identical for -jobs 1 and -jobs N — and, via the
// multi-process executor, for every -worker-procs count and every
// kill/resume schedule (see -out, -checkpoint, -resume).
func cmdSweep(args []string, w io.Writer) error {
	return sweepOn(args, os.Stdin, w)
}

// sweepOn is cmdSweep with the stdin stream injectable for tests (the
// worker mode serves the daemon's line protocol over it).
func sweepOn(args []string, in io.Reader, w io.Writer) error {
	fs, format := newFlagSet("sweep")
	mode := fs.String("mode", "wctt", "scenario mode: wctt, simulate, manycore, parallel-wcet, wcet-map or load-curve")
	topology := fs.String("topology", "mesh", "network topology: mesh, cmesh (4 cores/router) or cmesh2")
	sizes := fs.String("sizes", "2..8", "square mesh sizes, e.g. 2..8 or 2,4,8")
	designs := fs.String("designs", "regular,waw+wap", "comma-separated design points (regular, waw+wap, waw-only, wap-only)")
	workloads := fs.String("workloads", "", "comma-separated EEMBC kernels (manycore mode)")
	jobs := fs.Int("jobs", 0, "parallel workers; 0 = GOMAXPROCS")
	shards := fs.Int("shards", 1, "accepted for compatibility, ignored (simulate and load-curve modes); parallelism is -jobs / -worker-procs")
	seed := fs.Int64("seed", 1, "pseudo-random seed (simulate and load-curve modes)")
	pattern := fs.String("pattern", "hotspot", "traffic pattern (simulate mode): hotspot, uniform, transpose, bitcomp, neighbor or tornado")
	rate := fs.Int("rate", 0, "traffic injection rate (simulate mode); 0 = pattern default")
	rates := fs.String("rates", "", "injection rates in msgs/node/kcycle (load-curve mode), e.g. 25,50,100 or 100..110; empty = default ladder")
	warmup := fs.Int("warmup", 0, "warmup cycles per load-curve rate point; 0 = default")
	measure := fs.Int("measure", 0, "measurement cycles per load-curve rate point; 0 = default")
	messages := fs.Int("messages", 0, "messages or rounds to inject (simulate mode); 0 = default")
	maxCycles := fs.Int("max-cycles", 0, "cycle budget per scenario; 0 = mode default")
	scale := fs.Int("scale", 0, "workload instruction-count scale-down factor (manycore mode)")
	placement := fs.String("placement", "", "thread placement P0-P3 (parallel-wcet mode)")
	maxPacket := fs.Int("max-packet-flits", 0, "maximum packet size in flits (parallel-wcet mode)")
	progress := fs.Bool("progress", false, "report per-scenario completion with rate and ETA on stderr")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile taken after the sweep to this file")
	worker := fs.Bool("worker", false, "run as a sweep worker: the serve daemon on stdin/stdout with one executing line (spawned by the coordinator; see PROTOCOL.md, \"Sweep workers\")")
	workerProcs := fs.Int("worker-procs", 0, "fan the grid out to this many `noctool sweep -worker` subprocesses, each sent scenario lines; 0 = in-process")
	out := fs.String("out", "", "stream each result as a JSON line to this file the moment it completes, then merge into spec order")
	checkpoint := fs.String("checkpoint", "", "record finished grid indices + result hashes in this file (requires -out); enables -resume")
	resume := fs.Bool("resume", false, "resume an interrupted sweep from -out/-checkpoint, recomputing only unfinished scenarios")
	unordered := fs.Bool("unordered", false, "leave -out in completion order (skip the final spec-order merge)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	explicit := map[string]bool{}
	fs.Visit(func(fl *flag.Flag) { explicit[fl.Name] = true })

	// Worker mode: the process is a daemon on stdio, not a grid runner;
	// every grid-shaping flag belongs to the coordinator that spawned us.
	if *worker {
		for name := range explicit {
			if name != "worker" {
				return fmt.Errorf("sweep: flag -%s is not supported with -worker", name)
			}
		}
		// A worker is the daemon on stdio with one executing line: the
		// coordinator owns all parallelism, and a worker runs one scenario
		// at a time. Stdin EOF is the shutdown signal.
		return serveOn([]string{"-workers", "1"}, in, w)
	}
	if *checkpoint != "" && *out == "" {
		return fmt.Errorf("sweep: -checkpoint requires -out")
	}
	if *resume && *checkpoint == "" {
		return fmt.Errorf("sweep: -resume requires -checkpoint")
	}
	if *unordered && *out == "" {
		return fmt.Errorf("sweep: -unordered requires -out")
	}
	if *jobs < 0 || *workerProcs < 0 {
		return fmt.Errorf("sweep: -jobs and -worker-procs must not be negative (got %d and %d)", *jobs, *workerProcs)
	}

	// Validate the output format before spending any compute on the grid.
	f, err := tablegen.ParseFormat(*format)
	if err != nil {
		return err
	}
	m, err := scenario.ParseMode(*mode)
	if err != nil {
		return err
	}
	// Parse the topology up front so a typo fails before any compute; the
	// mode/topology compatibility rules themselves live in Spec.Validate.
	if _, err := mesh.ParseTopology(*topology); err != nil {
		return err
	}
	// The WCET modes model the paper's 64-core platform; the standard
	// placements need an 8x8 mesh or larger, so the generic 2..8 size
	// default would fail outright. Default to the platform size unless
	// the user explicitly picked sizes.
	if (m == scenario.ModeParallelWCET || m == scenario.ModeWCETMap) && !explicit["sizes"] {
		*sizes = "8"
	}
	// The normalised suite map (wcet-map without workloads) already compares
	// both designs in one scenario; crossing it with the design axis would
	// just recompute the identical, design-independent map per design.
	if m == scenario.ModeWCETMap && *workloads == "" {
		*designs = "regular"
	}
	sizeList, err := scenario.ParseSizes(*sizes)
	if err != nil {
		return err
	}
	designList, err := scenario.ParseDesigns(*designs)
	if err != nil {
		return err
	}
	var rateList []int
	if *rates != "" {
		if rateList, err = scenario.ParseRates(*rates); err != nil {
			return err
		}
	}
	// Reject explicitly-set flags the selected mode would silently ignore:
	// the load-curve mode generates its own sustained uniform-random
	// traffic, and only it reads the window flags.
	incompatible := []string{"rates", "warmup", "measure"}
	if m == scenario.ModeLoadCurve {
		incompatible = []string{"pattern", "rate", "messages", "max-cycles",
			"workloads", "scale", "placement", "max-packet-flits"}
	}
	if m != scenario.ModeSimulate && m != scenario.ModeLoadCurve {
		incompatible = append(incompatible, "shards")
	}
	for _, name := range incompatible {
		if explicit[name] {
			return fmt.Errorf("flag -%s is not supported in -mode %v", name, m)
		}
	}
	if *shards < 0 {
		return fmt.Errorf("sweep: negative shard count %d", *shards)
	}
	traf := scenario.Traffic{Pattern: *pattern, Rate: *rate, Messages: *messages}
	if m == scenario.ModeLoadCurve {
		traf = scenario.Traffic{Rates: rateList, WarmupCycles: *warmup, MeasureCycles: *measure}
	}
	spec := scenario.Spec{
		Name:           "sweep",
		Mode:           m,
		Topology:       *topology,
		Sizes:          sizeList,
		Designs:        designList,
		Seed:           *seed,
		Traffic:        traf,
		MaxCycles:      *maxCycles,
		Shards:         *shards,
		Scale:          *scale,
		Placement:      *placement,
		MaxPacketFlits: *maxPacket,
	}
	if *workloads != "" {
		for _, wl := range strings.Split(*workloads, ",") {
			if wl = strings.TrimSpace(wl); wl != "" {
				spec.Workloads = append(spec.Workloads, wl)
			}
		}
	}

	specs, err := spec.Expand()
	if err != nil {
		return err
	}
	total := len(specs)

	// Recover the finished prefix of an interrupted run: confirmed-done
	// indices preload the collector and drop out of the task list, so only
	// unfinished scenarios recompute. Raw result bytes from disk are
	// appended verbatim at merge time, keeping the resumed stream
	// byte-identical to an uninterrupted one.
	var resumed *sweep.Resume
	gridKey := ""
	if *checkpoint != "" {
		if gridKey, err = sweep.GridKey(specs); err != nil {
			return err
		}
	}
	if *resume {
		if resumed, err = sweep.LoadResume(*out, *checkpoint, total, gridKey); err != nil {
			return err
		}
	}
	collector := sweep.NewCollector(total)
	tasks := make([]sweep.Task, 0, total)
	for i, s := range specs {
		if resumed.Done(i) {
			r, err := resumed.Result(i)
			if err != nil {
				return err
			}
			collector.Preset(i, r)
			continue
		}
		tasks = append(tasks, sweep.Task{Index: i, Spec: s})
	}
	already := total - len(tasks)

	// Streaming sinks: the JSONL stream (with optional checkpointing)
	// rides alongside the in-memory collector behind one Tee.
	sinks := []sweep.ResultSink{collector}
	var outFile, ckFile *os.File
	if *out != "" {
		var ckw *sweep.CheckpointWriter
		if *resume {
			if outFile, err = sweep.OpenResumeOutput(*out); err != nil {
				return err
			}
			// Compact the checkpoint to exactly the confirmed-done state
			// (clearing torn lines) and keep appending to it.
			if ckFile, ckw, err = sweep.RewriteCheckpoint(*checkpoint, total, gridKey, resumed); err != nil {
				outFile.Close()
				return err
			}
		} else {
			if outFile, err = os.Create(*out); err != nil {
				return fmt.Errorf("sweep: create -out: %w", err)
			}
			if *checkpoint != "" {
				if ckFile, err = os.Create(*checkpoint); err != nil {
					outFile.Close()
					return fmt.Errorf("sweep: create -checkpoint: %w", err)
				}
				if ckw, err = sweep.NewCheckpointWriter(ckFile, total, gridKey); err != nil {
					outFile.Close()
					ckFile.Close()
					return err
				}
			}
		}
		sinks = append(sinks, sweep.NewJSONLSink(outFile, ckw))
	}
	closeFiles := func() {
		if outFile != nil {
			outFile.Close()
			outFile = nil
		}
		if ckFile != nil {
			ckFile.Close()
			ckFile = nil
		}
	}
	defer closeFiles()

	opts := sweep.Options{Jobs: *jobs}
	if *progress {
		start := time.Now()
		opts.Progress = func(done, tot int, r scenario.Result) {
			fmt.Fprintln(os.Stderr, progressLine(already+done, already+tot, time.Since(start), r.Name))
		}
	}

	// Executor selection: in-process goroutines by default; -worker-procs
	// fans the grid out to worker subprocesses of this same binary. Output
	// is byte-identical either way (pinned by the coordinator goldens).
	var exec sweep.Executor = sweep.InProcess{}
	if *workerProcs != 0 {
		exe, err := os.Executable()
		if err != nil {
			return fmt.Errorf("sweep: locate worker binary: %w", err)
		}
		exec = &sweep.Coordinator{
			Command: []string{exe, "sweep", "-worker"},
			Env:     append(os.Environ(), workerEnv+"=1"),
			Procs:   *workerProcs,
			Stderr:  os.Stderr,
		}
	}

	// Profiling covers exactly the sweep execution (not flag parsing or
	// rendering), so perf work on the simulator can profile any workload the
	// CLI can express without patching the tool. Both output files are
	// created up front so a bad path fails before any compute is spent.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("sweep: cpu profile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("sweep: cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	var memOut *os.File
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fmt.Errorf("sweep: heap profile: %w", err)
		}
		defer f.Close()
		memOut = f
	}
	err = sweep.Stream(context.Background(), tasks, opts, exec, sweep.Tee(sinks...))
	// Stop explicitly before rendering so the profile really covers only
	// the sweep (the deferred stop only backstops early error returns;
	// StopCPUProfile is a no-op when no profile is active).
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	if err := collector.Err(); err != nil {
		// Leave -out in completion order: the run is resumable, and a
		// partial stream must never masquerade as a merged one.
		return err
	}
	closeFiles()
	if *out != "" && !*unordered {
		if err := sweep.MergeJSONL(*out, total); err != nil {
			return err
		}
	}
	if memOut != nil {
		runtime.GC() // settle allocations so the profile shows live heap
		if err := pprof.WriteHeapProfile(memOut); err != nil {
			return fmt.Errorf("sweep: heap profile: %w", err)
		}
	}

	results := collector.Results()
	if f == tablegen.FormatJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(results)
	}
	return sweepTable(m, results).Render(w, f)
}

// progressLine formats one -progress stderr line: done/total, completion
// rate, remaining-time estimate, and the scenario that just finished.
func progressLine(done, total int, elapsed time.Duration, name string) string {
	rate := float64(done) / max(elapsed.Seconds(), 1e-9)
	eta := "?"
	if done > 0 && done <= total {
		left := time.Duration(float64(total-done) / rate * float64(time.Second))
		eta = left.Round(time.Second).String()
	}
	return fmt.Sprintf("sweep: %d/%d (%.1f/s, ETA %s) %s", done, total, rate, eta, name)
}

// sweepTable renders one row per scenario with mode-appropriate columns.
func sweepTable(m scenario.Mode, results []scenario.Result) *tablegen.Table {
	title := fmt.Sprintf("Sweep — %d %s scenarios", len(results), m)
	switch m {
	case scenario.ModeWCTT:
		t := tablegen.New(title, "scenario", "dim", "design", "max WCTT", "mean WCTT", "min WCTT", "flows")
		for _, r := range results {
			if r.WCTT == nil {
				continue
			}
			t.AddRow(r.Name, r.Dim, r.Design,
				fmt.Sprintf("%d", r.WCTT.MaxCycles), fmt.Sprintf("%.2f", r.WCTT.MeanCycles),
				fmt.Sprintf("%d", r.WCTT.MinCycles), fmt.Sprintf("%d", r.WCTT.Flows))
		}
		return t
	case scenario.ModeSimulate:
		t := tablegen.New(title, "scenario", "dim", "design", "delivered", "cycles", "min lat", "mean lat", "max lat")
		for _, r := range results {
			if r.Sim == nil {
				continue
			}
			t.AddRow(r.Name, r.Dim, r.Design,
				fmt.Sprintf("%d", r.Sim.Delivered), fmt.Sprintf("%d", r.Sim.Cycles),
				fmt.Sprintf("%.0f", r.Sim.MinLatency), fmt.Sprintf("%.1f", r.Sim.MeanLatency),
				fmt.Sprintf("%.0f", r.Sim.MaxLatency))
		}
		return t
	case scenario.ModeManycore:
		t := tablegen.New(title, "scenario", "dim", "design", "workload", "makespan", "mem transactions")
		for _, r := range results {
			if r.Manycore == nil {
				continue
			}
			t.AddRow(r.Name, r.Dim, r.Design, r.Workload,
				fmt.Sprintf("%d", r.Manycore.MakespanCycles), fmt.Sprintf("%d", r.Manycore.MemTransactions))
		}
		return t
	case scenario.ModeLoadCurve:
		t := tablegen.New(title, "scenario", "dim", "design", "rate", "offered", "delivered", "tput", "mean lat", "max lat", "mean net lat", "drained")
		for _, r := range results {
			if r.LoadCurve == nil {
				continue
			}
			for _, p := range r.LoadCurve.Points {
				t.AddRow(r.Name, r.Dim, r.Design,
					fmt.Sprintf("%d", p.RatePerMil), fmt.Sprintf("%d", p.Offered),
					fmt.Sprintf("%d", p.Delivered), fmt.Sprintf("%.1f", p.Throughput),
					fmt.Sprintf("%.1f", p.MeanLatency), fmt.Sprintf("%.0f", p.MaxLatency),
					fmt.Sprintf("%.1f", p.MeanNetworkLatency), fmt.Sprintf("%v", p.Drained))
			}
		}
		return t
	case scenario.ModeParallelWCET:
		t := tablegen.New(title, "scenario", "dim", "design", "placement", "L", "WCET (ms)")
		for _, r := range results {
			if r.WCET == nil {
				continue
			}
			t.AddRow(r.Name, r.Dim, r.Design, r.Placement,
				fmt.Sprintf("%d", r.MaxPacketFlits), fmt.Sprintf("%.2f", r.WCET.Millis))
		}
		return t
	default: // ModeWCETMap: summarise the per-core map per scenario.
		t := tablegen.New(title, "scenario", "dim", "design", "workload", "cores", "min cell", "max cell")
		for _, r := range results {
			if r.WCETMap == nil {
				continue
			}
			cells, minV, maxV := 0, 0.0, 0.0
			first := true
			for _, row := range r.WCETMap {
				for _, v := range row {
					if first {
						minV, maxV = v, v
						first = false
					}
					if v < minV {
						minV = v
					}
					if v > maxV {
						maxV = v
					}
					cells++
				}
			}
			t.AddRow(r.Name, r.Dim, r.Design, r.Workload,
				fmt.Sprintf("%d", cells), fmt.Sprintf("%.4f", minV), fmt.Sprintf("%.4f", maxV))
		}
		return t
	}
}
