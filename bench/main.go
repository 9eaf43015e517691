// Command bench is the repository's benchmark: one command that builds
// noctool, measures the sweep, simulator, analytical and serve paths end to
// end against the built binary (and a real TCP daemon), checks every output,
// and — in a separate traced run — replays each workload in-process to say
// where the time goes layer by layer. README.md in this directory defines
// every workload and metric; BENCHMARK.json at the repository root is the
// contract the PR driver reads.
//
//	bash bench/run.sh --workload sim-sparse --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh -out runs.jsonl            # all six workloads, untraced
//	bash bench/run.sh -compare parent.jsonl change.jsonl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
)

// value is one reported metric. Detail (the per-repetition distribution
// behind a median) goes to the -out record only, never to the result line.
type value struct {
	Value  float64  `json:"value"`
	Unit   string   `json:"unit"`
	Detail *summary `json:"detail,omitempty"`
}

// result is what one run of one workload reports. Its JSON form is the last
// line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	// HostSlowdown is how slow the untraced run's probes found the host, as
	// a multiple of the reference speed its times are reported at.
	HostSlowdown *summary `json:"host_slowdown,omitempty"`
	// Raw holds the same statistic of each corrected time metric over the
	// walls as measured, so a record shows what the correction did.
	Raw map[string]float64 `json:"raw,omitempty"`

	notes   []string        // why Correct is false, or what to be wary of
	spans   []span          // traced runs only
	touched map[string]bool // metrics this run measured (the rest read 0)
}

func (r *result) set(name string, v float64) { r.setDetail(name, v, nil) }

func (r *result) setDetail(name string, v float64, d *summary) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("bench: metric " + name + " is not in the registry")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) { // a ratio over nothing measured
		v = 0
	}
	m.Value, m.Detail = v, d
	r.Metrics[name] = m
	r.touched[name] = true
}

// fail marks the run incorrect for a reason worth printing (once).
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	if note := fmt.Sprintf(format, args...); !slices.Contains(r.notes, note) {
		r.notes = append(r.notes, note)
	}
}

// newResult pre-populates every metric of the chosen kind, so a run always
// prints the full set: a layer that does no work on a workload reads 0.
func newResult(trace bool) *result {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	r := &result{Correct: true, Metrics: make(map[string]value, len(defs)), Raw: map[string]float64{}, touched: map[string]bool{}}
	for _, d := range defs {
		r.Metrics[d.Name] = value{Unit: d.Unit}
	}
	return r
}

// runner holds what every workload needs.
type runner struct {
	ctx      context.Context
	probe    *hostProbe
	tmp      string // this process's scratch directory under .bench_build, removed on exit
	noctool  string // built program under test
	seed     int64
	seconds  float64
	mini     bool   // miniature sizes; only the smoke test sets it
	expected string // directory of committed seed-1 outputs
	writeExp bool
}

// environment is the record's description of where the numbers came from.
type environment struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Loadavg1   float64 `json:"loadavg1_at_start"`
	NoisyHost  bool    `json:"noisy_host"`
}

func readEnvironment() environment {
	env := environment{
		Commit:     "unknown",
		Go:         runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Loadavg1:   loadavg1(),
	}
	env.NoisyHost = env.Loadavg1 > float64(env.NProc)/2
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				env.Commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty" // uncommitted changes on top of that revision
			}
		}
		if env.Commit != "unknown" {
			env.Commit += dirty
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return env
}

// record is one line of an -out file: one run of one workload.
type record struct {
	Schema   int         `json:"schema"`
	Env      environment `json:"env"`
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Trace    bool        `json:"trace"`
	Notes    []string    `json:"notes,omitempty"`
	*result
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (default: all six, one after the other)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs: the CLI -seed and the serve query generators")
	seconds := fs.Float64("seconds", runSeconds, "how long the untraced measurement of one workload lasts")
	trace := fs.Int("trace", 0, "0: end-to-end metrics against the built binary; 1: traced in-process replay, per-layer metrics")
	out := fs.String("out", "", "append one JSON record per workload run to this file")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the recorded spans of the (last) workload to this file")
	writeExpected := fs.Bool("write-expected", false, "regenerate bench/expected/<workload>.json from seed 1 instead of comparing with it")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare PARENT.jsonl CHANGE.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two -out files")
			return 2
		}
		worse, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if worse {
			return 1
		}
		return 0
	}
	names := []string{*workload}
	if *workload == "" {
		names = allWorkloads
	} else if !slices.Contains(allWorkloads, *workload) {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *workload, strings.Join(allWorkloads, ", "))
		return 2
	}
	if *writeExpected {
		*seed, *trace, *seconds, names = 1, 0, 0, sweepWorkloads
	}

	// Cancelling the context kills every child (daemon, sweep processes and,
	// through their closed stdin, the sweep workers); the deferred cleanup
	// then removes the scratch directory.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	r, cleanup, err := newRunner(ctx)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer cleanup()
	r.seed, r.seconds, r.writeExp = *seed, *seconds, *writeExpected

	env := readEnvironment()
	if env.NoisyHost {
		fmt.Fprintf(stderr, "bench: noisy_host: 1-min loadavg %.2f exceeds nproc/2 at start\n", env.Loadavg1)
	}
	code := 0
	for _, name := range names {
		var res *result
		var err error
		if *trace == 1 {
			res, err = r.runTraced(name)
		} else {
			res, err = r.runMeasured(name)
		}
		if err == nil && ctx.Err() != nil {
			err = ctx.Err()
		}
		if err != nil {
			// Something outside the measured program broke (busy port, failed
			// build, signal): no result line, non-zero exit.
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		if *trace == 1 {
			res.set("bench.host_loadavg", env.Loadavg1)
		}
		for _, n := range res.notes {
			fmt.Fprintf(stderr, "bench: %s: %s\n", name, n)
		}
		if h := res.HostSlowdown; h != nil {
			fmt.Fprintf(stderr, "bench: %s: host probes took %.2f x their reference time (%.2f-%.2f over %d spans); times are reported at reference speed\n",
				name, h.Median, h.Min, h.Max, h.N)
		}
		if !res.Correct {
			code = 1
		}
		if *out != "" {
			rec := record{Schema: 1, Env: env, Workload: name, Seed: *seed, Seconds: *seconds,
				Trace: *trace == 1, Notes: res.notes, result: res}
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
		if *traceOut != "" && *trace == 1 {
			if err := writeTrace(*traceOut, res.spans); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
		printResult(stdout, name, *trace == 1, res)
	}
	return code
}

// runMeasured is the untraced run of one workload: end-to-end metrics
// against the built binary.
func (r *runner) runMeasured(name string) (*result, error) {
	if isServe(name) {
		return r.measureServe(name)
	}
	return r.measureSweep(name)
}

// newRunner finds the checkout, builds the program under test and makes the
// scratch directory. The returned cleanup removes the scratch directory.
func newRunner(ctx context.Context) (*runner, func(), error) {
	root, err := findRoot()
	if err != nil {
		return nil, nil, err
	}
	buildDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, nil, err
	}
	noctool, err := buildNoctool(ctx, root, buildDir)
	if err != nil {
		return nil, nil, err
	}
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, nil, err
	}
	probe, err := newHostProbe()
	if err != nil {
		os.RemoveAll(tmp)
		return nil, nil, err
	}
	r := &runner{ctx: ctx, probe: probe, tmp: tmp, noctool: noctool,
		expected: filepath.Join(root, "bench", "expected")}
	return r, func() { probe.close(); os.RemoveAll(tmp) }, nil
}

// printResult prints every metric by name with its unit, then the result
// line the driver parses, last.
func printResult(w io.Writer, workload string, trace bool, res *result) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		m := res.Metrics[d.Name]
		fmt.Fprintf(w, "%-14s %-38s %16.6g %s\n", workload, d.Name, m.Value, m.Unit)
	}
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]lineMetric, len(res.Metrics))}
	for name, m := range res.Metrics {
		line.Metrics[name] = lineMetric{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // only NaN/Inf can fail, and setDetail keeps them out
	}
	fmt.Fprintf(w, "%s\n", data)
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func appendRecord(path string, rec record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("bench: encode record: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("bench: -out: %w", err)
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("bench: -out: %w", err)
	}
	return f.Close()
}
