package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/scenario"
)

// invocation is one `noctool sweep` command of a workload, described once so
// that the argv given to the built binary and the scenario.Spec the traced
// replay executes in-process cannot drift apart (the replay's encoded results
// are compared byte for byte with the binary's standard output).
type invocation struct {
	mode    scenario.Mode
	sizes   string // CLI list syntax
	designs string // CLI list syntax; "" leaves the flag out (wcet-map ignores it)
	traffic scenario.Traffic
	procs   int  // -worker-procs; 0 runs in-process
	jobs    int  // -jobs of an in-process run; 0 means 1
	sinks   bool // stream to -out/-checkpoint files in the repetition's directory
}

func (iv invocation) sim() bool {
	return iv.mode == scenario.ModeSimulate || iv.mode == scenario.ModeLoadCurve
}

// args renders the command line after the binary's name.
func (iv invocation) args(seed int64, dir string) []string {
	a := []string{"sweep", "-mode", iv.mode.String(), "-sizes", iv.sizes, "-format", "json"}
	if iv.designs != "" {
		a = append(a, "-designs", iv.designs)
	}
	if iv.procs > 0 {
		a = append(a, "-worker-procs", strconv.Itoa(iv.procs))
	} else {
		a = append(a, "-jobs", strconv.Itoa(max(iv.jobs, 1)))
	}
	if iv.sim() {
		a = append(a, "-shards", "1", "-seed", strconv.FormatInt(seed, 10))
	}
	t := iv.traffic
	switch iv.mode {
	case scenario.ModeSimulate:
		a = append(a, "-pattern", t.Pattern, "-rate", strconv.Itoa(t.Rate), "-messages", strconv.Itoa(t.Messages))
	case scenario.ModeLoadCurve:
		a = append(a, "-rates", strconv.Itoa(t.Rates[0]), "-warmup", strconv.Itoa(t.WarmupCycles), "-measure", strconv.Itoa(t.MeasureCycles))
	}
	if iv.sinks {
		a = append(a, "-out", filepath.Join(dir, "results.jsonl"), "-checkpoint", filepath.Join(dir, "results.ckpt"))
	}
	return a
}

// specs expands the grid the command line describes, the way cmdSweep does.
func (iv invocation) specs(seed int64) ([]scenario.Spec, error) {
	sizes, err := scenario.ParseSizes(iv.sizes)
	if err != nil {
		return nil, err
	}
	designs := iv.designs
	if designs == "" {
		designs = "regular"
	}
	ds, err := scenario.ParseDesigns(designs)
	if err != nil {
		return nil, err
	}
	s := scenario.Spec{Name: "sweep", Mode: iv.mode, Topology: "mesh", Sizes: sizes, Designs: ds,
		Seed: 1, Traffic: iv.traffic, Shards: 1}
	if iv.sim() {
		s.Seed = seed
	}
	return s.Expand()
}

// sweepWorkload is the sizing of one sweep workload: the commands of one
// repetition and how many untimed repetitions precede the timed ones.
type sweepWorkload struct {
	invocations []invocation
	warmups     int
}

// sweepSizing returns the workload's commands. The full sizes are the ones
// README.md documents (chosen on a 2-core box so a repetition takes 0.1-1.4
// s); mini is the smoke test's.
func sweepSizing(name string, mini bool) sweepWorkload {
	uniform := func(rate, messages int) scenario.Traffic {
		return scenario.Traffic{Pattern: "uniform", Rate: rate, Messages: messages}
	}
	curve := func(rate, warmup, measure int) scenario.Traffic {
		return scenario.Traffic{Rates: []int{rate}, WarmupCycles: warmup, MeasureCycles: measure}
	}
	const both = "regular,waw+wap"
	const four = "regular,waw+wap,waw-only,wap-only"
	if mini {
		switch name {
		case wSimSparse:
			return sweepWorkload{[]invocation{{mode: scenario.ModeSimulate, sizes: "4", designs: both, traffic: uniform(2, 300)}}, 1}
		case wSimSaturated:
			return sweepWorkload{[]invocation{{mode: scenario.ModeLoadCurve, sizes: "4", designs: both, traffic: curve(400, 200, 500)}}, 1}
		case wAnalyticGrid:
			return sweepWorkload{[]invocation{
				{mode: scenario.ModeWCTT, sizes: "4,8", designs: both},
				{mode: scenario.ModeWCETMap, sizes: "8"}}, 1}
		default:
			return sweepWorkload{[]invocation{{mode: scenario.ModeSimulate, sizes: "2..4", designs: both, traffic: uniform(40, 50), procs: 2, sinks: true}}, 1}
		}
	}
	switch name {
	case wSimSparse:
		return sweepWorkload{[]invocation{{mode: scenario.ModeSimulate, sizes: "16", designs: both, traffic: uniform(2, 50000)}}, 1}
	case wSimSaturated:
		return sweepWorkload{[]invocation{{mode: scenario.ModeLoadCurve, sizes: "8", designs: both, traffic: curve(400, 2000, 10000)}}, 1}
	case wAnalyticGrid:
		return sweepWorkload{[]invocation{
			{mode: scenario.ModeWCTT, sizes: "8,16,32,48,64", designs: both},
			{mode: scenario.ModeWCETMap, sizes: "8,16,32,64"}}, 1}
	default:
		// The first repetitions after an idle spell ran twice as slow when
		// sizing, hence three warm-ups.
		return sweepWorkload{[]invocation{{mode: scenario.ModeSimulate, sizes: "2..16", designs: four, traffic: uniform(40, 500), procs: 2, sinks: true}}, 3}
	}
}

// sweepRep is one repetition: every command of the workload run once, cold.
type sweepRep struct {
	Stdout []byte // the commands' outputs, concatenated
	Wall   time.Duration
	CPU    time.Duration
	MaxRSS int64 // KiB, largest process of the repetition
}

// runSweepRep runs the workload's commands in a fresh directory and removes
// it again. A sink file with the wrong number of lines is an error like a
// non-zero exit.
func (r *runner) runSweepRep(wl sweepWorkload) (sweepRep, error) {
	dir, err := os.MkdirTemp(r.tmp, "rep-")
	if err != nil {
		return sweepRep{}, err
	}
	defer os.RemoveAll(dir)
	var rep sweepRep
	for _, iv := range wl.invocations {
		c, err := runChild(r.ctx, append([]string{r.noctool}, iv.args(r.seed, dir)...)...)
		if err != nil {
			return sweepRep{}, err
		}
		rep.Stdout = append(rep.Stdout, c.Stdout...)
		rep.Wall += c.Wall
		rep.CPU += c.CPU
		rep.MaxRSS = max(rep.MaxRSS, c.MaxRSS)
		if iv.sinks {
			specs, err := iv.specs(r.seed)
			if err != nil {
				return sweepRep{}, err
			}
			data, err := os.ReadFile(filepath.Join(dir, "results.jsonl"))
			if err != nil {
				return sweepRep{}, err
			}
			if got := bytes.Count(data, []byte("\n")); got != len(specs) {
				return sweepRep{}, fmt.Errorf("merged -out stream holds %d lines, want %d", got, len(specs))
			}
			if _, err := os.Stat(filepath.Join(dir, "results.ckpt")); err != nil {
				return sweepRep{}, err
			}
		}
	}
	return rep, nil
}

// decodeResults parses the concatenated JSON arrays a repetition printed.
func decodeResults(stdout []byte) ([]scenario.Result, error) {
	var all []scenario.Result
	dec := json.NewDecoder(bytes.NewReader(stdout))
	for dec.More() {
		var part []scenario.Result
		if err := dec.Decode(&part); err != nil {
			return nil, fmt.Errorf("decode sweep output: %w", err)
		}
		all = append(all, part...)
	}
	return all, nil
}

// sweepWork counts the units of work one repetition completes, from its own
// output: messages delivered (simulator workloads), flows bounded
// (analytic-grid) or scenarios run (sweep-fanout).
func sweepWork(name string, results []scenario.Result) float64 {
	var n float64
	for _, res := range results {
		switch name {
		case wSimSparse:
			if res.Sim != nil {
				n += float64(res.Sim.Delivered)
			}
		case wSimSaturated:
			if res.LoadCurve != nil {
				for _, p := range res.LoadCurve.Points {
					n += float64(p.Delivered)
				}
			}
		case wAnalyticGrid:
			if res.WCTT != nil {
				n += float64(res.WCTT.Flows)
			}
		default:
			n++
		}
	}
	return n
}

// sweepReference is what set-up establishes: the output every timed
// repetition must reproduce, parsed.
type sweepReference struct {
	stdout  []byte
	results []scenario.Result
	work    float64
}

// setupSweep runs the warm-up repetitions and validates their output: every
// simulate point delivered what it was asked to inject, and for seed 1 the
// bytes equal the committed expectation.
func (r *runner) setupSweep(name string, wl sweepWorkload, res *result) (sweepReference, error) {
	var ref sweepReference
	for i := 0; i < wl.warmups; i++ {
		rep, err := r.runSweepRep(wl)
		if err != nil {
			return ref, err
		}
		ref.stdout = rep.Stdout
	}
	var err error
	if ref.results, err = decodeResults(ref.stdout); err != nil {
		return ref, err
	}
	for _, sr := range ref.results {
		if sr.Sim == nil {
			continue
		}
		want := wl.invocations[0].traffic.Messages
		if sr.Sim.Injected != want || sr.Sim.Delivered != uint64(want) {
			res.fail("%s: injected %d, delivered %d, requested %d", sr.Name, sr.Sim.Injected, sr.Sim.Delivered, want)
		}
	}
	ref.work = sweepWork(name, ref.results)
	if ref.work == 0 {
		res.fail("reference output holds no work")
	}
	if r.seed == 1 && !r.mini {
		path := filepath.Join(r.expected, name+".json")
		if r.writeExp {
			if err := os.WriteFile(path, ref.stdout, 0o644); err != nil {
				return ref, err
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			return ref, fmt.Errorf("committed expectation: %w", err)
		}
		if !bytes.Equal(ref.stdout, want) {
			res.fail("output differs from committed %s", path)
		}
	}
	return ref, nil
}

// setups is how many times an untraced run sets up. The driver compares
// medians of setup_s between sets of runs, and a single sub-second set-up
// says more about the host's last second than about the program.
func (r *runner) setups() int {
	if r.mini {
		return 1
	}
	return 3
}

// probeEvery is the least time between two host probes: repetitions shorter
// than this share a span (and its correction), so that probing costs a tenth
// of the run at most.
const probeEvery = 500 * time.Millisecond

// measureSweep is the untraced run of a sweep workload: set up a few times,
// then time cold repetitions for r.seconds. Every wall is corrected by the
// host probes around it (hostspeed.go).
func (r *runner) measureSweep(name string) (*result, error) {
	res := newResult(false)
	wl := sweepSizing(name, r.mini)
	clock, err := newHostClock(r.probe)
	if err != nil {
		return nil, err
	}

	var setupS []float64
	var ref sweepReference
	for i := 0; i < r.setups(); i++ {
		start := time.Now()
		if ref, err = r.setupSweep(name, wl, res); err != nil {
			return nil, err
		}
		wall := time.Since(start).Seconds()
		f, err := clock.factor()
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, wall*f)
	}

	var wallMS, perS, rssMB, rawMS []float64
	start := time.Now()
	for res.Failed < 3 && (res.Attempted == 0 || time.Since(start).Seconds() < r.seconds) {
		var walls []float64 // seconds, the repetitions of this span
		for span := time.Now(); res.Failed < 3 && (len(walls) == 0 || time.Since(span) < probeEvery); {
			rep, err := r.runSweepRep(wl)
			res.Attempted++
			switch {
			case r.ctx.Err() != nil:
				return nil, r.ctx.Err()
			case err != nil:
				res.Failed++
				res.fail("repetition %d: %v", res.Attempted, err)
			case !bytes.Equal(rep.Stdout, ref.stdout):
				res.Failed++
				res.fail("repetition %d: output differs from the first repetition's", res.Attempted)
			default:
				walls = append(walls, rep.Wall.Seconds())
				rssMB = append(rssMB, float64(rep.MaxRSS)/1024)
			}
		}
		f, err := clock.factor()
		if err != nil {
			return nil, err
		}
		for _, w := range walls {
			rawMS = append(rawMS, w*1e3)
			wallMS = append(wallMS, w*f*1e3)
			perS = append(perS, ref.work/(w*f))
		}
	}
	if len(wallMS) == 0 {
		return res, nil
	}
	slow := summarize(clock.slowdown)
	res.HostSlowdown = &slow
	setMedian(res, "setup_s", setupS)
	setMedian(res, "latency_p50_ms", wallMS)
	// A run holds 10 to 150 cold processes, too few for a p99; the third
	// quartile is the highest cut every sweep workload's run supports (the
	// slowest repetition of a run moved by up to 31 % between runs).
	walls := summarize(wallMS)
	res.setDetail("latency_tail_ms", walls.Q3, &walls)
	setMedian(res, "throughput_per_s", perS)
	setMedian(res, "peak_rss_mb", rssMB)
	raw := summarize(rawMS)
	res.Raw["latency_p50_ms"], res.Raw["latency_tail_ms"] = raw.Median, raw.Q3
	res.Raw["throughput_per_s"] = ref.work / (raw.Median / 1e3)
	return res, nil
}

func setMedian(res *result, name string, values []float64) {
	s := summarize(values)
	res.setDetail(name, s.Median, &s)
}
