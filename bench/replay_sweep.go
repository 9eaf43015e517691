package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/flows"
	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// encodeLikeCLI renders results the way `noctool sweep -format json` does.
func encodeLikeCLI(results []scenario.Result) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// executePass runs every grid point of every command through
// scenario.Execute — the production path the binary takes — one span per
// point, and requires the encoded results to equal the binary's output byte
// for byte.
func executePass(tr *tracer, grids [][]scenario.Spec, cliStdout []byte, res *result) ([]scenario.Result, error) {
	root := tr.begin("bench", "execute-pass", -1)
	defer tr.end(root)
	var all []scenario.Result
	var out []byte
	op := 0
	for _, specs := range grids {
		results := make([]scenario.Result, len(specs))
		for i, s := range specs {
			id := tr.begin("scenario", "execute", op)
			r, err := scenario.Execute(s)
			tr.end(id)
			if err != nil {
				return nil, err
			}
			results[i] = r
			op++
			res.Attempted++
		}
		enc, err := encodeLikeCLI(results)
		if err != nil {
			return nil, err
		}
		out = append(out, enc...)
		all = append(all, results...)
	}
	if !bytes.Equal(out, cliStdout) {
		res.Failed++
		res.fail("in-process scenario.Execute output differs from the binary's")
	}
	return all, nil
}

// reportScenario measures the scenario layer's per-task protocol costs over
// the workload's grid and reports them with the execute pass's totals.
func reportScenario(res *result, spans []span, iv invocation, seed int64, first scenario.Result, cacheBefore, cacheAfter scenario.SharedCacheStats) error {
	_, execNS := busyOf(spans, "scenario", "execute", -1)
	res.set("scenario.execute_ms", float64(execNS)/1e6)
	res.set("scenario.cache_model_hits", float64(cacheAfter.Models.Hits-cacheBefore.Models.Hits))
	res.set("scenario.cache_model_misses", float64(cacheAfter.Models.Misses-cacheBefore.Models.Misses))
	res.set("scenario.cache_network_hits", float64(cacheAfter.Networks.Hits-cacheBefore.Networks.Hits))
	res.set("scenario.cache_network_misses", float64(cacheAfter.Networks.Misses-cacheBefore.Networks.Misses))

	const rounds = 20
	var specs []scenario.Spec
	start := time.Now()
	for i := 0; i < rounds; i++ {
		var err error
		if specs, err = iv.specs(seed); err != nil {
			return err
		}
	}
	res.set("scenario.expand_validate_us", float64(time.Since(start).Microseconds())/rounds)

	start = time.Now()
	for i := 0; i < rounds; i++ {
		for _, s := range specs {
			if _, err := scenario.CanonicalJSON(s); err != nil {
				return err
			}
		}
	}
	res.set("scenario.canonical_json_us", float64(time.Since(start).Microseconds())/float64(rounds*len(specs)))

	start = time.Now()
	for i := 0; i < rounds; i++ {
		if _, err := json.Marshal(first); err != nil {
			return err
		}
	}
	res.set("scenario.result_encode_us", float64(time.Since(start).Microseconds())/rounds)
	return nil
}

// replayAnalytic decomposes the analytic-grid commands into the analysis and
// wcet calls the scenario layer makes, one span per call, and checks every
// summary and map against the binary's.
func replayAnalytic(ctx context.Context, tr *tracer, grids [][]scenario.Spec, cli []scenario.Result, res *result) error {
	op := 0
	var model *analysis.Model
	for _, specs := range grids {
		for _, s := range specs {
			d, err := s.Dim()
			if err != nil {
				return err
			}
			point := tr.begin("bench", "point", op)
			switch s.Mode {
			case scenario.ModeWCTT:
				if model == nil || model.Params().Dim != d {
					id := tr.begin("analysis", "model_build", op)
					model, err = analysis.NewModel(analysis.DefaultParams(d))
					tr.end(id)
					if err != nil {
						return err
					}
				}
				id := tr.begin("analysis", "summarize", op)
				sum, err := model.SummarizeOneFlitWCTT(s.Design)
				tr.end(id)
				if err != nil {
					return err
				}
				got := scenario.WCTTResult{MaxCycles: sum.Max, MeanCycles: sum.Mean, MinCycles: sum.Min, Flows: sum.Flows}
				if cli[op].WCTT == nil || *cli[op].WCTT != got {
					res.Failed++
					res.fail("%s: replay %+v differs from the binary's %+v", s.Name, got, cli[op].WCTT)
				}
			case scenario.ModeWCETMap:
				p := scenario.PlatformFor(d)
				id := tr.begin("wcet", "engine_compile", op)
				_, err := p.Engine()
				tr.end(id)
				if err != nil {
					return err
				}
				id = tr.begin("wcet", "tableiii", op)
				m, err := p.TableIIIParallel(ctx, workload.EEMBCAutomotive(), 0)
				tr.end(id)
				if err != nil {
					return err
				}
				if !reflect.DeepEqual(m, cli[op].WCETMap) {
					res.Failed++
					res.fail("%s: replayed WCET map differs from the binary's", s.Name)
				}
			default:
				return fmt.Errorf("replayAnalytic: mode %v", s.Mode)
			}
			tr.end(point)
			op++
		}
	}
	return nil
}

// reportAnalytic reports the analysis and wcet layers from the traced
// replay's spans and the binary's results, then probes the layers the replay
// cannot see from outside: the all-pairs kernels, one absolute WCET map, XY
// route walking and uncached weight tables.
func reportAnalytic(res *result, spans []span, cli []scenario.Result, runs, sweeps uint64, mini bool) error {
	kernelSize, mapSize := 48, 64 // meshes of the kernel and map probes
	if mini {
		kernelSize, mapSize = 8, 8
	}
	ms := func(layer, name string) float64 {
		_, ns := busyOf(spans, layer, name, -1)
		return float64(ns) / 1e6
	}
	res.set("analysis.model_build_ms", ms("analysis", "model_build"))
	res.set("analysis.summarize_ms", ms("analysis", "summarize"))
	res.set("wcet.engine_compile_ms", ms("wcet", "engine_compile"))
	res.set("wcet.tableiii_ms", ms("wcet", "tableiii"))
	res.set("analysis.kernel_allpairs_runs", float64(runs))
	res.set("analysis.kernel_row_sweeps", float64(sweeps))
	var flowCount float64
	for _, r := range cli {
		if r.WCTT == nil {
			continue
		}
		flowCount += float64(r.WCTT.Flows)
		if r.Dim == "8x8" {
			if r.Design == network.DesignRegular.String() {
				res.set("analysis.max_wctt_regular_8x8", float64(r.WCTT.MaxCycles))
			} else {
				res.set("analysis.max_wctt_wawwap_8x8", float64(r.WCTT.MaxCycles))
			}
		}
	}
	res.set("analysis.flows", flowCount)

	d := mesh.MustDim(kernelSize, kernelSize)
	model, err := analysis.NewModel(analysis.DefaultParams(d))
	if err != nil {
		return err
	}
	var buf []uint64
	for _, design := range []network.Design{network.DesignRegular, network.DesignWaWWaP} {
		start := time.Now()
		if buf, err = model.AllPairsOneFlitWCTT(design, buf); err != nil {
			return err
		}
		perFlow := float64(time.Since(start).Nanoseconds()) / float64(d.Nodes()*(d.Nodes()-1))
		if design == network.DesignRegular {
			res.set("analysis.allpairs_regular_ns_per_flow", perFlow)
		} else {
			res.set("analysis.allpairs_waw_ns_per_flow", perFlow)
		}
	}

	// One absolute per-core map of one kernel at the grid's largest mesh: the
	// Engine entry point `-workloads` reaches, next to the suite map above.
	eng, err := scenario.PlatformFor(mesh.MustDim(mapSize, mapSize)).Engine()
	if err != nil {
		return err
	}
	start := time.Now()
	if _, err := eng.WCETMap(network.DesignWaWWaP, workload.EEMBCAutomotive()[0]); err != nil {
		return err
	}
	res.set("wcet.wcetmap_ms", float64(time.Since(start).Nanoseconds())/1e6)

	d16 := mesh.MustDim(16, 16)
	nodes := d16.AllNodes()
	hops := 0
	start = time.Now()
	for _, src := range nodes {
		for _, dst := range nodes {
			if src == dst {
				continue
			}
			if err := mesh.WalkXY(d16, src, dst, func(mesh.Hop) bool { hops++; return true }); err != nil {
				return err
			}
		}
	}
	res.set("mesh.route_walk_ns", float64(time.Since(start).Nanoseconds())/float64(len(nodes)*(len(nodes)-1)))
	if hops == 0 {
		return fmt.Errorf("route walk visited no hops")
	}
	probeWeightTable(res, "flows.weight_table_ms_16", 16)
	probeWeightTable(res, "flows.weight_table_ms_48", kernelSize)
	return nil
}

// probeWeightTable times the uncached closed-form weight table of a square
// mesh (median of three). The replays see only the cached table, so this is
// where a cold process's model and network builds spend their flows share.
func probeWeightTable(res *result, metric string, size int) {
	d := mesh.MustDim(size, size)
	var ms []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		wt := flows.ComputeWeightTable(d)
		ms = append(ms, float64(time.Since(start).Nanoseconds())/1e6)
		_ = wt.CountsAt(0)
	}
	res.set(metric, median(ms))
}

// timedSink wraps the streaming sink of a replayed sweep and adds up the time
// spent in Put. Put runs on the executor's goroutines, so the total is kept
// atomically and recorded as one roll-up span once the stream is done.
type timedSink struct {
	inner  sweep.ResultSink
	calls  atomic.Int64
	busyNS atomic.Int64
}

func (s *timedSink) Put(i int, r scenario.Result, err error) error {
	start := time.Now()
	e := s.inner.Put(i, r, err)
	s.busyNS.Add(int64(time.Since(start)))
	s.calls.Add(1)
	return e
}

// streamOnce runs the fan-out grid through sweep.Stream with the given
// executor into a collector plus JSONL and checkpoint sinks, as the CLI
// wires them, and checks the collected results against the binary's output.
func streamOnce(ctx context.Context, tr *tracer, name, dir string, specs []scenario.Spec, exec sweep.Executor, cliStdout []byte, res *result) error {
	id := tr.begin("sweep", name, -1)
	defer tr.end(id)
	gridKey, err := sweep.GridKey(specs)
	if err != nil {
		return err
	}
	outFile, err := os.Create(filepath.Join(dir, name+".jsonl"))
	if err != nil {
		return err
	}
	defer outFile.Close()
	ckFile, err := os.Create(filepath.Join(dir, name+".ckpt"))
	if err != nil {
		return err
	}
	defer ckFile.Close()
	ckw, err := sweep.NewCheckpointWriter(ckFile, len(specs), gridKey)
	if err != nil {
		return err
	}
	collector := sweep.NewCollector(len(specs))
	sink := &timedSink{inner: sweep.NewJSONLSink(outFile, ckw)}
	if err := sweep.Stream(ctx, sweep.Tasks(specs), sweep.Options{Jobs: 2}, exec, sweep.Tee(collector, sink)); err != nil {
		return err
	}
	if err := collector.Err(); err != nil {
		return err
	}
	tr.rollup("sweep", "sink_put", -1, sink.calls.Load(), sink.busyNS.Load())
	got, err := encodeLikeCLI(collector.Results())
	if err != nil {
		return err
	}
	res.Attempted += len(specs)
	if !bytes.Equal(got, cliStdout) {
		res.Failed++
		res.fail("sweep.Stream (%s) output differs from the binary's", name)
	}
	return nil
}

// replayFanout drives the sweep layer as a fabric from outside: expansion,
// then the same grid through the in-process pool and through the
// multi-process coordinator.
func (r *runner) replayFanout(tr *tracer, iv invocation, specs []scenario.Spec, cliStdout []byte, res *result) error {
	dir, err := os.MkdirTemp(r.tmp, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// What the CLI does between flag parsing and dispatch: expand the grid,
	// fingerprint it for the checkpoint, list the tasks.
	id := tr.begin("sweep", "expand", -1)
	expanded, err := iv.specs(r.seed)
	if err == nil {
		_, err = sweep.GridKey(expanded)
	}
	tasks := sweep.Tasks(expanded)
	tr.end(id)
	if err != nil {
		return err
	}
	if len(tasks) != len(specs) {
		return fmt.Errorf("expansion gave %d tasks, want %d", len(tasks), len(specs))
	}
	if err := streamOnce(r.ctx, tr, "stream_inproc", dir, specs, sweep.InProcess{}, cliStdout, res); err != nil {
		return err
	}
	coord := &sweep.Coordinator{
		Command: []string{r.noctool, "sweep", "-worker"},
		Env:     append(os.Environ(), "NOCTOOL_SWEEP_WORKER=1"),
		Procs:   iv.procs,
	}
	return streamOnce(r.ctx, tr, "stream_coord", dir, specs, coord, cliStdout, res)
}

// reportFanout reports the sweep layer from the traced replay and from two
// more runs of the binary: the same grid and sinks in-process (-jobs 2)
// against the worker-process fan-out.
func (r *runner) reportFanout(res *result, spans []span, wl sweepWorkload) error {
	ms := func(name string) float64 {
		_, ns := busyOf(spans, "sweep", name, -1)
		return float64(ns) / 1e6
	}
	inproc, coord := ms("stream_inproc"), ms("stream_coord")
	res.set("sweep.expand_us", ms("expand")*1e3)
	res.set("sweep.stream_inproc_ms", inproc)
	res.set("sweep.stream_coord_ms", coord)
	res.set("sweep.coord_overhead_ms", coord-inproc)
	puts, putNS := busyOf(spans, "sweep", "sink_put", -1)
	res.set("sweep.sink_put_us", float64(putNS)/1e3/float64(puts))
	_, execNS := busyOf(spans, "scenario", "execute", -1)
	res.set("sweep.exec_share", float64(execNS)/1e6/(2*inproc))

	local := wl
	local.invocations = append([]invocation(nil), wl.invocations...)
	local.invocations[0].procs, local.invocations[0].jobs = 0, 2
	var fan, loc []float64
	for i := 0; i < 3; i++ {
		for _, v := range []struct {
			wl  sweepWorkload
			dst *[]float64
		}{{wl, &fan}, {local, &loc}} {
			rep, err := r.runSweepRep(v.wl)
			if err != nil {
				return err
			}
			*v.dst = append(*v.dst, rep.Wall.Seconds())
		}
	}
	res.set("sweep.cli_inproc_wall_s", median(loc))
	res.set("sweep.fanout_ratio", median(fan)/median(loc))
	return nil
}
