package main

import (
	"time"

	"repro/internal/analysis"
	"repro/internal/scenario"
)

// runTraced is the traced run of one workload: the per-layer metrics.
//
// It does a fixed amount of work, so that exact counts repeat: the binary
// once (the reference the replay is checked against), then the workload
// re-composed from each layer's public calls twice — with a tracer and
// without one — then, for sweep workloads, the grid through scenario.Execute
// (the production path, compared byte for byte with the binary), and finally
// probes of the layers a replay cannot see from outside. Generic per-layer
// roll-ups come from the spans under the traced replay's root; the difference
// between the two replays is the tracing overhead.
func (r *runner) runTraced(name string) (*result, error) {
	res := newResult(true)
	tr := newTracer()

	var startup []float64
	for i := 0; i < 5; i++ {
		c, err := runChild(r.ctx, r.noctool, "help")
		if err != nil {
			return nil, err
		}
		startup = append(startup, c.Wall.Seconds()*1e3)
	}
	setMedian(res, "noctool.startup_ms", startup)

	var err error
	var untraced, traced time.Duration
	if isServe(name) {
		untraced, traced, err = r.traceServe(name, tr, res)
	} else {
		untraced, traced, err = r.traceSweep(name, tr, res)
	}
	if err != nil {
		return nil, err
	}
	res.set("bench.trace_overhead_share", traced.Seconds()/untraced.Seconds()-1)
	res.set("bench.trace_spans", float64(len(tr.spans)))

	root := -1
	for i, s := range tr.spans {
		if s.Parent == -1 && s.Name == "replay" {
			root = i
		}
	}
	totals := byLayer(tr.spans, root)
	for _, l := range spanLayers {
		lt := totals[l]
		res.set(l+".calls", float64(lt.Calls))
		res.set(l+".self_ms", float64(lt.SelfNS)/1e6)
		res.set(l+".span_share", float64(lt.SelfNS)/float64(tr.spans[root].BusyNS))
	}
	res.spans = tr.spans
	return res, nil
}

// traceSweep is the traced run of a sweep workload. It returns the wall time
// of the untraced and of the traced replay.
func (r *runner) traceSweep(name string, tr *tracer, res *result) (untraced, traced time.Duration, err error) {
	wl := sweepSizing(name, r.mini)
	ref, err := r.setupSweep(name, wl, res)
	if err != nil {
		return 0, 0, err
	}
	rep, err := r.runSweepRep(wl)
	if err != nil {
		return 0, 0, err
	}
	res.set("noctool.child_cpu_s", rep.CPU.Seconds())

	var grids [][]scenario.Spec
	for _, iv := range wl.invocations {
		specs, err := iv.specs(r.seed)
		if err != nil {
			return 0, 0, err
		}
		grids = append(grids, specs)
	}
	// replay re-composes the workload from public calls under t (nil: no
	// clock reads). The traced replay runs first, on this process's empty
	// caches (weight tables, compiled engines), as a cold CLI process would;
	// the untraced one after it is ahead by those few milliseconds.
	var simTot simTotals
	replay := func(t *tracer) error {
		root := t.begin("bench", "replay", -1)
		defer t.end(root)
		switch {
		case isSim(name):
			tot, err := replaySim(t, grids[0], ref.results, res)
			if t != nil {
				simTot = tot
			}
			return err
		case name == wAnalyticGrid:
			return replayAnalytic(r.ctx, t, grids, ref.results, res)
		default:
			return r.replayFanout(t, wl.invocations[0], grids[0], ref.stdout, res)
		}
	}
	runsBefore, sweepsBefore, _ := analysis.KernelCounters()
	start := time.Now()
	if err := replay(tr); err != nil {
		return 0, 0, err
	}
	traced = time.Since(start)
	runsAfter, sweepsAfter, _ := analysis.KernelCounters()
	start = time.Now()
	if err := replay(nil); err != nil {
		return 0, 0, err
	}
	untraced = time.Since(start)

	// The production path over the same grid, byte for byte against the
	// binary. The scenario layer's own caches (models, networks) are still
	// empty here, so its hit and miss counts are a cold process's.
	cacheBefore := scenario.CacheStats()
	executed, err := executePass(tr, grids, ref.stdout, res)
	if err != nil {
		return 0, 0, err
	}
	if err := reportScenario(res, tr.spans, wl.invocations[0], r.seed, executed[0], cacheBefore, scenario.CacheStats()); err != nil {
		return 0, 0, err
	}

	switch {
	case isSim(name):
		reportSim(res, tr.spans, simTot)
		probeArbiters(res)
		if err := probeRouters(res, grids[0][0]); err != nil {
			return 0, 0, err
		}
		if name == wSimSparse {
			probeWeightTable(res, "flows.weight_table_ms_16", 16)
		} else {
			steps := 3000
			if r.mini {
				steps = 200
			}
			if err := probeSharded(res, grids[0][0], steps); err != nil {
				return 0, 0, err
			}
		}
	case name == wAnalyticGrid:
		if err := reportAnalytic(res, tr.spans, ref.results, runsAfter-runsBefore, sweepsAfter-sweepsBefore, r.mini); err != nil {
			return 0, 0, err
		}
	default:
		if err := r.reportFanout(res, tr.spans, wl); err != nil {
			return 0, 0, err
		}
	}
	return untraced, traced, nil
}

// traceServe is the traced run of a serve workload. It returns the wall time
// of the untraced and of the traced in-process line loop.
func (r *runner) traceServe(name string, tr *tracer, res *result) (untraced, traced time.Duration, err error) {
	sz := serveSizes(name, r.mini)
	n := sz.replayLines
	orc, err := buildOracle(nil, sz.dim)
	if err != nil {
		return 0, 0, err
	}
	lines := orc.lines(sz, r.seed, 0)
	if untraced, err = replayServe(r.ctx, nil, lines, n, res); err != nil {
		return 0, 0, err
	}

	// The traced replay: the oracle's direct analysis calls (the layer below
	// serve, cold then warm), the same lines through the in-process server,
	// and the per-line work of serve's callees over the same bytes.
	root := tr.begin("bench", "replay", -1)
	if orc, err = buildOracle(tr, sz.dim); err == nil {
		traced, err = replayServe(r.ctx, tr, lines, n, res)
	}
	if err == nil {
		err = probeServeLayers(tr, lines, res)
	}
	tr.end(root)
	if err != nil {
		return 0, 0, err
	}
	res.set("analysis.message_wctt_cold_ns", orc.coldNS)
	res.set("analysis.message_wctt_warm_ns", orc.warmNS)
	inprocUS := float64(untraced.Microseconds()) / float64(n)
	res.set("serve.inproc_us_per_line", inprocUS)

	rawUS, err := r.tcpPass(sz, res)
	if err != nil {
		return 0, 0, err
	}
	res.set("serve.transport_share", 1-inprocUS/rawUS)
	probeCache(res)
	return untraced, traced, nil
}
