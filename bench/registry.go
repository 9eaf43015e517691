package main

import "slices"

// The registry is the single list of workload and metric names. BENCHMARK.json
// at the repository root repeats it for the PR driver; TestRegistryMatchesBenchmarkJSON
// keeps the two equal. README.md explains every entry.

// runSeconds is how long the untraced measurement of one workload lasts by
// default, and what BENCHMARK.json tells the driver to pass as --seconds.
const runSeconds = 15

// workloadDef names one workload and says why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Workload names. The four sweep workloads time cold `noctool sweep`
// processes; the two serve workloads time request lines against one
// `noctool serve` daemon over TCP.
const (
	wSimSparse    = "sim-sparse"
	wSimSaturated = "sim-saturated"
	wAnalyticGrid = "analytic-grid"
	wSweepFanout  = "sweep-fanout"
	wServeBatch   = "serve-batch"
	wServeLines   = "serve-lines"
)

var workloads = []workloadDef{
	{wSimSparse, "16x16 mesh at 2 msgs/node/kcycle: few routers hold a flit, so active-set wake/sleep, leaping and the generator dominate the simulator"},
	{wSimSaturated, "8x8 mesh offered 400 msgs/node/kcycle, past saturation: every router and NIC is busy every cycle, so per flit-hop router and arbiter work dominates"},
	{wAnalyticGrid, "cold-process WCTT summaries up to 64x64 plus WCET maps: model build, all-pairs kernels and the WCET engine with empty caches; the simulator is idle"},
	{wSweepFanout, "60 scenarios of about 1 ms fanned to 2 worker processes with JSONL and checkpoint sinks: spawn, task protocol, sinks and merge are the work"},
	{wServeBatch, "2 closed-loop TCP callers sending batch lines of 4032 warm bounds: tuple scan, memo probe and response encode per bound; transport is amortised"},
	{wServeLines, "2 closed-loop TCP callers sending one-bound wctt lines, the co-simulator pattern: line scan, JSON decode, goroutine hand-offs, flush and loopback dominate"},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func isServe(w string) bool { return w == wServeBatch || w == wServeLines }

func isSim(w string) bool { return w == wSimSparse || w == wSimSaturated }

// metricDef declares one metric. Bound is the share of the parent's median
// by which an end-to-end metric may get worse; per-layer metrics carry none.
// On lists the workloads whose traced run measures a per-layer metric; the
// others report it as 0 (the layer does no such work there).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	On     []string
	// Exact marks a count that repeats bit for bit for a given seed, so two
	// commits compare exactly (-compare checks it).
	Exact bool
}

func (m metricDef) on(workload string) bool { return slices.Contains(m.On, workload) }

// End-to-end metrics: what someone waiting for the program sees. Every
// workload reports every one (see README.md for what an "operation" and a
// "unit of work" are on each workload).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.15},
}

var (
	allWorkloads   = workloadNames()
	sweepWorkloads = []string{wSimSparse, wSimSaturated, wAnalyticGrid, wSweepFanout}
	simWorkloads   = []string{wSimSparse, wSimSaturated}
	serveWorkloads = []string{wServeBatch, wServeLines}
)

// spanLayers are the layers the replays record spans in; each gets the three
// generic roll-ups <layer>.calls, <layer>.self_ms and <layer>.span_share on
// every workload.
var spanLayers = []string{"traffic", "nic", "network", "analysis", "wcet", "sweep", "lineio", "serve", "bench"}

// perLayer is built once: the generic span roll-ups followed by the
// layer-specific metrics.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	for _, l := range spanLayers {
		out = append(out,
			metricDef{Name: l + ".calls", Unit: "count", Better: "lower", On: allWorkloads, Exact: true},
			metricDef{Name: l + ".self_ms", Unit: "ms", Better: "lower", On: allWorkloads},
			metricDef{Name: l + ".span_share", Unit: "share", Better: "lower", On: allWorkloads},
		)
	}
	lower := func(name, unit string, on ...string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: "lower", On: on})
	}
	higher := func(name, unit string, on ...string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: "higher", On: on})
	}
	exact := func(name, unit string, on ...string) {
		out = append(out, metricDef{Name: name, Unit: unit, Better: "lower", On: on, Exact: true})
	}

	lower("noctool.startup_ms", "ms", allWorkloads...)
	lower("noctool.child_cpu_s", "s", sweepWorkloads...)

	lower("mesh.route_walk_ns", "ns", wAnalyticGrid)
	lower("flows.weight_table_ms_16", "ms", wSimSparse, wAnalyticGrid)
	lower("flows.weight_table_ms_48", "ms", wAnalyticGrid)

	lower("traffic.tick_ns", "ns", simWorkloads...)
	exact("traffic.messages", "count", simWorkloads...)
	lower("nic.send_ns", "ns", simWorkloads...)
	exact("nic.injected_flits", "count", simWorkloads...)
	lower("arbiter.rr_grant_ns", "ns", simWorkloads...)
	lower("arbiter.weighted_grant_ns", "ns", simWorkloads...)
	lower("arbiter.weighted_replenish_ns", "ns", simWorkloads...)
	lower("router.transfers_ns", "ns", simWorkloads...)
	lower("router.catchup_idle_ns", "ns", simWorkloads...)

	lower("network.build_ms", "ms", simWorkloads...)
	lower("network.step_ns", "ns", simWorkloads...)
	lower("network.ns_per_flit_hop", "ns", simWorkloads...)
	higher("network.mcycles_per_s", "1e6/s", simWorkloads...)
	lower("network.drain_ms", "ms", simWorkloads...)
	lower("network.step_allocs", "1/kstep", simWorkloads...)
	lower("network.occupied_router_share", "share", simWorkloads...)
	exact("network.cycles", "cycles", simWorkloads...)
	exact("network.steps", "count", simWorkloads...)
	exact("network.leap_share", "share", simWorkloads...)
	exact("network.flit_hops", "count", simWorkloads...)
	exact("network.delivered_msgs", "count", simWorkloads...)
	exact("network.mean_latency_cycles", "cycles", simWorkloads...)
	exact("network.max_latency_cycles", "cycles", simWorkloads...)
	lower("network.sharded2_step_ns", "ns", wSimSaturated)
	higher("network.sharded2_speedup", "ratio", wSimSaturated)

	lower("analysis.model_build_ms", "ms", wAnalyticGrid)
	lower("analysis.allpairs_regular_ns_per_flow", "ns", wAnalyticGrid)
	lower("analysis.allpairs_waw_ns_per_flow", "ns", wAnalyticGrid)
	lower("analysis.summarize_ms", "ms", wAnalyticGrid)
	exact("analysis.kernel_allpairs_runs", "count", wAnalyticGrid)
	exact("analysis.kernel_row_sweeps", "count", wAnalyticGrid)
	exact("analysis.flows", "count", wAnalyticGrid)
	exact("analysis.max_wctt_regular_8x8", "cycles", wAnalyticGrid)
	exact("analysis.max_wctt_wawwap_8x8", "cycles", wAnalyticGrid)
	lower("analysis.message_wctt_cold_ns", "ns", serveWorkloads...)
	lower("analysis.message_wctt_warm_ns", "ns", serveWorkloads...)

	lower("wcet.engine_compile_ms", "ms", wAnalyticGrid)
	lower("wcet.wcetmap_ms", "ms", wAnalyticGrid)
	lower("wcet.tableiii_ms", "ms", wAnalyticGrid)

	lower("scenario.execute_ms", "ms", sweepWorkloads...)
	lower("scenario.expand_validate_us", "us", sweepWorkloads...)
	lower("scenario.canonical_json_us", "us", sweepWorkloads...)
	lower("scenario.result_encode_us", "us", sweepWorkloads...)
	higher("scenario.cache_model_hits", "count", sweepWorkloads...)
	lower("scenario.cache_model_misses", "count", sweepWorkloads...)
	higher("scenario.cache_network_hits", "count", sweepWorkloads...)
	lower("scenario.cache_network_misses", "count", sweepWorkloads...)

	lower("sweep.expand_us", "us", wSweepFanout)
	lower("sweep.stream_inproc_ms", "ms", wSweepFanout)
	lower("sweep.stream_coord_ms", "ms", wSweepFanout)
	lower("sweep.coord_overhead_ms", "ms", wSweepFanout)
	lower("sweep.sink_put_us", "us", wSweepFanout)
	higher("sweep.exec_share", "share", wSweepFanout)
	lower("sweep.cli_inproc_wall_s", "s", wSweepFanout)
	lower("sweep.fanout_ratio", "ratio", wSweepFanout)

	lower("lineio.scan_ns_per_line", "ns", serveWorkloads...)
	lower("lineio.write_ns_per_line", "ns", serveWorkloads...)
	lower("cache.lru_get_ns", "ns", serveWorkloads...)
	lower("cache.singleflight_do_ns", "ns", serveWorkloads...)

	lower("serve.inproc_us_per_line", "us", serveWorkloads...)
	lower("serve.tcp_us_per_line", "us", serveWorkloads...)
	lower("serve.tcp_p99_us", "us", serveWorkloads...)
	lower("serve.transport_share", "share", serveWorkloads...)
	lower("serve.decode_us_per_line", "us", serveWorkloads...)
	lower("serve.client_do_us", "us", serveWorkloads...)
	lower("serve.client_overhead_us", "us", serveWorkloads...)
	lower("serve.srv_p50_ns", "ns", serveWorkloads...)
	lower("serve.srv_p99_ns", "ns", serveWorkloads...)
	higher("serve.memo_hit_share", "share", serveWorkloads...)
	lower("serve.errors", "count", serveWorkloads...)
	lower("serve.rejected", "count", serveWorkloads...)
	lower("serve.coalesced", "count", serveWorkloads...)
	lower("serve.batch_warms", "count", serveWorkloads...)
	lower("serve.daemon_cpu_us_per_line", "us", serveWorkloads...)

	lower("bench.loadgen_cpu_share", "share", serveWorkloads...)
	lower("bench.trace_overhead_share", "share", allWorkloads...)
	lower("bench.trace_spans", "count", allWorkloads...)
	lower("bench.host_loadavg", "load", allWorkloads...)
	return out
}
