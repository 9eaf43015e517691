// Benchmark harness: one testing.B benchmark per table and figure of the
// paper, plus simulator-throughput and ablation benchmarks. Each benchmark
// recomputes the corresponding experiment and reports its headline numbers
// as custom metrics so `go test -bench=. -benchmem` doubles as a
// reproduction run. EXPERIMENTS.md records the measured values next to the
// paper's.
package repro

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/flit"
	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/sweep"
	"repro/internal/traffic"
	"repro/internal/wcet"
	"repro/internal/workload"
)

// TestMain doubles the test binary as a sweep worker, so the multi-process
// benchmarks below can spawn real subprocesses: the coordinator re-execs
// os.Args[0] with NOCTOOL_SWEEP_WORKER set, and the role is recognised here
// before any test runs.
func TestMain(m *testing.M) {
	if os.Getenv("NOCTOOL_SWEEP_WORKER") == "1" {
		if err := sweep.ServeWorker(context.Background(), os.Stdin, os.Stdout, sweep.WorkerHooks{}); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// BenchmarkTableI_Weights regenerates Table I: the WaW arbitration weights of
// router R(1,1) of a 2x2 mesh.
func BenchmarkTableI_Weights(b *testing.B) {
	var entries int
	for i := 0; i < b.N; i++ {
		rows, err := core.TableI(2, 2, 1, 1)
		if err != nil {
			b.Fatal(err)
		}
		entries = len(rows)
	}
	b.ReportMetric(float64(entries), "weight-pairs")
}

// BenchmarkTableII_WCTTScaling regenerates Table II: the WCTT summary of
// every mesh size from 2x2 to 8x8 for both designs.
func BenchmarkTableII_WCTTScaling(b *testing.B) {
	var last []float64
	for i := 0; i < b.N; i++ {
		rows, err := core.TableII(core.PaperTableIISizes())
		if err != nil {
			b.Fatal(err)
		}
		final := rows[len(rows)-1]
		last = []float64{float64(final.Regular.Max), float64(final.WaWWaP.Max)}
	}
	b.ReportMetric(last[0], "regular-8x8-max-cycles")
	b.ReportMetric(last[1], "wawwap-8x8-max-cycles")
	b.ReportMetric(last[0]/last[1], "max-wctt-improvement")
}

// BenchmarkTableIII_EEMBC regenerates Table III: the per-core normalised
// WCET map of the EEMBC Automotive suite on the 64-core platform.
func BenchmarkTableIII_EEMBC(b *testing.B) {
	var far, near float64
	for i := 0; i < b.N; i++ {
		table, err := core.TableIII()
		if err != nil {
			b.Fatal(err)
		}
		near = table[0][1]
		far = table[7][7]
	}
	b.ReportMetric(near, "normalized-wcet-near-core")
	b.ReportMetric(far, "normalized-wcet-far-core")
}

// BenchmarkFigure2a_PacketSizes regenerates Figure 2(a): the 3DPP WCET under
// placement P0 for maximum packet sizes L1, L4 and L8.
func BenchmarkFigure2a_PacketSizes(b *testing.B) {
	var impL1, impL8 float64
	for i := 0; i < b.N; i++ {
		points, err := core.Figure2a()
		if err != nil {
			b.Fatal(err)
		}
		impL1 = points[0].Improvement()
		impL8 = points[len(points)-1].Improvement()
	}
	b.ReportMetric(impL1, "improvement-L1")
	b.ReportMetric(impL8, "improvement-L8")
}

// BenchmarkFigure2b_Placements regenerates Figure 2(b): the 3DPP WCET across
// placements P0-P3 with one-flit packets.
func BenchmarkFigure2b_Placements(b *testing.B) {
	var regVar, wawVar float64
	for i := 0; i < b.N; i++ {
		points, err := core.Figure2b()
		if err != nil {
			b.Fatal(err)
		}
		var regs, waws []float64
		for _, p := range points {
			regs = append(regs, p.RegularMs)
			waws = append(waws, p.WaWWaPMs)
		}
		regVar = wcet.Variability(regs)
		wawVar = wcet.Variability(waws)
	}
	b.ReportMetric(regVar, "regular-placement-variability")
	b.ReportMetric(wawVar, "wawwap-placement-variability")
}

// BenchmarkAvgPerf_Manycore reproduces the average-performance comparison of
// Section IV on a scaled-down workload: the same EEMBC kernel on every core
// of a 4x4 mesh, cycle-accurately simulated on both designs.
func BenchmarkAvgPerf_Manycore(b *testing.B) {
	var degradation float64
	for i := 0; i < b.N; i++ {
		res, err := core.AveragePerformance(4, 4, "matrix", 500, 20_000_000)
		if err != nil {
			b.Fatal(err)
		}
		degradation = res.DegradationPct
	}
	b.ReportMetric(degradation, "avg-degradation-%")
}

// BenchmarkArea_Overhead reproduces the NoC area estimate: the WaW+WaP
// additions must stay below the paper's 5% envelope.
func BenchmarkArea_Overhead(b *testing.B) {
	var overhead float64
	for i := 0; i < b.N; i++ {
		cmp, err := core.AreaOverhead(8, 8)
		if err != nil {
			b.Fatal(err)
		}
		overhead = cmp.OverheadPercent()
	}
	b.ReportMetric(overhead, "area-overhead-%")
}

// benchmarkHotspot drives a congested all-to-one pattern through the
// cycle-accurate simulator and reports the latency spread, the measured
// counterpart of the analytical Table II study.
func benchmarkHotspot(b *testing.B, design network.Design) {
	d := mesh.MustDim(8, 8)
	target := mesh.Node{X: 0, Y: 0}
	var maxLatency float64
	for i := 0; i < b.N; i++ {
		net, err := network.New(network.DefaultConfig(d, design))
		if err != nil {
			b.Fatal(err)
		}
		gen, err := traffic.NewHotspot(d, target, 7, 40, traffic.RequestPayloadBits, 1500)
		if err != nil {
			b.Fatal(err)
		}
		if _, done := traffic.Drive(net, gen, 2_000_000); !done {
			b.Fatal("hotspot simulation did not complete")
		}
		maxLatency = net.AggregateLatency().Max()
	}
	b.ReportMetric(maxLatency, "max-latency-cycles")
}

// BenchmarkSimWCTT_Hotspot_Regular measures the regular design under a
// saturating hotspot.
func BenchmarkSimWCTT_Hotspot_Regular(b *testing.B) { benchmarkHotspot(b, network.DesignRegular) }

// BenchmarkSimWCTT_Hotspot_WaWWaP measures the WaW+WaP design under the same
// hotspot.
func BenchmarkSimWCTT_Hotspot_WaWWaP(b *testing.B) { benchmarkHotspot(b, network.DesignWaWWaP) }

// BenchmarkSimulatorThroughput measures the raw speed of the cycle-accurate
// simulator (simulated cycles per second of an idle-ish 8x8 mesh with
// background uniform traffic), the metric that matters when scaling the
// average-performance experiments up.
func BenchmarkSimulatorThroughput(b *testing.B) {
	d := mesh.MustDim(8, 8)
	net := network.MustNew(network.DefaultConfig(d, network.DesignWaWWaP))
	gen, err := traffic.NewUniformRandom(d, 3, 50, 512, 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, msg := range gen.Tick(net.Cycle()) {
			if _, err := net.Send(msg); err != nil {
				b.Fatal(err)
			}
		}
		net.Step()
	}
	b.ReportMetric(float64(net.TotalInjectedFlits())/float64(b.N), "flits/cycle")
}

// BenchmarkAblation_WCTT compares the two mechanisms in isolation (WaW-only
// and WaP-only) against the full design for the farthest flow of the 8x8
// mesh — the design-choice ablation called out in DESIGN.md.
func BenchmarkAblation_WCTT(b *testing.B) {
	model, err := core.NewWCTTModel(8, 8)
	if err != nil {
		b.Fatal(err)
	}
	src := mesh.Node{X: 7, Y: 7}
	dst := mesh.Node{X: 0, Y: 0}
	results := make(map[string]float64)
	for i := 0; i < b.N; i++ {
		for _, design := range []core.Design{core.DesignRegular, core.DesignWaPOnly, core.DesignWaWOnly, core.DesignWaWWaP} {
			v, err := model.MessageWCTT(design, src, dst, 512)
			if err != nil {
				b.Fatal(err)
			}
			results[design.String()] = float64(v)
		}
	}
	b.ReportMetric(results["regular"], "regular-cycles")
	b.ReportMetric(results["WaP-only"], "wap-only-cycles")
	b.ReportMetric(results["WaW-only"], "waw-only-cycles")
	b.ReportMetric(results["WaW+WaP"], "wawwap-cycles")
}

// benchmarkSweepGrid runs the Table II scenario grid (sizes 2x2..8x8
// crossed with the regular and WaW+WaP designs) through the sweep engine
// with the given worker count. The serial/parallel pair tracks the
// wall-clock win of the parallel experiment layer in the benchmark
// trajectory.
func benchmarkSweepGrid(b *testing.B, jobs int) {
	spec := scenario.Spec{
		Name:    "bench",
		Mode:    scenario.ModeWCTT,
		Sizes:   []int{2, 3, 4, 5, 6, 7, 8},
		Designs: []network.Design{network.DesignRegular, network.DesignWaWWaP},
	}
	var scenarios int
	var maxWCTT float64
	for i := 0; i < b.N; i++ {
		results, err := sweep.Expand(context.Background(), spec, sweep.Options{Jobs: jobs})
		if err != nil {
			b.Fatal(err)
		}
		scenarios = len(results)
		maxWCTT = float64(results[len(results)-2].WCTT.MaxCycles)
	}
	b.ReportMetric(float64(scenarios), "scenarios")
	b.ReportMetric(maxWCTT, "regular-8x8-max-cycles")
}

// BenchmarkSweep is the sweep-engine benchmark family tracked across PRs
// (see BENCH_baseline.json and the CI bench smoke step).
func BenchmarkSweep(b *testing.B) {
	// serial runs the Table II grid on one worker; parallel on GOMAXPROCS
	// workers — their ns/op ratio is the experiment layer's speedup.
	b.Run("serial", func(b *testing.B) { benchmarkSweepGrid(b, 1) })
	b.Run("parallel", func(b *testing.B) { benchmarkSweepGrid(b, 0) })

	// simulate drives the cycle-accurate simulator at low injection load on
	// an 8x8 mesh (plus smaller meshes and a congested hotspot grid) — the
	// profile the active-set engine accelerates: most nodes idle most
	// cycles.
	b.Run("simulate", func(b *testing.B) {
		spec := scenario.Spec{
			Name:    "bench-sim",
			Mode:    scenario.ModeSimulate,
			Sizes:   []int{4, 8},
			Designs: []network.Design{network.DesignRegular, network.DesignWaWWaP},
			Seed:    7,
			Traffic: scenario.Traffic{Pattern: "uniform", Rate: 5, Messages: 2000},
		}
		var delivered uint64
		for i := 0; i < b.N; i++ {
			results, err := sweep.Expand(context.Background(), spec, sweep.Options{})
			if err != nil {
				b.Fatal(err)
			}
			delivered = 0
			for _, r := range results {
				delivered += r.Sim.Delivered
			}
		}
		b.ReportMetric(float64(delivered), "messages-delivered")
	})

	// hotspot-simulate keeps the original congested small-mesh grid so the
	// saturated-network profile stays tracked too.
	b.Run("hotspot-simulate", func(b *testing.B) {
		spec := scenario.Spec{
			Name:    "bench-hot",
			Mode:    scenario.ModeSimulate,
			Sizes:   []int{2, 3, 4, 5, 6},
			Designs: []network.Design{network.DesignRegular, network.DesignWaWWaP},
			Seed:    7,
			Traffic: scenario.Traffic{Pattern: "hotspot", Rate: 40, Messages: 500},
		}
		var delivered uint64
		for i := 0; i < b.N; i++ {
			results, err := sweep.Expand(context.Background(), spec, sweep.Options{})
			if err != nil {
				b.Fatal(err)
			}
			delivered = 0
			for _, r := range results {
				delivered += r.Sim.Delivered
			}
		}
		b.ReportMetric(float64(delivered), "messages-delivered")
	})

	// load-curve exercises the saturation-study mode across both designs.
	b.Run("load-curve", func(b *testing.B) {
		spec := scenario.Spec{
			Name:    "bench-lc",
			Mode:    scenario.ModeLoadCurve,
			Sizes:   []int{4},
			Designs: []network.Design{network.DesignRegular, network.DesignWaWWaP},
			Seed:    3,
			Traffic: scenario.Traffic{
				Rates:         []int{50, 200, 500},
				WarmupCycles:  500,
				MeasureCycles: 2500,
			},
		}
		var points int
		for i := 0; i < b.N; i++ {
			results, err := sweep.Expand(context.Background(), spec, sweep.Options{})
			if err != nil {
				b.Fatal(err)
			}
			points = 0
			for _, r := range results {
				points += len(r.LoadCurve.Points)
			}
		}
		b.ReportMetric(float64(points), "curve-points")
	})

	// in-process vs multi-process on one identical cycle-accurate grid: the
	// ratio prices the coordinator's wire overhead (spec/result JSON, the
	// per-task round trip) and, on a multi-core host, measures the
	// -worker-procs scaling. The recording container is 1-CPU, so the
	// baseline's multiproc numbers track overhead only; the CI multi-core
	// step records the real parallel ratio.
	mpGrid := scenario.Spec{
		Name:    "bench-mp",
		Mode:    scenario.ModeSimulate,
		Sizes:   []int{3, 4, 5},
		Designs: []network.Design{network.DesignRegular, network.DesignWaWWaP},
		Seed:    9,
		Traffic: scenario.Traffic{Pattern: "uniform", Rate: 40, Messages: 400},
	}
	mpSpecs, err := mpGrid.Expand()
	if err != nil {
		b.Fatal(err)
	}
	runExec := func(b *testing.B, exec sweep.Executor) {
		var delivered uint64
		for i := 0; i < b.N; i++ {
			c := sweep.NewCollector(len(mpSpecs))
			if err := sweep.Stream(context.Background(), sweep.Tasks(mpSpecs), sweep.Options{}, exec, c); err != nil {
				b.Fatal(err)
			}
			if err := c.Err(); err != nil {
				b.Fatal(err)
			}
			delivered = 0
			for _, r := range c.Results() {
				delivered += r.Sim.Delivered
			}
		}
		b.ReportMetric(float64(delivered), "messages-delivered")
	}
	b.Run("multiproc-inprocess", func(b *testing.B) { runExec(b, sweep.InProcess{}) })
	for _, procs := range []int{1, 2} {
		b.Run(fmt.Sprintf("multiproc-%dworkers", procs), func(b *testing.B) {
			runExec(b, &sweep.Coordinator{
				Command: []string{os.Args[0]},
				Env:     append(os.Environ(), "NOCTOOL_SWEEP_WORKER=1"),
				Procs:   procs,
			})
		})
	}
}

// BenchmarkEngine measures Network.Step on an 8x8 mesh under low
// uniform-random load, the workload where most nodes idle most cycles and the
// active set pays. (The pair against the full-scan oracle, past saturation
// where the active set cannot win, is BenchmarkEngine in internal/network,
// next to the oracle.) The time-leap sub-benchmark measures the event-horizon
// scheduling on the workload it targets: bursts separated by long idle
// windows plus an idle tail, where leaping costs O(events) instead of
// O(cycles).
func BenchmarkEngine(b *testing.B) {
	b.Run("active-set", func(b *testing.B) {
		d := mesh.MustDim(8, 8)
		net := network.MustNew(network.DefaultConfig(d, network.DesignWaWWaP))
		gen, err := traffic.NewUniformRandom(d, 3, 5, traffic.RequestPayloadBits, 1<<30)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, msg := range gen.Tick(net.Cycle()) {
				if _, err := net.Send(msg); err != nil {
					b.Fatal(err)
				}
			}
			net.Step()
		}
		b.ReportMetric(float64(net.TotalInjectedFlits())/float64(b.N), "flits/cycle")
	})

	// time-leap: ten all-node permutation bursts 10k cycles apart (the
	// network drains in a few hundred cycles, then idles), followed by a
	// 100k-cycle idle tail — one op simulates ~200k cycles, almost all of
	// them leapt over. The -stepped twin runs the identical workload with a
	// plain cycle-by-cycle loop; the ns/op ratio is the leap win.
	leapWorkload := func(b *testing.B, net *network.Network, leap bool) uint64 {
		gen, err := traffic.NewPermutation(mesh.MustDim(8, 8), traffic.Transpose, traffic.CacheLinePayloadBits, 10, 10_000)
		if err != nil {
			b.Fatal(err)
		}
		if leap {
			if _, done := traffic.Drive(net, gen, 1_000_000); !done {
				b.Fatal("pattern did not drain")
			}
		} else {
			for {
				for _, msg := range gen.Tick(net.Cycle()) {
					if _, err := net.Send(msg); err != nil {
						b.Fatal(err)
					}
				}
				if gen.Done() && net.Drained() {
					break
				}
				net.Step()
			}
		}
		idle := 100_000 + 10_000*10 - int(net.Cycle()) // same final cycle either way
		if leap {
			net.Run(idle)
		} else {
			for i := 0; i < idle; i++ {
				net.Step()
			}
		}
		return net.Cycle()
	}
	for _, leap := range []bool{true, false} {
		name := "time-leap"
		if !leap {
			name = "time-leap-stepped"
		}
		b.Run(name, func(b *testing.B) {
			net := network.MustNew(network.DefaultConfig(mesh.MustDim(8, 8), network.DesignWaWWaP))
			var cycles uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Reset()
				cycles = leapWorkload(b, net, leap)
			}
			b.ReportMetric(float64(cycles), "cycles-simulated/op")
		})
	}
}

// BenchmarkTraffic times one Tick of the uniform-random generator over the
// 256 nodes of a 16x16 mesh at 2 msgs/node/kcycle — the bench module's
// sim-sparse point, where 998 of 1000 draws say "no message" — through the
// generator's draw kernel and through the per-node loop over math/rand it
// replaced (the oracle of internal/traffic's tests, restated here because
// test code cannot be imported). Both sides draw from one message pool and
// hand every message straight back. Gate traffic-tick-16x16 is their ratio.
func BenchmarkTraffic(b *testing.B) {
	d := mesh.MustDim(16, 16)
	const seed, rate = 3, 2
	pool := &flit.Pool{}
	b.Run("tick-16x16-rate2/kernel", func(b *testing.B) {
		gen, err := traffic.NewUniformRandom(d, seed, rate, traffic.RequestPayloadBits, math.MaxInt32)
		if err != nil {
			b.Fatal(err)
		}
		gen.AttachPool(pool)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, msg := range gen.Tick(uint64(i)) {
				pool.PutMessage(msg)
			}
		}
	})
	b.Run("tick-16x16-rate2/reference", func(b *testing.B) {
		nodes, rng := d.AllNodes(), traffic.Rand(seed)
		var out []*flit.Message
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out = out[:0]
			for _, src := range nodes {
				if rng.Intn(1000) >= rate {
					continue
				}
				dst := nodes[rng.Intn(len(nodes))]
				if dst == src {
					continue
				}
				msg := pool.GetMessage()
				msg.Flow = flit.FlowID{Src: src, Dst: dst}
				msg.Class = flit.ClassData
				msg.PayloadBits = traffic.RequestPayloadBits
				out = append(out, msg)
			}
			for _, msg := range out {
				pool.PutMessage(msg)
			}
		}
	})
}

// BenchmarkWCTT tracks the analytical WCET table generation; tableiii is the
// per-core × per-benchmark loop that now runs on the sweep worker pool. The
// wcetmap-64x64 pair measures the per-core UBD precomputation of a 64x64
// wcet-map sweep point from a cold model — the kernel sub-bench runs the two
// AllCoresRoundTripUBD row sweeps, the pairwise twin the per-core
// RoundTripUBD loop — and their ratio is a perf-gate input (cmd/benchgate).
func BenchmarkWCTT(b *testing.B) {
	b.Run("tableiii", func(b *testing.B) {
		e, err := wcet.DefaultPlatform().Engine()
		if err != nil {
			b.Fatal(err)
		}
		suite := workload.EEMBCAutomotive()
		var far float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			table, err := e.TableIIIParallel(context.Background(), suite, 0)
			if err != nil {
				b.Fatal(err)
			}
			far = table[7][7]
		}
		b.ReportMetric(far, "normalized-wcet-far-core")
	})
	wcetmapDim := mesh.MustDim(64, 64)
	memory := mesh.Node{X: 0, Y: 0}
	b.Run("wcetmap-64x64-kernel", func(b *testing.B) {
		var sink uint64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := analysis.MustNewModel(analysis.DefaultParams(wcetmapDim))
			load, err := m.AllCoresRoundTripUBD(network.DesignWaWWaP, memory, 48, 512, nil)
			if err != nil {
				b.Fatal(err)
			}
			evict, err := m.AllCoresRoundTripUBD(network.DesignWaWWaP, memory, 512, 16, nil)
			if err != nil {
				b.Fatal(err)
			}
			sink = load[len(load)-1] + evict[len(evict)-1]
		}
		b.ReportMetric(float64(sink), "far-core-ubd-cycles")
	})
	b.Run("wcetmap-64x64-pairwise", func(b *testing.B) {
		var sink uint64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := analysis.MustNewModel(analysis.DefaultParams(wcetmapDim))
			for _, core := range wcetmapDim.AllNodes() {
				load, err := m.RoundTripUBD(network.DesignWaWWaP, core, memory, 48, 512)
				if err != nil {
					b.Fatal(err)
				}
				evict, err := m.RoundTripUBD(network.DesignWaWWaP, core, memory, 512, 16)
				if err != nil {
					b.Fatal(err)
				}
				sink = load + evict
			}
		}
		b.ReportMetric(float64(sink), "far-core-ubd-cycles")
	})
}

// BenchmarkAnalysis tracks the analytical WCTT engine itself (no sweep
// machinery): the serial Table II study over the paper's sizes, plus the
// large-mesh points (16x16 and 32x32) that the flat-indexed fast path opens
// up — Table II is precisely a mesh-size scalability study, so the bench
// family extends it beyond the paper's 8x8 ceiling.
func BenchmarkAnalysis(b *testing.B) {
	b.Run("tableii", func(b *testing.B) {
		var maxWCTT uint64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows, err := analysis.TableII(core.PaperTableIISizes())
			if err != nil {
				b.Fatal(err)
			}
			maxWCTT = rows[len(rows)-1].Regular.Max
		}
		b.ReportMetric(float64(maxWCTT), "regular-8x8-max-cycles")
	})
	// tableii/NxN runs on the incremental all-pairs kernels; pairwise/NxN
	// folds the per-pair route walk over a prebuilt model. Their ratio is
	// the kernel speedup the CI perf gate (cmd/benchgate) enforces.
	for _, size := range []int{16, 32} {
		b.Run(fmt.Sprintf("tableii/%dx%d", size, size), func(b *testing.B) {
			var waw uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				row, err := analysis.RowForDim(mesh.MustDim(size, size))
				if err != nil {
					b.Fatal(err)
				}
				waw = row.WaWWaP.Max
			}
			b.ReportMetric(float64(waw), "wawwap-max-cycles")
		})
	}
	for _, size := range []int{16, 32} {
		b.Run(fmt.Sprintf("pairwise/%dx%d", size, size), func(b *testing.B) {
			m := analysis.MustNewModel(analysis.DefaultParams(mesh.MustDim(size, size)))
			var waw uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				reg := pairwiseOneFlit(b, m, network.DesignRegular)
				sum := pairwiseOneFlit(b, m, network.DesignWaWWaP)
				waw = sum.Max + reg.Min
			}
			b.ReportMetric(float64(waw), "wawwap-max-cycles")
		})
	}
}

// pairwiseOneFlit is the per-pair baseline of the pairwise/NxN benches: the
// summary SummarizeOneFlitWCTT computes, folded from one route walk per
// ordered pair instead of the kernels. The fold is the production fold
// (in-order float sum, integer max/min, mean = sum/count), so the
// analysis-allpairs gates compare kernel vs route walk, not fold vs fold.
func pairwiseOneFlit(b *testing.B, m *analysis.Model, design network.Design) analysis.WCTTSummary {
	nodes := m.Params().Dim.AllNodes()
	sum := analysis.WCTTSummary{Design: design, Dim: m.Params().Dim, Min: ^uint64(0)}
	var total float64
	for _, src := range nodes {
		for _, dst := range nodes {
			if src == dst {
				continue
			}
			v, err := m.FlowWCTTOneFlit(design, src, dst)
			if err != nil {
				b.Fatal(err)
			}
			sum.Max, sum.Min = max(sum.Max, v), min(sum.Min, v)
			total += float64(v)
			sum.Flows++
		}
	}
	sum.Mean = total / float64(sum.Flows)
	return sum
}

// BenchmarkPacketization measures the WaP slicing overhead accounting (the
// 25% flit overhead of a cache-line reply reported in Section IV).
func BenchmarkPacketization(b *testing.B) {
	link := flit.DefaultLinkConfig()
	var overhead float64
	for i := 0; i < b.N; i++ {
		overhead = link.WaPOverhead(512)
	}
	b.ReportMetric(overhead*100, "wap-flit-overhead-%")
}

// BenchmarkWorkloadModels exercises the synthetic workload constructors used
// by every WCET experiment.
func BenchmarkWorkloadModels(b *testing.B) {
	var kernels, exchanges int
	for i := 0; i < b.N; i++ {
		kernels = len(workload.EEMBCAutomotive())
		exchanges = workload.ThreeDPathPlanning().TotalMessagesPerThread()
	}
	b.ReportMetric(float64(kernels), "eembc-kernels")
	b.ReportMetric(float64(exchanges), "3dpp-exchanges-per-thread")
}

// buildServePairs enumerates every distinct (src, dst) flow of the mesh —
// the query working set of the serve benchmarks.
func buildServePairs(d mesh.Dim) [][2]mesh.Node {
	nodes := d.AllNodes()
	pairs := make([][2]mesh.Node, 0, len(nodes)*(len(nodes)-1))
	for _, s := range nodes {
		for _, t := range nodes {
			if s != t {
				pairs = append(pairs, [2]mesh.Node{s, t})
			}
		}
	}
	return pairs
}

// buildServeBatch renders `queries` WCTT tuples (cycling through pairs) as
// batch-verb protocol lines of at most 65536 tuples each.
func buildServeBatch(pairs [][2]mesh.Node, queries int) []byte {
	var buf bytes.Buffer
	const perLine = 65536
	for q := 0; q < queries; {
		n := min(perLine, queries-q)
		buf.WriteString(`{"id":1,"op":"batch","design":"waw+wap","width":8,"height":8,"queries":[`)
		for i := 0; i < n; i++ {
			p := pairs[(q+i)%len(pairs)]
			if i > 0 {
				buf.WriteByte(',')
			}
			fmt.Fprintf(&buf, "[%d,%d,%d,%d]", p[0].X, p[0].Y, p[1].X, p[1].Y)
		}
		buf.WriteString("]}\n")
		q += n
	}
	return buf.Bytes()
}

// repeatReader yields one protocol line n times: a request stream of any
// length without rendering it.
type repeatReader struct {
	line []byte
	n    int
	rest []byte
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if len(r.rest) == 0 {
		if r.n == 0 {
			return 0, io.EOF
		}
		r.n--
		r.rest = r.line
	}
	n := copy(p, r.rest)
	r.rest = r.rest[n:]
	return n, nil
}

// BenchmarkServe measures the latency-oracle daemon end to end through
// ServeLines: protocol parse, route walk, response encode. batch-warm is
// the headline number — vectorised analytical queries against an already
// built model, the million-QPS path of the serving layer. wctt-lines is the
// co-simulator's shape, one flat request per bound, answered on the
// connection's reader goroutine; wctt-lines-generic is the same lines with
// one escaped character in the op string, which the flat decoder declines,
// so every line pays encoding/json, a pool hand-off and the ordered queue —
// the contrast the serve-lines-inline gate holds, and the slow side of the
// batch gate. Every op is one query, so ns/op is per-query cost and
// queries/s the throughput. overload-storm is the odd one out: one op is
// one 4032-bound batch line turned away by the admission gate, the cost of
// saying no. The examples/servebench harness reports the batch workload
// with concurrent connections.
func BenchmarkServe(b *testing.B) {
	pairs := buildServePairs(mesh.MustDim(8, 8))
	b.Run("batch-warm", func(b *testing.B) {
		srv := serve.NewServer(serve.Config{})
		defer srv.Close()
		warm := buildServeBatch(pairs, len(pairs))
		if err := srv.ServeLines(context.Background(), bytes.NewReader(warm), io.Discard); err != nil {
			b.Fatal(err)
		}
		in := buildServeBatch(pairs, b.N)
		b.ReportAllocs()
		b.ResetTimer()
		if err := srv.ServeLines(context.Background(), bytes.NewReader(in), io.Discard); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	})
	for _, v := range []struct{ name, op string }{
		{"wctt-lines", `"wctt"`},
		{"wctt-lines-generic", `"wct\u0074"`},
	} {
		b.Run(v.name, func(b *testing.B) {
			srv := serve.NewServer(serve.Config{})
			defer srv.Close()
			warm := buildServeBatch(pairs, len(pairs))
			if err := srv.ServeLines(context.Background(), bytes.NewReader(warm), io.Discard); err != nil {
				b.Fatal(err)
			}
			var buf bytes.Buffer
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				fmt.Fprintf(&buf, `{"id":%d,"op":%s,"design":"waw+wap","width":8,"height":8,"src":{"x":%d,"y":%d},"dst":{"x":%d,"y":%d}}`+"\n",
					i+1, v.op, p[0].X, p[0].Y, p[1].X, p[1].Y)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := srv.ServeLines(context.Background(), bytes.NewReader(buf.Bytes()), io.Discard); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if st := srv.Stats(); st.Errors != 0 || st.Queries != uint64(len(pairs)+b.N) {
				b.Fatalf("%d bounds answered with %d failed lines, want %d and 0", st.Queries, st.Errors, len(pairs)+b.N)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
		})
	}
	b.Run("overload-storm", func(b *testing.B) {
		srv := serve.NewServer(serve.Config{MaxInflight: 1})
		defer srv.Close()
		// A load curve far longer than any benchmark run holds the one
		// admission slot until its context is cancelled; it is sent again if
		// one of the probes below held the slot when it was read.
		ctx, cancel := context.WithCancel(context.Background())
		held := make(chan struct{})
		go func() {
			defer close(held)
			const hold = `{"id":1,"op":"scenario","spec":{"name":"hold","mode":"load-curve","width":4,"height":4,"design":"regular","seed":1,"traffic":{"rates":[20],"warmup_cycles":0,"measure_cycles":1000000000000}}}` + "\n"
			for ctx.Err() == nil {
				var out bytes.Buffer
				if err := srv.ServeLines(ctx, strings.NewReader(hold), &out); err == nil && !strings.Contains(out.String(), `"code":"overloaded"`) {
					b.Errorf("the holding scenario ended: %s", out.String())
					return
				}
			}
		}()
		defer func() {
			cancel()
			<-held
		}()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			var out bytes.Buffer
			if err := srv.ServeLines(context.Background(), strings.NewReader(`{"op":"ping"}`+"\n"), &out); err != nil {
				b.Fatal(err)
			}
			if strings.Contains(out.String(), `"code":"overloaded"`) {
				break
			}
			if time.Now().After(deadline) {
				b.Fatalf("the admission slot was never taken; last probe answered %s", out.String())
			}
		}
		before := srv.Stats().Rejected
		line := buildServeBatch(pairs, len(pairs))
		b.SetBytes(int64(len(line)))
		b.ReportAllocs()
		b.ResetTimer()
		if err := srv.ServeLines(context.Background(), &repeatReader{line: line, n: b.N}, io.Discard); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if got := srv.Stats().Rejected - before; got != uint64(b.N) {
			b.Fatalf("%d of %d storm lines were rejected", got, b.N)
		}
	})
	b.Run("wcet-batch-warm", func(b *testing.B) {
		srv := serve.NewServer(serve.Config{})
		defer srv.Close()
		d := mesh.MustDim(8, 8)
		nodes := d.AllNodes()
		buildWCET := func(queries int) []byte {
			var buf bytes.Buffer
			const perLine = 65536
			for q := 0; q < queries; {
				n := min(perLine, queries-q)
				buf.WriteString(`{"id":1,"op":"wcet-batch","design":"waw+wap","width":8,"height":8,"workload":"a2time","queries":[`)
				for i := 0; i < n; i++ {
					c := nodes[(q+i)%len(nodes)]
					if i > 0 {
						buf.WriteByte(',')
					}
					fmt.Fprintf(&buf, "[%d,%d]", c.X, c.Y)
				}
				buf.WriteString("]}\n")
				q += n
			}
			return buf.Bytes()
		}
		if err := srv.ServeLines(context.Background(), bytes.NewReader(buildWCET(len(nodes))), io.Discard); err != nil {
			b.Fatal(err)
		}
		in := buildWCET(b.N)
		b.ReportAllocs()
		b.ResetTimer()
		if err := srv.ServeLines(context.Background(), bytes.NewReader(in), io.Discard); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	})
}

// BenchmarkTopology compares the cycle-accurate engine's per-cycle cost
// across the three topologies on the same 8x8 endpoint grid under identical
// sustained uniform-random load. The torus pays for wrap-aware route walks;
// the concentrated mesh steps a 2x2 router grid carrying the full 64-core
// traffic, so its per-cycle cost reflects 16 cores multiplexed per router.
// The cmesh-wctt sub-benchmark tracks the analytical path on the topology
// that has one (the torus is simulation-only).
func BenchmarkTopology(b *testing.B) {
	d := mesh.MustDim(8, 8)
	for _, tc := range []struct {
		name string
		topo mesh.TopoSpec
	}{
		{"mesh", mesh.TopoSpec{}},
		{"torus", mesh.TopoSpec{Kind: mesh.TopoTorus}},
		{"cmesh", mesh.TopoSpec{Kind: mesh.TopoCMesh, Conc: 4}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := network.DefaultConfig(d, network.DesignWaWWaP)
			cfg.Topo = tc.topo
			net := network.MustNew(cfg)
			gen, err := traffic.NewUniformRandom(d, 3, 5, traffic.RequestPayloadBits, 1<<30)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, msg := range gen.Tick(net.Cycle()) {
					if _, err := net.Send(msg); err != nil {
						b.Fatal(err)
					}
				}
				net.Step()
			}
			b.ReportMetric(float64(net.TotalInjectedFlits())/float64(b.N), "flits/cycle")
		})
	}
	b.Run("cmesh-wctt", func(b *testing.B) {
		p := analysis.DefaultParams(d)
		p.Topo = mesh.TopoSpec{Kind: mesh.TopoCMesh, Conc: 4}
		m := analysis.MustNewModel(p)
		var maxWCTT uint64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, err := m.SummarizeOneFlitWCTT(network.DesignWaWWaP)
			if err != nil {
				b.Fatal(err)
			}
			maxWCTT = s.Max
		}
		b.ReportMetric(float64(maxWCTT), "cmesh-8x8-max-cycles")
	})
}
