package scenario

import (
	"context"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/flit"
	"repro/internal/manycore"
	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/stats"
	"repro/internal/traffic"
	"repro/internal/wcet"
	"repro/internal/workload"
)

// Default budgets and intensities applied when the spec leaves the
// corresponding field zero.
const (
	defaultSimCycles      = 5_000_000
	defaultManycoreCycles = 50_000_000
	defaultHotspotRate    = 30 // percent per node per cycle
	defaultUniformRate    = 10 // messages per node per 1000 cycles
	defaultPermInterval   = 100
	defaultSimMessages    = 2000
	defaultPermRounds     = 10

	// Load-curve windows: per rate point, warmup cycles are simulated and
	// discarded, measurement cycles contribute samples, and the network is
	// then given one more measurement window to drain in-flight messages.
	defaultLoadCurveWarmup  = 2_000
	defaultLoadCurveMeasure = 10_000
)

// defaultLoadCurveRates is the injection-rate ladder (messages per node per
// 1000 cycles) swept when the spec lists none: log-ish spacing through the
// region where mesh NoCs under uniform-random traffic transition from
// contention-free latency to saturation.
var defaultLoadCurveRates = []int{25, 50, 100, 150, 200, 300, 400, 500}

// Execute runs one concrete scenario to completion and returns its Result.
// Execution is deterministic: the same spec always yields the same result,
// which is what lets the sweep engine run scenarios in any order on any
// number of workers.
func Execute(s Spec) (Result, error) {
	return ExecuteContext(context.Background(), s)
}

// ExecuteContext is Execute with a cancellation context: modes with inner
// parallel or long-running loops — the all-pairs summary of ModeWCTT, which
// polls the context once per row of sources, the Table III map of
// ModeWCETMap, and the cycle-accurate runs of ModeSimulate and
// ModeLoadCurve, which poll it every few thousand simulated cycles — abandon
// undone work and return ctx's error once ctx is cancelled. The sweep engine threads its
// run context through here, so cancelling a sweep stops scenarios
// mid-flight just like it stops dispatching new ones.
func ExecuteContext(ctx context.Context, s Spec) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	d, err := s.Dim()
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Name:   s.Name,
		Mode:   s.Mode.String(),
		Dim:    d.String(),
		Design: s.Design.String(),
	}
	if ts, err := s.TopoSpec(); err == nil && ts.Kind != mesh.TopoMesh {
		res.Topology = ts.String()
	}
	switch s.Mode {
	case ModeWCTT:
		err = executeWCTT(ctx, s, d, &res)
	case ModeSimulate:
		res.Seed = s.Seed
		err = executeSimulate(ctx, s, d, &res)
	case ModeManycore:
		res.Workload = s.Workload
		err = executeManycore(s, d, &res)
	case ModeParallelWCET:
		res.Placement = placementName(s)
		res.MaxPacketFlits = s.MaxPacketFlits
		err = executeParallelWCET(s, d, &res)
	case ModeWCETMap:
		res.Workload = s.Workload
		err = executeWCETMap(ctx, s, d, &res)
	case ModeLoadCurve:
		res.Seed = s.Seed
		err = executeLoadCurve(ctx, s, d, &res)
	default:
		err = fmt.Errorf("scenario: unknown mode %v", s.Mode)
	}
	if err != nil {
		return Result{}, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	return res, nil
}

func executeWCTT(ctx context.Context, s Spec, d mesh.Dim, res *Result) error {
	p := analysis.DefaultParams(d)
	p.Topo, _ = s.TopoSpec() // Validate already vetted the name
	m, err := acquireModel(p)
	if err != nil {
		return err
	}
	sum, err := m.SummarizeOneFlitWCTTContext(ctx, s.Design)
	if err != nil {
		return err
	}
	res.WCTT = &WCTTResult{
		MaxCycles:  sum.Max,
		MeanCycles: sum.Mean,
		MinCycles:  sum.Min,
		Flows:      sum.Flows,
	}
	return nil
}

// simConfig is the network configuration of a cycle-accurate scenario: the
// default platform for its mesh, topology and design.
func simConfig(s Spec, d mesh.Dim) network.Config {
	cfg := network.DefaultConfig(d, s.Design)
	cfg.Topo, _ = s.TopoSpec() // Validate already vetted the name
	return cfg
}

func executeSimulate(ctx context.Context, s Spec, d mesh.Dim, res *Result) error {
	net, err := network.New(simConfig(s, d))
	if err != nil {
		return err
	}
	gen, err := buildGenerator(s, d)
	if err != nil {
		return err
	}
	maxCycles := s.MaxCycles
	if maxCycles == 0 {
		maxCycles = defaultSimCycles
	}
	injected, done, err := traffic.DriveContext(ctx, net, gen, maxCycles)
	if err != nil {
		return err
	}
	if !done {
		return fmt.Errorf("simulation did not complete within %d cycles", maxCycles)
	}
	agg := net.AggregateLatency()
	res.Sim = &SimResult{
		Injected:      injected,
		Delivered:     net.TotalDeliveredMessages(),
		Cycles:        net.Cycle(),
		MinLatency:    agg.Min(),
		MeanLatency:   agg.Mean(),
		MaxLatency:    agg.Max(),
		InjectedFlits: net.TotalInjectedFlits(),
	}
	return nil
}

// buildGenerator instantiates the traffic generator a ModeSimulate spec
// describes, applying the documented defaults for zero fields.
func buildGenerator(s Spec, d mesh.Dim) (traffic.Generator, error) {
	t := s.Traffic
	payload := t.PayloadBits
	if payload == 0 {
		payload = traffic.RequestPayloadBits
	}
	messages := t.Messages
	if messages == 0 {
		messages = defaultSimMessages
	}
	switch t.Pattern {
	case "", "hotspot":
		rate := t.Rate
		if rate == 0 {
			rate = defaultHotspotRate
		}
		return traffic.NewHotspot(d, t.Target, s.Seed, rate, payload, messages)
	case "uniform":
		rate := t.Rate
		if rate == 0 {
			rate = defaultUniformRate
		}
		return traffic.NewUniformRandom(d, s.Seed, rate, payload, messages)
	case "transpose", "bitcomp", "neighbor", "tornado":
		perms := map[string]traffic.Permutation{
			"transpose": traffic.Transpose,
			"bitcomp":   traffic.BitComplement,
			"neighbor":  traffic.NearestNeighbor,
			"tornado":   traffic.Tornado,
		}
		interval := t.Rate
		if interval == 0 {
			interval = defaultPermInterval
		}
		rounds := t.Messages
		if rounds == 0 {
			rounds = defaultPermRounds
		}
		return traffic.NewPermutation(d, perms[t.Pattern], payload, rounds, uint64(interval))
	default:
		return nil, fmt.Errorf("unknown traffic pattern %q", t.Pattern)
	}
}

// executeLoadCurve runs the saturation study of ModeLoadCurve: every
// injection rate drives sustained uniform-random traffic through a warmup
// window (discarded), a measurement window (sampled) and a bounded drain.
// One network is constructed for the whole curve and rewound in place
// between rate points — Network.Reset makes a reused network
// indistinguishable from a fresh one, so the curve is byte-identical to the
// build-per-point implementation. Execution is single-threaded and seeded,
// so the produced curve is deterministic; the sweep engine parallelises
// across scenarios, not within one.
func executeLoadCurve(ctx context.Context, s Spec, d mesh.Dim, res *Result) error {
	t := s.Traffic
	rates := t.Rates
	if len(rates) == 0 {
		rates = defaultLoadCurveRates
	}
	warmup := t.WarmupCycles
	if warmup == 0 {
		warmup = defaultLoadCurveWarmup
	}
	measure := t.MeasureCycles
	if measure == 0 {
		measure = defaultLoadCurveMeasure
	}
	payload := t.PayloadBits
	if payload == 0 {
		payload = traffic.RequestPayloadBits
	}
	net, err := network.New(simConfig(s, d))
	if err != nil {
		return err
	}
	lc := &LoadCurveResult{WarmupCycles: warmup, MeasureCycles: measure}
	for i, rate := range rates {
		if err := ctx.Err(); err != nil {
			return err
		}
		if i > 0 {
			net.Reset()
		}
		pt, err := runLoadCurvePoint(ctx, net, s, d, rate, warmup, measure, payload)
		if err != nil {
			return fmt.Errorf("load-curve rate %d: %w", rate, err)
		}
		lc.Points = append(lc.Points, pt)
	}
	res.LoadCurve = lc
	return nil
}

func runLoadCurvePoint(ctx context.Context, net *network.Network, s Spec, d mesh.Dim, rate, warmup, measure, payload int) (LoadCurvePoint, error) {
	// The generator is open-loop: the message budget just needs to exceed
	// anything the windows can produce.
	gen, err := traffic.NewUniformRandom(d, s.Seed, rate, payload, int(^uint32(0)>>1))
	if err != nil {
		return LoadCurvePoint{}, err
	}
	traffic.AttachNetworkPool(gen, net)
	var lat, netLat stats.Sampler
	var delivered, deliveredInWindow uint64
	start, stop := uint64(warmup), uint64(warmup+measure)
	net.DeliveryHook = func(msg *flit.Message, at uint64) {
		// Throughput is the steady-state accepted rate: deliveries whose
		// completion falls inside the measurement window, regardless of
		// when the message was created.
		if at >= start && at < stop {
			deliveredInWindow++
		}
		// Latency samples cover the messages created inside the window
		// (completions during the drain included); warmup transients are
		// discarded.
		if msg.CreatedAt < start {
			return
		}
		delivered++
		lat.AddUint(msg.DeliveredAt - msg.CreatedAt)
		netLat.AddUint(msg.DeliveredAt - msg.InjectedAt)
	}
	offered := 0
	for cycle := 0; cycle < warmup+measure; cycle++ {
		if cycle&0xFFF == 0 {
			if err := ctx.Err(); err != nil {
				return LoadCurvePoint{}, err
			}
		}
		for _, msg := range gen.Tick(net.Cycle()) {
			if _, err := net.Send(msg); err != nil {
				return LoadCurvePoint{}, err
			}
			if cycle >= warmup {
				offered++
			}
		}
		net.Step()
	}
	// Injection stops; give in-flight messages one more measurement window
	// to complete. Past saturation the network will not drain — the
	// latency samples are then censored to the delivered subset, which the
	// Drained flag makes visible.
	drained, err := net.RunUntilDrainedContext(ctx, measure)
	if err != nil {
		return LoadCurvePoint{}, err
	}
	return LoadCurvePoint{
		RatePerMil:         rate,
		Offered:            offered,
		Delivered:          delivered,
		Throughput:         float64(deliveredInWindow) / float64(d.Nodes()) / float64(measure) * 1000,
		MinLatency:         lat.Min(),
		MeanLatency:        lat.Mean(),
		MaxLatency:         lat.Max(),
		StdDevLatency:      lat.StdDev(),
		MeanNetworkLatency: netLat.Mean(),
		MaxNetworkLatency:  netLat.Max(),
		Drained:            drained,
	}, nil
}

func executeManycore(s Spec, d mesh.Dim, res *Result) error {
	bench, err := workload.BenchmarkByName(s.Workload)
	if err != nil {
		return err
	}
	if s.Scale > 1 {
		bench = manycore.ScaleBenchmark(bench, s.Scale)
	}
	sys, err := manycore.New(manycore.DefaultConfig(d, s.Design))
	if err != nil {
		return err
	}
	if err := sys.AssignEverywhere(bench); err != nil {
		return err
	}
	maxCycles := s.MaxCycles
	if maxCycles == 0 {
		maxCycles = defaultManycoreCycles
	}
	if !sys.Run(maxCycles) {
		return fmt.Errorf("workload %q did not finish within %d cycles", s.Workload, maxCycles)
	}
	var transactions uint64
	for _, n := range d.AllNodes() {
		st, err := sys.CoreStats(n)
		if err != nil {
			return err
		}
		transactions += st.MemoryTransactions
	}
	res.Manycore = &ManycoreResult{
		MakespanCycles:  sys.MakespanCycles(),
		MemTransactions: transactions,
		Cores:           d.Nodes(),
	}
	return nil
}

func placementName(s Spec) string {
	if s.Placement == "" {
		return "P0"
	}
	return s.Placement
}

// platformFor adapts the paper's default WCET platform to the spec's mesh
// (the memory controller stays at R(0,0)).
func platformFor(d mesh.Dim) wcet.Platform {
	p := wcet.DefaultPlatform()
	p.Dim = d
	return p
}

func executeParallelWCET(s Spec, d mesh.Dim, res *Result) error {
	pl, err := workload.PlacementByName(d, placementName(s))
	if err != nil {
		return err
	}
	// Figure 2a's per-size points, Figure 2b's per-placement points and the
	// parallel-wcet sweep scenarios of one (mesh, L) share one engine.
	eng, err := SharedEngine(d, s.MaxPacketFlits)
	if err != nil {
		return err
	}
	cycles, err := eng.ParallelWCET(s.Design, workload.ThreeDPathPlanning(), pl)
	if err != nil {
		return err
	}
	res.WCET = &WCETResult{Cycles: cycles, Millis: eng.Platform().CyclesToMillis(cycles)}
	return nil
}

func executeWCETMap(ctx context.Context, s Spec, d mesh.Dim, res *Result) error {
	eng, err := SharedEngine(d, 0)
	if err != nil {
		return err
	}
	if s.Workload == "" {
		// The inner per-core loop honours ctx, so cancelling a sweep
		// interrupts even a single large Table III map.
		m, err := eng.TableIIIParallel(ctx, workload.EEMBCAutomotive(), 0)
		if err != nil {
			return err
		}
		// The normalised suite map is a ratio of both designs; label it
		// as such instead of with the (ignored) spec design.
		res.Design = "WaW+WaP/regular"
		res.WCETMap = m
		return nil
	}
	bench, err := workload.BenchmarkByName(s.Workload)
	if err != nil {
		return err
	}
	// One compiled engine serves the whole map: the per-core UBDs come from
	// the engine's AllCoresRoundTripUBD rows (two grouped BatchMessageWCTT
	// lists each) and every cell is pure arithmetic — bit-identical to the
	// former per-core BenchmarkWCET loop. WCETMap runs the rows to the end
	// whatever ctx says; ctx is asked once before.
	if err := ctx.Err(); err != nil {
		return err
	}
	vals, err := eng.WCETMap(s.Design, bench)
	if err != nil {
		return err
	}
	out := make([][]float64, d.Height)
	for y := range out {
		out[y] = make([]float64, d.Width)
	}
	for _, n := range d.AllNodes() {
		out[n.Y][n.X] = float64(vals[d.Index(n)])
	}
	res.WCETMap = out
	return nil
}
