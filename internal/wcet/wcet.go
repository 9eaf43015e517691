// Package wcet implements the WCET computation mode of the paper's
// evaluation platform (after Paolieri et al. [17]): at analysis time every
// NoC access of a task is inflated by the Upper-Bound Delay (UBD) of its
// flow, i.e. the analytical worst-case traversal time of the request plus
// the reply plus the memory service latency. The package produces the
// per-core WCET estimates behind Table III (single-threaded EEMBC kernels)
// and Figure 2 (the 16-core 3DPP avionics application under different
// maximum packet sizes and placements).
package wcet

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/flit"
	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/sweep/pool"
	"repro/internal/workload"
)

// Platform describes the many-core platform of the evaluation: an N x M mesh
// with a single memory controller, the link parameters, the memory service
// latency and the clock frequency used to report WCETs in milliseconds.
type Platform struct {
	Dim    mesh.Dim
	Memory mesh.Node
	Link   flit.LinkConfig
	// MemoryLatency is the memory controller service latency in cycles,
	// charged once per round trip on top of the two traversals.
	MemoryLatency int
	// RouterLatency and HeaderOverhead parameterise the analytical WCTT
	// models (see the analysis package).
	RouterLatency  int
	HeaderOverhead int
	// ClockMHz converts cycles to wall-clock time for Figure 2.
	ClockMHz int
	// RequestBits and ReplyBits are the payload sizes of a memory read
	// transaction; EvictionBits/AckBits those of a write-back transaction.
	RequestBits  int
	ReplyBits    int
	EvictionBits int
	AckBits      int
}

// DefaultPlatform returns the paper's 64-core platform: an 8x8 mesh, the
// memory controller attached to R(0,0), 132-bit links, 4-flit cache-line
// replies and a 500 MHz clock.
func DefaultPlatform() Platform {
	return Platform{
		Dim:            mesh.MustDim(8, 8),
		Memory:         mesh.Node{X: 0, Y: 0},
		Link:           flit.DefaultLinkConfig(),
		MemoryLatency:  30,
		RouterLatency:  1,
		HeaderOverhead: 1,
		ClockMHz:       500,
		RequestBits:    48,
		ReplyBits:      512,
		EvictionBits:   512,
		AckBits:        16,
	}
}

// Validate checks the platform description.
func (p Platform) Validate() error {
	if err := p.Dim.Validate(); err != nil {
		return err
	}
	if !p.Dim.Contains(p.Memory) {
		return fmt.Errorf("wcet: memory controller %v outside %v mesh", p.Memory, p.Dim)
	}
	if err := p.Link.Validate(); err != nil {
		return err
	}
	if p.MemoryLatency < 0 {
		return fmt.Errorf("wcet: negative memory latency %d", p.MemoryLatency)
	}
	if p.ClockMHz <= 0 {
		return fmt.Errorf("wcet: clock frequency must be positive, got %d MHz", p.ClockMHz)
	}
	if p.RequestBits <= 0 || p.ReplyBits <= 0 || p.EvictionBits <= 0 || p.AckBits <= 0 {
		return fmt.Errorf("wcet: message payload sizes must be positive")
	}
	return nil
}

// ModelParams returns the parameters of the platform's analytical WCTT
// model, optionally overriding the network maximum packet size (the L
// parameter of Figure 2a; 0 keeps the platform default).
func (p Platform) ModelParams(maxPacketFlits int) analysis.Params {
	params := analysis.Params{
		Dim:            p.Dim,
		Link:           p.Link,
		RouterLatency:  p.RouterLatency,
		HeaderOverhead: p.HeaderOverhead,
	}
	if maxPacketFlits > 0 {
		params.Link.MaxPacketFlits = maxPacketFlits
	}
	return params
}

// CyclesToMillis converts a cycle count to milliseconds at the platform
// clock.
func (p Platform) CyclesToMillis(cycles uint64) float64 {
	return float64(cycles) / (float64(p.ClockMHz) * 1000.0)
}

// TableIIIParallel compiles the platform's engine and computes Table III on
// it (see Engine.TableIIIParallel); a caller that already holds the engine
// calls that directly.
func (p Platform) TableIIIParallel(ctx context.Context, benchmarks []workload.Benchmark, jobs int) ([][]float64, error) {
	e, err := p.Engine()
	if err != nil {
		return nil, err
	}
	return e.TableIIIParallel(ctx, benchmarks, jobs)
}

// TableIIIParallel computes the per-core normalised WCET map of Table III:
// for every node of the mesh, the geometric structure of the paper is
// reproduced by averaging, over the given benchmark suite, the ratio
// WCET(WaW+WaP) / WCET(regular). Values above 1 mean the regular design is
// better for that core; values far below 1 mean WaW+WaP is better. The
// result is indexed [y][x].
//
// The per-core loop runs on the sweep worker pool with jobs workers (values
// < 1 select GOMAXPROCS). Every core's cell — an average over the benchmark
// suite, accumulated in the suite's fixed order — is computed independently
// and written into its index-addressed slot, so the produced map is
// bit-identical for one worker and for many;
// TestTableIIIParallelDeterminism pins that. Every benchmark is validated
// once up front and each core's two round-trip UBDs are computed once and
// reused across the whole suite (they do not depend on the benchmark), so a
// cell is pure arithmetic. Cancelling ctx abandons the cores not yet
// dispatched and returns ctx's error, mirroring sweep.Run.
func (e *Engine) TableIIIParallel(ctx context.Context, benchmarks []workload.Benchmark, jobs int) ([][]float64, error) {
	if len(benchmarks) == 0 {
		return nil, fmt.Errorf("wcet: empty benchmark suite")
	}
	for _, b := range benchmarks {
		if err := b.Validate(); err != nil {
			return nil, err
		}
	}
	reg, err := e.memoryRoundTrips(ctx, network.DesignRegular)
	if err != nil {
		return nil, err
	}
	waw, err := e.memoryRoundTrips(ctx, network.DesignWaWWaP)
	if err != nil {
		return nil, err
	}
	dim := e.p.Dim
	table := make([][]float64, dim.Height)
	for y := range table {
		table[y] = make([]float64, dim.Width)
	}
	cores := dim.AllNodes()
	errs := make([]error, len(cores))
	pool.ForEach(ctx, len(cores), jobs, func(i int) {
		if err := ctx.Err(); err != nil {
			errs[i] = fmt.Errorf("wcet: core %v skipped: %w", cores[i], err)
			return
		}
		core := cores[i]
		sum := 0.0
		for _, b := range benchmarks {
			r := e.cellWCET(reg, i, b)
			w := e.cellWCET(waw, i, b)
			if r == 0 {
				errs[i] = fmt.Errorf("wcet: zero regular WCET for %s at %v", b.Name, core)
				return
			}
			sum += float64(w) / float64(r)
		}
		table[core.Y][core.X] = sum / float64(len(benchmarks))
	}, func(i int) {
		errs[i] = fmt.Errorf("wcet: core %v skipped: %w", cores[i], ctx.Err())
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return table, nil
}

// farthestPeer returns the node of the placement that is farthest from n
// (excluding n itself); used to bound neighbour-exchange phases.
func farthestPeer(placement workload.Placement, n mesh.Node) mesh.Node {
	best := n
	bestDist := -1
	for _, other := range placement.Nodes {
		if other == n {
			continue
		}
		if d := other.ManhattanDistance(n); d > bestDist {
			bestDist = d
			best = other
		}
	}
	return best
}

// ParallelWCET returns the WCET estimate, in cycles, of a fork/join parallel
// application mapped onto the mesh by the given placement, under the given
// design and the network maximum packet size the engine was compiled with.
// Each phase completes when its slowest thread completes; the estimate is
// the sum over phases of that critical path, with every message exchange
// inflated by its round-trip UBD (memory exchanges also pay the memory
// service latency).
func (e *Engine) ParallelWCET(design network.Design, app workload.ParallelApp, placement workload.Placement) (uint64, error) {
	p, m := e.p, e.model
	if err := app.Validate(); err != nil {
		return 0, err
	}
	if err := placement.Validate(p.Dim); err != nil {
		return 0, err
	}
	if len(placement.Nodes) < app.Threads {
		return 0, fmt.Errorf("wcet: placement %s has %d nodes for %d threads", placement.Name, len(placement.Nodes), app.Threads)
	}
	master := placement.Nodes[0]
	var total uint64
	for _, phase := range app.Phases {
		var worst uint64
		for t := 0; t < app.Threads; t++ {
			node := placement.Nodes[t]
			threadTime := phase.ComputeCycles
			if phase.MessagesPerThread > 0 {
				var peer mesh.Node
				extra := uint64(0)
				switch phase.Target {
				case workload.TargetMemory:
					peer = p.Memory
					extra = uint64(p.MemoryLatency)
				case workload.TargetMaster:
					peer = master
				case workload.TargetNeighbors:
					peer = farthestPeer(placement, node)
				default:
					return 0, fmt.Errorf("wcet: unknown communication target %v", phase.Target)
				}
				ubd, err := m.RoundTripUBD(design, node, peer, phase.RequestBits, phase.ReplyBits)
				if err != nil {
					return 0, err
				}
				threadTime += uint64(phase.MessagesPerThread) * (ubd + extra)
			}
			if threadTime > worst {
				worst = threadTime
			}
		}
		total += worst
	}
	return total, nil
}

// Figure2aPoint is one group of bars of Figure 2(a): the WCET estimates (in
// milliseconds) of the application under the regular and WaW+WaP designs for
// one maximum packet size.
type Figure2aPoint struct {
	MaxPacketFlits int
	RegularMs      float64
	WaWWaPMs       float64
}

// Improvement returns the regular/WaW+WaP WCET ratio (values above 1 mean
// WaW+WaP is better).
func (p Figure2aPoint) Improvement() float64 {
	if p.WaWWaPMs == 0 {
		return 0
	}
	return p.RegularMs / p.WaWWaPMs
}

// Figure2bPoint is one group of bars of Figure 2(b): the WCET estimates (in
// milliseconds) of the application under one placement, for the L1 (one-flit
// maximum packet) configuration.
type Figure2bPoint struct {
	Placement string
	RegularMs float64
	WaWWaPMs  float64
}

// Variability returns max/min of the given per-placement WCETs; the paper
// uses it to show that WaW+WaP bounds the impact of placement (about 20%
// variability) whereas the regular design varies by more than 6x.
func Variability(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	minV, maxV := values[0], values[0]
	for _, v := range values[1:] {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	if minV == 0 {
		return 0
	}
	return maxV / minV
}
