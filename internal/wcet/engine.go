package wcet

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/workload"
)

// Engine is a Platform compiled for repeated WCET analysis: the platform is
// validated once, the analytical WCTT model (its flat per-node
// contender/share arrays) is built once, and the per-core memory
// round-trip UBDs are computed once per design and then served from flat
// per-core-index slices, so a table cell is pure arithmetic.
//
// Engines are immutable after compilation (the per-design UBD slices are
// filled once, deterministically, and never change after) and safe for
// concurrent use. Compiling returns a new engine every time and this package
// remembers none: whoever compiles an engine owns it, and a caller that
// analyses one platform repeatedly holds on to its engine. Engines are shared
// in one place, the scenario layer's bounded engine cache
// (scenario.SharedEngine).
type Engine struct {
	p     Platform
	model *analysis.Model // built for ModelParams of the compile's maximum packet size

	// memUBD[design] holds the per-core memory round-trip UBDs of one
	// design once they are computed; building is the one-slot lock held
	// while any design's are.
	memUBD   [4]atomic.Pointer[memoryUBDs]
	building chan struct{}
}

// memoryUBDs is, for one design, the load (request/reply) and eviction
// (write-back/ack) round-trip UBDs of every core, indexed by mesh.Dim.Index.
type memoryUBDs struct {
	load  []uint64
	evict []uint64
}

// Engine compiles the analysis engine of the platform with its default
// maximum packet size.
func (p Platform) Engine() (*Engine, error) { return p.CompileEngine(0, analysis.NewModel) }

// CompileEngine compiles the analysis engine with the network maximum packet
// size overridden to maxPacketFlits (the L parameter of Figure 2a; 0 keeps
// the platform default): the platform is validated and the model of
// ModelParams(maxPacketFlits) obtained from model (analysis.NewModel, or
// the scenario layer's model cache).
func (p Platform) CompileEngine(maxPacketFlits int, model func(analysis.Params) (*analysis.Model, error)) (*Engine, error) {
	if maxPacketFlits < 0 {
		return nil, fmt.Errorf("wcet: negative maximum packet size %d", maxPacketFlits)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m, err := model(p.ModelParams(maxPacketFlits))
	if err != nil {
		return nil, err
	}
	return &Engine{p: p, model: m, building: make(chan struct{}, 1)}, nil
}

// Platform returns the platform the engine was compiled from.
func (e *Engine) Platform() Platform { return e.p }

// Model returns the engine's analytical WCTT model.
func (e *Engine) Model() *analysis.Model { return e.model }

// memoryRoundTrips returns the per-core memory round-trip UBD slices of the
// design, computing them on first use with one AllCoresRoundTripUBD call for
// the load and one for the eviction round trip, each bit-identical to the
// per-core RoundTripUBD loop (TestRowKernelsMatchPairwise and the wcet
// reference equivalence suite). One caller at a time computes, holding
// e.building; the others wait for it or for the end of their own ctx. Only
// complete slices are kept: a caller whose ctx ends first returns its error
// and leaves the computation to the next caller, so a short deadline never
// poisons the shared engine.
func (e *Engine) memoryRoundTrips(ctx context.Context, design network.Design) (*memoryUBDs, error) {
	if design < 0 || int(design) >= len(e.memUBD) {
		return nil, fmt.Errorf("analysis: unknown design %v", design)
	}
	slot := &e.memUBD[design]
	if u := slot.Load(); u != nil {
		return u, nil
	}
	select {
	case e.building <- struct{}{}:
		defer func() { <-e.building }()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if u := slot.Load(); u != nil {
		return u, nil
	}
	load, err := e.model.AllCoresRoundTripUBD(ctx, design, e.p.Memory, e.p.RequestBits, e.p.ReplyBits, nil)
	if err != nil {
		return nil, err
	}
	evict, err := e.model.AllCoresRoundTripUBD(ctx, design, e.p.Memory, e.p.EvictionBits, e.p.AckBits, nil)
	if err != nil {
		return nil, err
	}
	u := &memoryUBDs{load: load, evict: evict}
	slot.Store(u)
	return u, nil
}

// BenchmarkWCET returns the WCET estimate, in cycles, of a single-threaded
// benchmark on the core at node `core` under the given design: the
// benchmark's compute cycles plus one UBD-inflated round trip per memory
// access and per eviction. The benchmark is validated here; table loops that
// validate their suite up front use cellWCET directly. ctx bounds the first
// call's computation of the design's UBD rows; when it ends first, the call
// returns its error.
func (e *Engine) BenchmarkWCET(ctx context.Context, design network.Design, core mesh.Node, b workload.Benchmark) (uint64, error) {
	if err := b.Validate(); err != nil {
		return 0, err
	}
	if !e.p.Dim.Contains(core) {
		return 0, fmt.Errorf("wcet: core %v outside %v mesh", core, e.p.Dim)
	}
	u, err := e.memoryRoundTrips(ctx, design)
	if err != nil {
		return 0, err
	}
	return e.cellWCET(u, e.p.Dim.Index(core), b), nil
}

// WCETMap returns the WCET estimate of benchmark b on EVERY core of the
// platform under the given design, indexed by mesh.Dim.Index. The benchmark
// is validated once and each cell is pure arithmetic over the precomputed
// round-trip UBDs — the whole map costs the design's two AllCoresRoundTripUBD
// rows (amortised to zero once the engine is warm) plus N multiplications,
// and every cell equals the corresponding BenchmarkWCET call exactly. The
// scenario wcet-map mode runs on it. It takes no context: the rows it may
// compute run to completion.
func (e *Engine) WCETMap(design network.Design, b workload.Benchmark) ([]uint64, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	u, err := e.memoryRoundTrips(context.Background(), design)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, e.p.Dim.Nodes())
	for i := range out {
		out[i] = e.cellWCET(u, i, b)
	}
	return out, nil
}

// cellWCET is the per-cell arithmetic of the WCET tables: pure integer math
// over the precomputed UBDs, zero validation, zero allocation. coreIdx must
// be a valid dense node index and b a validated benchmark.
func (e *Engine) cellWCET(u *memoryUBDs, coreIdx int, b workload.Benchmark) uint64 {
	mem := uint64(e.p.MemoryLatency)
	wcet := b.ComputeCycles()
	wcet += b.MemoryAccesses() * (u.load[coreIdx] + mem)
	wcet += b.Evictions() * (u.evict[coreIdx] + mem)
	return wcet
}
