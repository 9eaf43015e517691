package wcet

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/workload"
)

// Engine is a Platform compiled for repeated WCET analysis: the platform is
// validated once, the analytical WCTT model (with its flat weight tables and
// per-node contender/share arrays) is built once, and the per-core memory
// round-trip UBDs are computed once per design and then served from flat
// per-core-index slices. The pre-engine implementation revalidated the
// platform and rebuilt the full model for every (design, core, benchmark)
// cell — 2 x cores x benchmarks model constructions per Table III.
//
// Engines are immutable after compilation (the lazily filled per-design UBD
// slices are guarded by sync.Once and deterministic), safe for concurrent
// use, and cached per (Platform, maxPacketFlits) so Table III, Figure 2a/2b
// and the wcet-map sweep scenarios of one platform all share one model.
type Engine struct {
	p     Platform
	l     int // MaxPacketFlits override (the Figure 2a L parameter); 0 = platform default
	model *analysis.Model

	// memUBD[design] holds the per-core memory round-trip UBDs of one
	// design, filled on first use.
	memUBD [4]memoryUBDs
}

// memoryUBDs caches, for one design, the load (request/reply) and eviction
// (write-back/ack) round-trip UBDs of every core, indexed by mesh.Dim.Index.
type memoryUBDs struct {
	once  sync.Once
	load  []uint64
	evict []uint64
	err   error
}

// engineKey identifies a compiled engine: the full platform value plus the
// packet-size override. Platform is a flat comparable struct, so the cache
// key captures every parameter that could change a bound.
type engineKey struct {
	p Platform
	l int
}

// engineCache shares compiled engines process-wide; entries are immutable.
var engineCache sync.Map // engineKey -> *Engine

// engineHits and engineMisses count cache behaviour for the serve stats
// verb. A "miss" is a compile (two concurrent first callers both count: the
// loser's engine is discarded by LoadOrStore but its work really happened).
var engineHits, engineMisses atomic.Uint64

// EngineCacheStats reports the cumulative hit/miss counters of the compiled
// engine cache. The cache never evicts (engines are a few pointers plus one
// shared model, keyed by full platform value), so there is no eviction
// counter.
func EngineCacheStats() (hits, misses uint64) {
	return engineHits.Load(), engineMisses.Load()
}

// Engine returns the compiled analysis engine of the platform (with its
// default maximum packet size), validating the platform and building the
// analytical model only on the first call for a given platform value.
func (p Platform) Engine() (*Engine, error) { return p.EngineWithMaxPacket(0) }

// EngineWithMaxPacket is Engine with the network maximum packet size
// overridden to maxPacketFlits (the L parameter of Figure 2a); 0 keeps the
// platform default.
func (p Platform) EngineWithMaxPacket(maxPacketFlits int) (*Engine, error) {
	if maxPacketFlits < 0 {
		return nil, fmt.Errorf("wcet: negative maximum packet size %d", maxPacketFlits)
	}
	key := engineKey{p: p, l: maxPacketFlits}
	if cached, ok := engineCache.Load(key); ok {
		engineHits.Add(1)
		return cached.(*Engine), nil
	}
	engineMisses.Add(1)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m, err := p.model(maxPacketFlits)
	if err != nil {
		return nil, err
	}
	cached, _ := engineCache.LoadOrStore(key, &Engine{p: p, l: maxPacketFlits, model: m})
	return cached.(*Engine), nil
}

// CachedEngine returns the engine EngineWithMaxPacket would, only if it is
// already compiled (counted as a hit; a miss is left for the compiling call
// to count).
func (p Platform) CachedEngine(maxPacketFlits int) (*Engine, bool) {
	cached, ok := engineCache.Load(engineKey{p: p, l: maxPacketFlits})
	if !ok {
		return nil, false
	}
	engineHits.Add(1)
	return cached.(*Engine), true
}

// Platform returns the platform the engine was compiled from.
func (e *Engine) Platform() Platform { return e.p }

// Model returns the engine's shared analytical WCTT model.
func (e *Engine) Model() *analysis.Model { return e.model }

// memoryRoundTrips returns the per-core memory round-trip UBD slices of the
// design, computing them on first use. The computation is deterministic, so
// concurrent first callers race only on who stores the identical result.
//
// Each slice is filled by one AllCoresRoundTripUBD kernel call: two
// prefix-sharing row sweeps (request row towards the controller, reply row
// away from it) instead of a per-core route walk — O(N) for the whole
// precomputation, bit-identical to the per-pair RoundTripUBD loop it
// replaced (pinned by TestRowKernelsMatchPairwise and the wcet reference
// equivalence suite).
func (e *Engine) memoryRoundTrips(design network.Design) (*memoryUBDs, error) {
	if design < 0 || int(design) >= len(e.memUBD) {
		return nil, fmt.Errorf("analysis: unknown design %v", design)
	}
	u := &e.memUBD[design]
	u.once.Do(func() {
		u.load, u.err = e.model.AllCoresRoundTripUBD(design, e.p.Memory, e.p.RequestBits, e.p.ReplyBits, nil)
		if u.err != nil {
			return
		}
		u.evict, u.err = e.model.AllCoresRoundTripUBD(design, e.p.Memory, e.p.EvictionBits, e.p.AckBits, nil)
	})
	if u.err != nil {
		return nil, u.err
	}
	return u, nil
}

// BenchmarkWCET returns the WCET estimate, in cycles, of a single-threaded
// benchmark on the core at node `core` under the given design — the compiled
// counterpart of Platform.BenchmarkWCET. The benchmark is validated here;
// table loops that validate their suite up front use cellWCET directly.
func (e *Engine) BenchmarkWCET(design network.Design, core mesh.Node, b workload.Benchmark) (uint64, error) {
	if err := b.Validate(); err != nil {
		return 0, err
	}
	if !e.p.Dim.Contains(core) {
		return 0, fmt.Errorf("wcet: core %v outside %v mesh", core, e.p.Dim)
	}
	u, err := e.memoryRoundTrips(design)
	if err != nil {
		return 0, err
	}
	return e.cellWCET(u, e.p.Dim.Index(core), b), nil
}

// WCETMap returns the WCET estimate of benchmark b on EVERY core of the
// platform under the given design, indexed by mesh.Dim.Index. The benchmark
// is validated once and each cell is pure arithmetic over the kernel-
// precomputed round-trip UBDs — the whole map costs two O(N) row sweeps
// (amortised to zero once the engine is warm) plus N multiplications, and
// every cell equals the corresponding BenchmarkWCET call exactly. The
// scenario wcet-map mode runs on it.
func (e *Engine) WCETMap(design network.Design, b workload.Benchmark) ([]uint64, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	u, err := e.memoryRoundTrips(design)
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
