package scenario

import (
	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/mesh"
	"repro/internal/wcet"
)

// sharedCache is a bounded cache of immutable values built on demand: an LRU
// for the values, a singleflight group so a fan-in of first callers for one
// key builds the value once, and the constructor. It is the one place the
// lookup, coalesced build and insert sequence is written; the analytical
// models and the compiled WCET engines below are its two instances.
type sharedCache[K comparable, V any] struct {
	lru    *cache.LRU[K, V]
	flight cache.Group[K, V]
	build  func(K) (V, error)
}

// acquire returns the shared value for k, building it (once, even under
// concurrent first callers) on first use. A failed build is not cached.
func (c *sharedCache[K, V]) acquire(k K) (V, error) {
	if v, ok := c.lru.Get(k); ok {
		return v, nil
	}
	v, err, _ := c.flight.Do(k, func() (V, error) {
		// A caller that missed above while an earlier flight was landing
		// leads a new one; it finds that flight's value here.
		if v, ok := c.lru.Lookup(k); ok {
			return v, nil
		}
		v, err := c.build(k)
		if err == nil {
			c.lru.Put(k, v)
		}
		return v, err
	})
	return v, err
}

// modelCache shares analytical WCTT models per parameter set: a sweep over K
// designs of one mesh size (or a server answering WCTT queries for many
// meshes) builds the model — weight table, contender and output-share arrays
// — once and serves every scenario and query from it. Models are immutable
// and safe for concurrent readers, so entries are shared directly. Cache hits cannot change any result — the sweep determinism tests run the
// same grids with different worker counts (and therefore different hit
// patterns) and require byte-identical output.
//
// The cache is bounded: a server probed with thousands of distinct mesh
// sizes evicts cold models instead of accumulating them forever, and since
// nothing below this package remembers a model or its weight table, an
// evicted model is garbage as soon as its last reader lets go.
var modelCache = sharedCache[analysis.Params, *analysis.Model]{
	lru:   cache.NewLRU[analysis.Params, *analysis.Model](modelCacheCapacity, nil),
	build: analysis.NewModel,
}

// modelCacheCapacity bounds the retained models. A model's flat arrays are
// O(nodes); 128 entries cover every mesh of a large serve working set.
const modelCacheCapacity = 128

// acquireModel returns the shared analytical model for the given parameters.
func acquireModel(p analysis.Params) (*analysis.Model, error) { return modelCache.acquire(p) }

// SharedModel exposes the model cache to the serving layer: the serve
// daemon answers (design, mesh, src, dst, bytes) WCTT queries from exactly
// the models the sweep path uses, so a sweep warms the server and vice
// versa.
func SharedModel(p analysis.Params) (*analysis.Model, error) { return acquireModel(p) }

// CachedModel returns the shared model only if it is already built. The
// serve daemon answers a one-bound line on its connection's reader goroutine
// when this hits and hands the line to its bounded worker pool (which calls
// SharedModel and counts the miss) when it does not.
func CachedModel(p analysis.Params) (*analysis.Model, bool) { return modelCache.lru.Lookup(p) }

// engineKey identifies a compiled engine of the paper's default platform:
// the mesh it is adapted to and the maximum-packet-size override (0 = the
// platform default).
type engineKey struct {
	dim            mesh.Dim
	maxPacketFlits int
}

// engineCache shares the compiled WCET engines of platformFor(dim) the same
// way: the wcet-map and parallel-wcet scenarios and the serve daemon's wcet
// verbs of one (mesh, L) run on one engine and its once-computed round-trip
// UBDs. With the platform's own packet size the engine's model parameters
// are analysis.DefaultParams(dim), the model every wctt query of that mesh
// asks for, so it comes from modelCache and the two verbs share it; a model
// with an overridden L has no other reader and belongs to its engine alone.
var engineCache = sharedCache[engineKey, *wcet.Engine]{
	lru: cache.NewLRU[engineKey, *wcet.Engine](engineCacheCapacity, nil),
	build: func(k engineKey) (*wcet.Engine, error) {
		model := analysis.NewModel
		if k.maxPacketFlits == 0 {
			model = acquireModel
		}
		return platformFor(k.dim).CompileEngine(k.maxPacketFlits, model)
	},
}

// engineCacheCapacity bounds the retained engines: a model reference plus
// two O(nodes) UBD rows per design asked for.
const engineCacheCapacity = 64

// SharedEngine returns the shared compiled engine of the default platform on
// the given mesh with the given maximum packet size (0 = platform default),
// compiling it on first use.
func SharedEngine(d mesh.Dim, maxPacketFlits int) (*wcet.Engine, error) {
	return engineCache.acquire(engineKey{d, maxPacketFlits})
}

// CachedEngine is SharedEngine's counterpart of CachedModel: the engine only
// if it is already compiled.
func CachedEngine(d mesh.Dim, maxPacketFlits int) (*wcet.Engine, bool) {
	return engineCache.lru.Lookup(engineKey{d, maxPacketFlits})
}

// SharedCacheStats snapshots the hit/miss/eviction counters of the caches
// the scenario layer shares between the sweep path and the serve daemon.
type SharedCacheStats struct {
	// Networks is retired: the idle-network pool it counted is gone (PR 25,
	// every cycle-accurate scenario builds and owns its network) and it is
	// always zero. The serve stats payload is additive-only, so the field
	// stays on the wire.
	Networks cache.Stats `json:"networks"`
	// Models counts lookups of immutable analytical models.
	Models cache.Stats `json:"models"`
	// Engines counts lookups of compiled wcet.Engines.
	Engines cache.Stats `json:"engines"`
}

// CacheStats returns the current shared-cache counters.
func CacheStats() SharedCacheStats {
	return SharedCacheStats{
		Models:  modelCache.lru.Stats(),
		Engines: engineCache.lru.Stats(),
	}
}

// PlatformFor returns the paper's default WCET platform adapted to the
// given mesh (the memory controller stays at R(0,0)) — the platform the
// wcet-map and parallel-wcet scenarios and SharedEngine analyse.
func PlatformFor(d mesh.Dim) wcet.Platform { return platformFor(d) }
