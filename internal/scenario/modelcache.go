package scenario

import (
	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/mesh"
	"repro/internal/wcet"
)

// modelCache shares analytical WCTT models per parameter set, the
// analytical sibling of netCache: a sweep over K designs of one mesh size
// (or a server answering WCTT queries for many meshes) builds the model —
// weight table, contender and output-share arrays — once and serves every
// scenario and query from it. Models are immutable and safe for concurrent
// readers, so there is no checkout protocol: entries are shared directly.
// Cache hits cannot change any result — the sweep determinism tests run the
// same grids with different worker counts (and therefore different hit
// patterns) and require byte-identical output.
//
// Unlike the PR-4 sync.Map (which only ever grew), the cache is a bounded
// LRU: a server probed with thousands of distinct mesh sizes evicts cold
// models instead of accumulating them forever. Construction is coalesced by
// a singleflight group so a fan-in of first queries for one mesh builds the
// model once.
var (
	modelCache  = cache.NewLRU[analysis.Params, *analysis.Model](modelCacheCapacity, nil)
	modelFlight cache.Group[analysis.Params, *analysis.Model]
)

// modelCacheCapacity bounds the retained models. A model's flat arrays are
// O(nodes); 128 entries cover every mesh of a large serve working set.
const modelCacheCapacity = 128

// acquireModel returns the shared analytical model for the given
// parameters, building it (once, even under concurrent first callers) on
// first use.
func acquireModel(p analysis.Params) (*analysis.Model, error) {
	if cached, ok := modelCache.Get(p); ok {
		return cached, nil
	}
	m, err, _ := modelFlight.Do(p, func() (*analysis.Model, error) {
		m, err := analysis.NewModel(p)
		if err != nil {
			return nil, err
		}
		modelCache.Put(p, m)
		return m, nil
	})
	return m, err
}

// SharedModel exposes the model cache to the serving layer: the serve
// daemon answers (design, mesh, src, dst, bytes) WCTT queries from exactly
// the models the sweep path uses, so a sweep warms the server and vice
// versa.
func SharedModel(p analysis.Params) (*analysis.Model, error) { return acquireModel(p) }

// CachedModel returns the shared model only if it is already built. The
// serve daemon answers a one-bound line on its connection's reader goroutine
// when this hits and hands the line to its bounded worker pool (which calls
// SharedModel and counts the miss) when it does not.
func CachedModel(p analysis.Params) (*analysis.Model, bool) { return modelCache.Lookup(p) }

// SharedCacheStats snapshots the hit/miss/eviction counters of the caches
// the scenario layer shares between the sweep path and the serve daemon,
// plus the process-wide compiled-WCET-engine cache.
type SharedCacheStats struct {
	// Networks counts checkout operations on the idle-network pool
	// (entries = idle instances retained now).
	Networks cache.Stats `json:"networks"`
	// Models counts lookups of immutable analytical models.
	Models cache.Stats `json:"models"`
	// Engines counts compiled wcet.Engine lookups (process-wide, unbounded:
	// engines are a few pointers each and keyed by full platform value).
	Engines cache.Stats `json:"engines"`
}

// CacheStats returns the current shared-cache counters.
func CacheStats() SharedCacheStats {
	hits, misses := wcet.EngineCacheStats()
	return SharedCacheStats{
		Networks: netCache.Stats(),
		Models:   modelCache.Stats(),
		Engines:  cache.Stats{Hits: hits, Misses: misses},
	}
}

// PlatformFor returns the paper's default WCET platform adapted to the
// given mesh (the memory controller stays at R(0,0)) — the platform the
// wcet-map and parallel-wcet scenarios analyse, exported so the serve
// daemon's WCET queries hit the same compiled-engine cache.
func PlatformFor(d mesh.Dim) wcet.Platform { return platformFor(d) }
