package scenario

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/mesh"
	"repro/internal/network"
)

// netCache pools constructed networks per configuration so that sweep
// workers and serve-daemon request handlers reuse one topology (routers,
// NICs, precomputed WaW weight tables, message/flit pools) across scenario
// executions and load-curve rate points instead of reallocating it per
// point. Network.Reset guarantees a reused network behaves identically to a
// freshly constructed one, so cache hits cannot change any result — the
// sweep determinism tests run the same grids with different worker counts
// (and therefore different reuse patterns) and require byte-identical
// output.
//
// The pool is a bounded concurrent checkout cache (see cache.Pool): idle
// networks are retained by strong references inside an explicit bound
// rather than dropped wholesale at the next GC cycle — a long-running server
// keeps its working set warm across requests — and the least-recently-used
// configuration is evicted when the bound is hit. Hit/miss/eviction counters
// feed the serve stats verb.
var netCache = cache.NewPool[netKey, *network.Network](netCacheCapacity)

// netCacheCapacity bounds the idle networks retained across all
// configurations. Networks are the heaviest cached objects (a 32x32 mesh
// with its pools runs to megabytes); the bound covers a sweep's worth of
// distinct configurations times a few concurrent workers.
const netCacheCapacity = 64

type netKey struct {
	width, height int
	topo          mesh.TopoSpec
	design        network.Design
}

// cacheable reports whether the configuration is covered by the cache key:
// the default platform parameters for its mesh, topology and design, with no
// custom weight table. Anything else is built directly.
func cacheable(cfg network.Config) bool {
	want := network.DefaultConfig(cfg.Dim, cfg.Design)
	want.Topo = cfg.Topo
	return cfg == want
}

// keyFor builds the cache key of a cacheable configuration.
func keyFor(cfg network.Config) netKey {
	return netKey{cfg.Dim.Width, cfg.Dim.Height, cfg.Topo, cfg.Design}
}

// acquireNetwork returns a reset network for the default configuration of
// the given mesh and design, reusing a previously released one when
// available. Callers must hand the network back with releaseNetwork.
func acquireNetwork(cfg network.Config) (*network.Network, error) {
	if !cacheable(cfg) {
		return network.New(cfg)
	}
	if cached, ok := netCache.Get(keyFor(cfg)); ok {
		if cached.Config().Design != cfg.Design || cached.Config().Dim != cfg.Dim {
			panic(fmt.Sprintf("scenario: network cache returned %v/%v for %v/%v",
				cached.Config().Dim, cached.Config().Design, cfg.Dim, cfg.Design))
		}
		cached.Reset()
		return cached, nil
	}
	return network.New(cfg)
}

// releaseNetwork returns a network obtained from acquireNetwork to the cache.
// The network is reset before it is cached so an idle pool entry retains no
// caller state (in particular no delivery-hook closure); the reset on the
// acquire side stays as a second line of defence.
func releaseNetwork(net *network.Network) {
	if net == nil || !cacheable(net.Config()) {
		return
	}
	net.Reset()
	netCache.Put(keyFor(net.Config()), net)
}
