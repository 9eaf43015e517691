// Config.Shards is compatibility surface: the sharded engine it once selected
// is gone, the frozen bench module still sets the field, and every value must
// run the one engine. These tests keep the names the sharded-equivalence
// suite had and hold a network built with Shards set against the full-scan
// oracle, so they pin both "accepted and inert" and Step's equivalence on the
// 3x5 mesh the other tables leave out. They go when the field does (ROADMAP
// wcet-wrap).
package network_test

import (
	"fmt"
	"testing"

	"repro/internal/mesh"
	"repro/internal/network"
)

// TestShardedEquivalent checks that a network built with a shard count
// reproduces the full-scan oracle's results exactly across all four design
// points, several traffic patterns and seeds.
func TestShardedEquivalent(t *testing.T) {
	for _, d := range []mesh.Dim{mesh.MustDim(4, 4), mesh.MustDim(3, 5)} {
		for _, design := range allDesigns {
			for _, pattern := range allPatterns {
				for _, seed := range []int64{1, 7} {
					name := fmt.Sprintf("%v/%v/%s/seed=%d", d, design, pattern, seed)
					t.Run(name, func(t *testing.T) {
						cfg := network.DefaultConfig(d, design)
						cfg.Shards = 3
						compareRuns(t, "shards=3", runOracle(t, cfg, pattern, seed), runStep(t, cfg, pattern, seed))
					})
				}
			}
		}
	}
}

// TestShardedLockstepMicrostate is TestEnginesLockstepMicrostate with a shard
// count set, plus the WaW flit counters after every cycle.
func TestShardedLockstepMicrostate(t *testing.T) {
	d := mesh.MustDim(4, 4)
	for _, design := range []network.Design{network.DesignRegular, network.DesignWaWWaP} {
		for _, shards := range []int{2, 4} {
			t.Run(fmt.Sprintf("%v/shards=%d", design, shards), func(t *testing.T) {
				cfg := network.DefaultConfig(d, design)
				cfg.Shards = shards
				lockstep(t, cfg, "hotspot", 3, 3000, func(cycle int, ref network.FullScan, act *network.Network) {
					compareMicrostate(t, cycle, ref, act)
					act.FlushReplenishment()
					compareArbiterState(t, d, ref.Net, act, cycle)
				})
			})
		}
	}
}

// TestShardedResetMatchesFresh is TestResetMatchesFresh with a shard count set.
func TestShardedResetMatchesFresh(t *testing.T) {
	cfg := network.DefaultConfig(mesh.MustDim(4, 4), network.DesignWaWWaP)
	cfg.Shards = 4
	for _, pattern := range []string{"hotspot", "uniform"} {
		t.Run(pattern, func(t *testing.T) { resetMatchesFresh(t, cfg, pattern) })
	}
}

// TestShardedLeap is TestRunLeapsIdleWindow with a shard count set.
func TestShardedLeap(t *testing.T) {
	cfg := network.DefaultConfig(mesh.MustDim(4, 4), network.DesignWaWWaP)
	cfg.Shards = 4
	leapsIdleWindow(t, cfg)
}

// TestShardedConfigValidation checks the shard-count configuration rule:
// negative counts are rejected, every other value builds.
func TestShardedConfigValidation(t *testing.T) {
	cfg := network.DefaultConfig(mesh.MustDim(4, 2), network.DesignRegular)
	cfg.Shards = -1
	if _, err := network.New(cfg); err == nil {
		t.Error("negative shard count should fail")
	}
	for _, shards := range []int{0, 1, 2, 64} {
		cfg.Shards = shards
		net, err := network.New(cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		net.Close()
	}
}
