package scenario

import (
	"testing"

	"repro/internal/network"
)

// TestCanonicalJSONRoundTrip pins the property CanonicalJSON documents:
// decode followed by re-encode reproduces the exact bytes, for every mode
// the grids exercise. The worker-protocol task payload and the checkpoint
// grid hash both assume this — a spec that drifted through one hop would
// silently change a worker's result or invalidate resumable checkpoints.
func TestCanonicalJSONRoundTrip(t *testing.T) {
	grids := []Spec{
		{Name: "sweep", Mode: ModeWCTT, Sizes: []int{2, 3, 4, 8},
			Designs: []network.Design{network.DesignRegular, network.DesignWaWWaP}},
		{Name: "sweep", Mode: ModeSimulate, Topology: "cmesh2", Sizes: []int{2, 4},
			Designs: []network.Design{network.DesignRegular, network.DesignWaWWaP},
			Seed:    7, Shards: 3,
			Traffic: Traffic{Pattern: "uniform", Rate: 40, Messages: 120}},
		{Name: "sweep", Mode: ModeLoadCurve, Sizes: []int{3},
			Designs: []network.Design{network.DesignWaWWaP}, Seed: 3,
			Traffic: Traffic{Rates: []int{50, 200}, WarmupCycles: 500, MeasureCycles: 2500}},
		{Name: "sweep", Mode: ModeManycore, Sizes: []int{4},
			Designs:   []network.Design{network.DesignRegular},
			Workloads: []string{"rspeed", "matrix"}, Scale: 500},
		{Name: "sweep", Mode: ModeParallelWCET, Sizes: []int{8},
			Designs: []network.Design{network.DesignWaWWaP}, MaxPacketFlits: 4},
		{Name: "sweep", Mode: ModeWCETMap, Sizes: []int{8},
			Designs: []network.Design{network.DesignRegular}, Workloads: []string{"matrix"}},
	}
	for _, grid := range grids {
		specs, err := grid.Expand()
		if err != nil {
			t.Fatalf("%v expand: %v", grid.Mode, err)
		}
		for _, spec := range specs {
			first, err := CanonicalJSON(spec)
			if err != nil {
				t.Fatalf("%s: %v", spec.Name, err)
			}
			var back Spec
			if err := back.UnmarshalJSON(first); err != nil {
				t.Fatalf("%s: decode canonical form: %v", spec.Name, err)
			}
			second, err := CanonicalJSON(back)
			if err != nil {
				t.Fatalf("%s: re-encode: %v", spec.Name, err)
			}
			if string(first) != string(second) {
				t.Errorf("%s does not round-trip:\n first %s\nsecond %s", spec.Name, first, second)
			}
		}
	}
}
