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

// FuzzCanonicalJSON holds CanonicalJSON to idempotence on hostile input: any
// bytes that decode into a Spec re-encode to a canonical form that decodes
// and re-encodes to the same bytes. A canonical form that moved on its
// second hop would change a worker's task payload or the checkpoint grid
// hash between a sweep and its resume. The committed corpus
// (testdata/fuzz/FuzzCanonicalJSON) holds the hostile shapes: an empty
// rates list (whose Traffic used to survive the first hop only), a lone
// surrogate, duplicate keys, case-folded names, null.
func FuzzCanonicalJSON(f *testing.F) {
	for _, seed := range []string{
		`{"name":"a","mode":"simulate","width":4,"height":4,"design":"waw+wap","seed":3,"traffic":{"pattern":"uniform","rate":40,"messages":100,"target":{"X":1,"Y":2}}}`,
		`{"mode":"load-curve","width":8,"height":8,"design":"regular","traffic":{"rates":[50,400],"warmup_cycles":500,"target":{"X":0,"Y":0}}}`,
		`{"mode":"wctt","sizes":[2,3],"designs":["regular","WaW+WaP"],"topology":"cmesh2","width":0,"height":0,"design":""}`,
		`{"mode":"manycore","workloads":["matrix"],"scale":500,"width":4,"height":4,"design":"regular"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if s.UnmarshalJSON(data) != nil {
			return
		}
		first, err := CanonicalJSON(s)
		if err != nil {
			t.Fatalf("encode %+v: %v", s, err)
		}
		var back Spec
		if err := back.UnmarshalJSON(first); err != nil {
			t.Fatalf("decode canonical form %s: %v", first, err)
		}
		second, err := CanonicalJSON(back)
		if err != nil {
			t.Fatalf("re-encode %s: %v", first, err)
		}
		if string(first) != string(second) {
			t.Errorf("canonical form is not idempotent:\n first %s\nsecond %s", first, second)
		}
	})
}
