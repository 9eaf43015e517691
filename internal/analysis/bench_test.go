package analysis

import (
	"fmt"
	"testing"

	"repro/internal/mesh"
	"repro/internal/network"
)

// The kernel-vs-oracle pairs of this package, for a developer to run by hand
// after touching kernel.go (what a user waits for is measured by the
// analytic-grid workload of bench/, which is also what CI compares):
//
//	go test -run xxx -bench 'BenchmarkSummary|BenchmarkWCETMapUBD' -benchtime 5x ./internal/analysis/
//	go test -run xxx -bench BenchmarkSummary64 -cpu 1,2,4 -benchtime 20x ./internal/analysis/

// BenchmarkSummary is one Table II row (both one-flit summaries): kernel
// builds the model and runs SummarizeOneFlitWCTT (the all-pairs kernels for
// the regular design, the closed form for WaW+WaP), pairwise folds the
// per-pair route walk the equivalence tests compare them with
// (pairwiseSummary) over a prebuilt model.
func BenchmarkSummary(b *testing.B) {
	for _, size := range []int{16, 32} {
		d := mesh.MustDim(size, size)
		b.Run(fmt.Sprintf("%dx%d/kernel", size, size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := MustNewModel(DefaultParams(d))
				for _, design := range []network.Design{network.DesignRegular, network.DesignWaWWaP} {
					if _, err := m.SummarizeOneFlitWCTT(design); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("%dx%d/pairwise", size, size), func(b *testing.B) {
			m := MustNewModel(DefaultParams(d))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, design := range []network.Design{network.DesignRegular, network.DesignWaWWaP} {
					if _, err := pairwiseSummary(m, design); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkSummary64 is one 64x64 summary on a prebuilt model — the largest
// scenarios of the analytic-grid workload — per design and topology. The
// regular cases run the all-pairs producers: run them with -cpu 1,2,4 to see
// what the producers buy at each core count. On a two-core Intel Xeon host,
// mesh/regular took 128 ms at -cpu 1 and 91 ms at -cpu 2 when each source's
// X hops were folded one by one per destination, and 89 and 63 ms with the
// X-segment maps (medians of five alternating runs of -benchtime 20x); the
// serial in-order fold is now most of the rest. The waw+wap cases visit no pair
// (wawOneFlitFold, about 0.1 ms, where a fold of the WaW table's rows took
// 76 ms) and, on the caller at every size, do not depend on the core count.
func BenchmarkSummary64(b *testing.B) {
	for _, tc := range []struct {
		name   string
		topo   mesh.TopoSpec
		design network.Design
	}{
		{"mesh/regular", mesh.TopoSpec{Kind: mesh.TopoMesh}, network.DesignRegular},
		{"mesh/waw+wap", mesh.TopoSpec{Kind: mesh.TopoMesh}, network.DesignWaWWaP},
		{"cmesh4/regular", mesh.TopoSpec{Kind: mesh.TopoCMesh, Conc: 4}, network.DesignRegular},
		{"cmesh4/waw+wap", mesh.TopoSpec{Kind: mesh.TopoCMesh, Conc: 4}, network.DesignWaWWaP},
	} {
		p := DefaultParams(mesh.MustDim(64, 64))
		p.Topo = tc.topo
		m := MustNewModel(p)
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.SummarizeOneFlitWCTT(tc.design); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWCETMapUBD is the per-core UBD precomputation of a 64x64 wcet-map
// point from a cold model (a load and an eviction round trip per core): the
// two AllCoresRoundTripUBD row sweeps against the per-core RoundTripUBD loop.
func BenchmarkWCETMapUBD(b *testing.B) {
	d, memory := mesh.MustDim(64, 64), mesh.Node{}
	trips := [][2]int{{48, 512}, {512, 16}} // request, reply bits
	b.Run("64x64/kernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := MustNewModel(DefaultParams(d))
			for _, t := range trips {
				if _, err := m.AllCoresRoundTripUBD(network.DesignWaWWaP, memory, t[0], t[1], nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("64x64/pairwise", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := MustNewModel(DefaultParams(d))
			for _, core := range d.AllNodes() {
				for _, t := range trips {
					if _, err := m.RoundTripUBD(network.DesignWaWWaP, core, memory, t[0], t[1]); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
}
