package flows

import (
	"reflect"
	"testing"

	"repro/internal/mesh"
)

// TestCachedWeightTableTopoMeshIdentity requires every way of asking for the
// mesh table — by dimension, by mesh.Plain, by a built spec — to produce the
// same table.
func TestCachedWeightTableTopoMeshIdentity(t *testing.T) {
	d := mesh.MustDim(6, 6)
	want := ComputeWeightTable(d)
	for i, topo := range []mesh.Topology{mesh.Plain(d), mesh.TopoSpec{Kind: mesh.TopoMesh}.MustBuild(d)} {
		if got := WeightTableFor(topo); !reflect.DeepEqual(got, want) {
			t.Errorf("%v mesh table %d differs from ComputeWeightTable", d, i)
		}
	}
}

// TestTopoWeightTableProperties checks the structural invariants of the
// concentrated-mesh tables: counts only on existing ports and
// legal turns, non-Local weights summing to 1 per active output, and the
// cmesh counts equalling the mesh counts of the router grid scaled by the
// concentration (the Section III transfer argument).
func TestTopoWeightTableProperties(t *testing.T) {
	topos := []mesh.Topology{
		mesh.TopoSpec{Kind: mesh.TopoCMesh, Conc: 4}.MustBuild(mesh.MustDim(8, 8)),
		mesh.TopoSpec{Kind: mesh.TopoCMesh, Conc: 2}.MustBuild(mesh.MustDim(8, 8)),
	}
	for _, topo := range topos {
		wt := WeightTableFor(topo)
		rd := topo.RouterDim()
		for _, n := range rd.AllNodes() {
			pc := wt.Counts(n)
			for _, out := range mesh.Directions {
				total := 0
				for _, in := range mesh.Directions {
					cnt := pc.InputsPerOutput[out][in]
					if cnt == 0 {
						continue
					}
					if !topo.HasOutput(n, out) {
						t.Errorf("%v router %v: count on missing output %v", topo, n, out)
					}
					if !mesh.LegalTurn(in, out) {
						t.Errorf("%v router %v: count on illegal turn %v->%v", topo, n, in, out)
					}
					total += cnt
				}
				if total != pc.OutputTotal[out] {
					t.Errorf("%v router %v output %v: totals disagree (%d vs %d)", topo, n, out, total, pc.OutputTotal[out])
				}
				if pc.OutputTotal[out] > 0 {
					sum := 0.0
					for _, in := range mesh.Directions {
						sum += pc.Weight(in, out)
					}
					if sum < 0.999999 || sum > 1.000001 {
						t.Errorf("%v router %v output %v: weights sum to %v", topo, n, out, sum)
					}
				}
			}
		}
	}
}

// TestCMeshCountsScaleMeshCounts checks the concentration transfer: a cmesh
// router's link-port counts are exactly Conc times the mesh closed forms of
// its router grid, and its ejection port additionally carries the
// Local->Local fan-out of the co-located cores.
func TestCMeshCountsScaleMeshCounts(t *testing.T) {
	topo := mesh.TopoSpec{Kind: mesh.TopoCMesh, Conc: 4}.MustBuild(mesh.MustDim(8, 8))
	rd := topo.RouterDim()
	conc := 4
	for _, n := range rd.AllNodes() {
		got := countsFor(topo, n)
		meshPC := ClosedFormCounts(rd, n)
		for _, out := range mesh.Directions {
			for _, in := range mesh.Directions {
				want := conc * meshPC.InputsPerOutput[out][in]
				if out == mesh.Local && in == mesh.Local {
					want = conc - 1 // the co-located cores, not a scaled mesh term
				}
				if got.InputsPerOutput[out][in] != want {
					t.Errorf("router %v turn %v->%v: count %d, want %d",
						n, in, out, got.InputsPerOutput[out][in], want)
				}
			}
		}
	}
}
