package analysis

import (
	"strings"
	"testing"

	"repro/internal/flows"
	"repro/internal/mesh"
	"repro/internal/network"
)

// TestModelPlanesMatchOracle: every contender and output-share entry of a
// model equals the derivation the planes replaced — the count of LegalTurn
// inputs whose upstream neighbour exists (contenders, reference_test.go) and
// max(1, OutputTotal) of the simulator's WaW weight table — on the mesh and
// both concentrated meshes, for every endpoint grid from 1x1 to 16x16 the
// topology tiles, rectangular ones included.
func TestModelPlanesMatchOracle(t *testing.T) {
	for _, spec := range []mesh.TopoSpec{
		{Kind: mesh.TopoMesh},
		{Kind: mesh.TopoCMesh, Conc: 2},
		{Kind: mesh.TopoCMesh, Conc: 4},
	} {
		grids := 0
		for w := 1; w <= 16; w++ {
			for h := 1; h <= 16; h++ {
				p := DefaultParams(mesh.MustDim(w, h))
				p.Topo = spec
				m, err := NewModel(p)
				if err != nil {
					continue // the concentration does not tile this grid
				}
				grids++
				wt := flows.WeightTableFor(m.topo)
				for idx, n := range m.rdim.AllNodes() {
					for _, out := range mesh.Directions {
						if got, want := m.contender[out][idx], uint64(m.contenders(n, out)); got != want {
							t.Errorf("%v %dx%d router %v output %v: contenders %d, oracle %d", spec, w, h, n, out, got, want)
						}
						if got, want := m.outShare[out][idx], max(1, uint64(wt.CountsAt(idx).OutputTotal[out])); got != want {
							t.Errorf("%v %dx%d router %v output %v: output share %d, weight table %d", spec, w, h, n, out, got, want)
						}
					}
				}
			}
		}
		// A block of c cores tiles 256/c of the 256 grids.
		if want := 256 / spec.MustBuild(mesh.MustDim(4, 4)).LocalEndpoints(); grids != want {
			t.Errorf("%v: %d grids built, want %d", spec, grids, want)
		}
	}
}

// TestCMeshPacketWCTTMatchesReference pins the flat-index fast walks to the
// route-materialising reference implementation on the concentrated meshes:
// the RouterOf endpoint mapping, the collapsed co-located routes and the
// concentration-scaled contender shares must agree bit for bit over every
// ordered endpoint pair.
func TestCMeshPacketWCTTMatchesReference(t *testing.T) {
	specs := []mesh.TopoSpec{
		{Kind: mesh.TopoCMesh, Conc: 4},
		{Kind: mesh.TopoCMesh, Conc: 2},
	}
	dims := []mesh.Dim{mesh.MustDim(4, 4), mesh.MustDim(6, 4), mesh.MustDim(8, 8)}
	shapes := [][2]int{{1, 1}, {4, 4}, {1, 8}}
	for _, spec := range specs {
		for _, d := range dims {
			p := DefaultParams(d)
			p.Topo = spec
			m, err := NewModel(p)
			if err != nil {
				t.Fatalf("%v on %v: %v", spec, d, err)
			}
			for _, src := range d.AllNodes() {
				for _, dst := range d.AllNodes() {
					if src == dst {
						continue
					}
					for _, s := range shapes {
						fast, err1 := m.RegularPacketWCTT(src, dst, s[0], s[1])
						ref, err2 := m.ReferenceRegularPacketWCTT(src, dst, s[0], s[1])
						if err1 != nil || err2 != nil {
							t.Fatalf("%v %v %v->%v: errors %v / %v", spec, d, src, dst, err1, err2)
						}
						if fast != ref {
							t.Fatalf("%v %v regular %v->%v S=%d L=%d: fast %d != reference %d",
								spec, d, src, dst, s[0], s[1], fast, ref)
						}
						wfast, err1 := m.WaWPacketWCTT(src, dst, s[0], s[1])
						wref, err2 := m.ReferenceWaWPacketWCTT(src, dst, s[0], s[1])
						if err1 != nil || err2 != nil {
							t.Fatalf("%v %v %v->%v: errors %v / %v", spec, d, src, dst, err1, err2)
						}
						if wfast != wref {
							t.Fatalf("%v %v WaW %v->%v P=%d m=%d: fast %d != reference %d",
								spec, d, src, dst, s[0], s[1], wfast, wref)
						}
					}
				}
			}
			// The summary paths must agree too (they drive the wctt sweep mode).
			for _, design := range allDesigns {
				fast, err1 := m.SummarizeOneFlitWCTT(design)
				ref, err2 := m.ReferenceSummarizeOneFlitWCTT(design)
				if err1 != nil || err2 != nil {
					t.Fatalf("%v %v %v: errors %v / %v", spec, d, design, err1, err2)
				}
				if fast != ref {
					t.Fatalf("%v %v %v: fast summary %+v != reference %+v", spec, d, design, fast, ref)
				}
			}
		}
	}
}

// TestCMeshBoundsDominateMeshOfRouters sanity-checks the concentration
// transfer direction: with Conc cores multiplying every channel load, a
// CMesh bound between cores on distinct routers can never be smaller than
// the plain-mesh bound between those routers on the same router grid.
func TestCMeshBoundsDominateMeshOfRouters(t *testing.T) {
	d := mesh.MustDim(8, 8)
	p := DefaultParams(d)
	p.Topo = mesh.TopoSpec{Kind: mesh.TopoCMesh, Conc: 4}
	cm := MustNewModel(p)
	rm := MustNewModel(DefaultParams(mesh.MustDim(4, 4)))
	topo := p.Topo.MustBuild(d)
	for _, src := range d.AllNodes() {
		for _, dst := range d.AllNodes() {
			rs, rd := topo.RouterOf(src), topo.RouterOf(dst)
			if rs == rd || src == dst {
				continue
			}
			cb, err := cm.RegularPacketWCTT(src, dst, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			mb, err := rm.RegularPacketWCTT(rs, rd, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if cb < mb {
				t.Fatalf("cmesh bound %d for %v->%v below the router-grid mesh bound %d for %v->%v",
					cb, src, dst, mb, rs, rd)
			}
		}
	}
}

// TestCMeshModelRejectsIndivisibleGrid checks NewModel surfaces the
// topology's build error: a concentration block must divide the grid.
func TestCMeshModelRejectsIndivisibleGrid(t *testing.T) {
	p := DefaultParams(mesh.MustDim(5, 5))
	p.Topo = mesh.TopoSpec{Kind: mesh.TopoCMesh, Conc: 4}
	if _, err := NewModel(p); err == nil || !strings.Contains(err.Error(), "does not divide") {
		t.Fatalf("NewModel(cmesh4 on 5x5) = %v, want the indivisible-grid error", err)
	}
}

// TestMeshModelIdenticalWithExplicitTopo checks the zero-value contract:
// Params with an explicit mesh TopoSpec build a model computing exactly the
// bounds of the implicit pre-topology Params.
func TestMeshModelIdenticalWithExplicitTopo(t *testing.T) {
	d := mesh.MustDim(6, 6)
	implicit := MustNewModel(DefaultParams(d))
	p := DefaultParams(d)
	p.Topo = mesh.TopoSpec{Kind: mesh.TopoMesh}
	explicit := MustNewModel(p)
	for _, design := range []network.Design{network.DesignRegular, network.DesignWaWWaP} {
		a, err1 := implicit.SummarizeOneFlitWCTT(design)
		b, err2 := explicit.SummarizeOneFlitWCTT(design)
		if err1 != nil || err2 != nil {
			t.Fatalf("%v: errors %v / %v", design, err1, err2)
		}
		if a != b {
			t.Errorf("%v: implicit-mesh summary %+v != explicit-mesh %+v", design, a, b)
		}
	}
}
