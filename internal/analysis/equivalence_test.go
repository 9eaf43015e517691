package analysis

import (
	"sync"
	"testing"

	"repro/internal/mesh"
	"repro/internal/network"
)

// allDesigns lists every design point the bounds dispatch over.
var allDesigns = []network.Design{
	network.DesignRegular, network.DesignWaWWaP, network.DesignWaWOnly, network.DesignWaPOnly,
}

// equivalenceDims covers squares, rectangles (both orientations, so the X
// and Y walk segments are exercised asymmetrically), the degenerate 1-wide
// meshes and a large mesh.
func equivalenceDims(t *testing.T) []mesh.Dim {
	t.Helper()
	dims := []mesh.Dim{
		mesh.MustDim(2, 2), mesh.MustDim(3, 5), mesh.MustDim(5, 3),
		mesh.MustDim(1, 6), mesh.MustDim(6, 1), mesh.MustDim(8, 8),
	}
	if !testing.Short() {
		dims = append(dims, mesh.MustDim(16, 16))
	}
	return dims
}

// TestPacketWCTTMatchesReference pins the geometric flat-index walks of
// RegularPacketWCTT/WaWPacketWCTT bit-identical to the route-materialising
// reference implementations, over every ordered node pair of each mesh and
// several packet shapes.
func TestPacketWCTTMatchesReference(t *testing.T) {
	regularShapes := [][2]int{{1, 1}, {4, 4}, {1, 8}, {5, 2}}
	wawShapes := [][2]int{{1, 1}, {5, 1}, {2, 4}, {1, 8}}
	for _, d := range equivalenceDims(t) {
		m := MustNewModel(DefaultParams(d))
		for _, src := range d.AllNodes() {
			for _, dst := range d.AllNodes() {
				if src == dst {
					continue
				}
				for _, s := range regularShapes {
					fast, err1 := m.RegularPacketWCTT(src, dst, s[0], s[1])
					ref, err2 := m.ReferenceRegularPacketWCTT(src, dst, s[0], s[1])
					if err1 != nil || err2 != nil {
						t.Fatalf("%v %v->%v S=%d L=%d: errors %v / %v", d, src, dst, s[0], s[1], err1, err2)
					}
					if fast != ref {
						t.Fatalf("%v regular %v->%v S=%d L=%d: fast %d != reference %d", d, src, dst, s[0], s[1], fast, ref)
					}
				}
				for _, s := range wawShapes {
					fast, err1 := m.WaWPacketWCTT(src, dst, s[0], s[1])
					ref, err2 := m.ReferenceWaWPacketWCTT(src, dst, s[0], s[1])
					if err1 != nil || err2 != nil {
						t.Fatalf("%v %v->%v P=%d m=%d: errors %v / %v", d, src, dst, s[0], s[1], err1, err2)
					}
					if fast != ref {
						t.Fatalf("%v WaW %v->%v P=%d m=%d: fast %d != reference %d", d, src, dst, s[0], s[1], fast, ref)
					}
				}
			}
		}
	}
}

// TestSummarizeMatchesReference pins the Table II cell computation (the
// zero-alloc O(N^2) summary) to the reference path for every design.
func TestSummarizeMatchesReference(t *testing.T) {
	for _, d := range equivalenceDims(t) {
		m := MustNewModel(DefaultParams(d))
		for _, design := range allDesigns {
			fast, err1 := m.SummarizeOneFlitWCTT(design)
			ref, err2 := m.ReferenceSummarizeOneFlitWCTT(design)
			if err1 != nil || err2 != nil {
				t.Fatalf("%v %v: errors %v / %v", d, design, err1, err2)
			}
			if fast != ref {
				t.Fatalf("%v %v: fast summary %+v != reference %+v", d, design, fast, ref)
			}
		}
	}
}

// TestMessageWCTTConcurrent hammers one shared model from 8 goroutines and
// requires every answer to equal the walk's serial answer: MessageWCTT reads
// only the model's immutable arrays, so it needs no synchronisation — which
// is what the race detector checks here (CI runs this under -race).
func TestMessageWCTTConcurrent(t *testing.T) {
	d := mesh.MustDim(6, 4)
	nodes := d.AllNodes()
	payloads := []int{16, 48, 512}
	for _, spec := range []mesh.TopoSpec{{Kind: mesh.TopoMesh}, {Kind: mesh.TopoCMesh, Conc: 2}} {
		p := DefaultParams(d)
		p.Topo = spec
		m := MustNewModel(p)
		type query struct {
			design   network.Design
			src, dst mesh.Node
			bits     int
		}
		var queries []query
		var want []uint64
		for _, design := range allDesigns {
			for _, src := range nodes {
				for _, dst := range nodes {
					if src == dst {
						continue
					}
					for _, bits := range payloads {
						v, err := m.MessageWCTT(design, src, dst, bits)
						if err != nil {
							t.Fatal(err)
						}
						queries = append(queries, query{design, src, dst, bits})
						want = append(want, v)
					}
				}
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Each goroutine starts at its own offset so the same query
				// is in flight on several goroutines at once.
				for k := range queries {
					i := (k + g*len(queries)/8) % len(queries)
					q := queries[i]
					got, err := m.MessageWCTT(q.design, q.src, q.dst, q.bits)
					if err != nil || got != want[i] {
						t.Errorf("%v %v %v->%v %d bits: concurrent %d (err %v) != serial %d",
							spec, q.design, q.src, q.dst, q.bits, got, err, want[i])
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestWalkersMatchXYRoute pins the two walkers the analysis relies on to
// each other, hop for hop: the allocation-free plain-mesh walker WalkXY and
// the walk of the model's own topology that the reference bounds
// materialise (routeHops). A walk stopped early must visit exactly the
// leading hops of the route.
func TestWalkersMatchXYRoute(t *testing.T) {
	for _, d := range []mesh.Dim{mesh.MustDim(4, 4), mesh.MustDim(3, 7)} {
		m := MustNewModel(DefaultParams(d))
		for _, src := range d.AllNodes() {
			for _, dst := range d.AllNodes() {
				want, err := m.routeHops(src, dst)
				if err != nil {
					t.Fatal(err)
				}
				var got []mesh.Hop
				if err := mesh.WalkXY(d, src, dst, func(h mesh.Hop) bool {
					got = append(got, h)
					return true
				}); err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%v %v->%v: walked %d hops, route has %d", d, src, dst, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%v %v->%v hop %d: walker %v, route %v", d, src, dst, i, got[i], want[i])
					}
				}
				half := got[:0]
				if err := mesh.WalkXY(d, src, dst, func(h mesh.Hop) bool {
					half = append(half, h)
					return len(half) < (len(want)+1)/2
				}); err != nil {
					t.Fatal(err)
				}
				if len(half) != (len(want)+1)/2 {
					t.Fatalf("%v %v->%v: early stop walked %d hops, want %d", d, src, dst, len(half), (len(want)+1)/2)
				}
				for i := range half {
					if half[i] != want[i] {
						t.Fatalf("%v %v->%v hop %d: stopped walker %v, route %v", d, src, dst, i, half[i], want[i])
					}
				}
			}
		}
	}
}
