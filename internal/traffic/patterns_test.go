package traffic

import (
	"testing"
	"testing/quick"

	"repro/internal/mesh"
	"repro/internal/network"
)

func TestTransposeAndBitComplementProperties(t *testing.T) {
	d := mesh.MustDim(8, 8)
	f := func(xr, yr uint8) bool {
		src := mesh.Node{X: int(xr) % d.Width, Y: int(yr) % d.Height}
		tr := Transpose(d, src)
		bc := BitComplement(d, src)
		nn := NearestNeighbor(d, src)
		if !d.Contains(tr) || !d.Contains(bc) || !d.Contains(nn) {
			return false
		}
		// Transpose and bit-complement are involutions on a square mesh.
		if Transpose(d, tr) != src || BitComplement(d, bc) != src {
			return false
		}
		// Nearest neighbour stays in the same row one column over.
		if nn.Y != src.Y || nn == src && d.Width > 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTransposeDiagonalFixedPoints(t *testing.T) {
	d := mesh.MustDim(4, 4)
	if Transpose(d, mesh.Node{X: 2, Y: 2}) != (mesh.Node{X: 2, Y: 2}) {
		t.Error("diagonal nodes are fixed points of transpose")
	}
	if Transpose(d, mesh.Node{X: 3, Y: 1}) != (mesh.Node{X: 1, Y: 3}) {
		t.Error("transpose mapping wrong")
	}
	if BitComplement(d, mesh.Node{X: 0, Y: 0}) != (mesh.Node{X: 3, Y: 3}) {
		t.Error("bit-complement mapping wrong")
	}
}

// TestTransposeIsPermutationOnRectangularMeshes is the regression test for
// the rectangular-mesh transpose bug: the old coordinate-wrapping map
// (y%W, x%H) sent several sources to the same destination on non-square
// meshes (on 4x2 both (1,0) and (3,0) targeted (0,1)), so it was no longer
// a permutation. The generalised map must be a bijection on every mesh and
// reduce to the classical (y, x) swap on square ones.
func TestTransposeIsPermutationOnRectangularMeshes(t *testing.T) {
	for _, d := range []mesh.Dim{
		mesh.MustDim(4, 2), mesh.MustDim(2, 4), mesh.MustDim(3, 5),
		mesh.MustDim(1, 6), mesh.MustDim(4, 4), mesh.MustDim(8, 8),
	} {
		seen := make(map[mesh.Node]mesh.Node, d.Nodes())
		for _, src := range d.AllNodes() {
			dst := Transpose(d, src)
			if !d.Contains(dst) {
				t.Errorf("%v: Transpose(%v) = %v outside the mesh", d, src, dst)
				continue
			}
			if prev, dup := seen[dst]; dup {
				t.Errorf("%v: Transpose is not a permutation: %v and %v both map to %v", d, prev, src, dst)
			}
			seen[dst] = src
			if d.Width == d.Height {
				if want := (mesh.Node{X: src.Y, Y: src.X}); dst != want {
					t.Errorf("%v: square-mesh Transpose(%v) = %v, want %v", d, src, dst, want)
				}
			}
		}
		if len(seen) != d.Nodes() {
			t.Errorf("%v: transpose image covers %d of %d nodes", d, len(seen), d.Nodes())
		}
	}
}

func TestNewPermutationValidation(t *testing.T) {
	d := mesh.MustDim(4, 4)
	if _, err := NewPermutation(mesh.Dim{}, Transpose, 64, 1, 1); err == nil {
		t.Error("invalid dim should fail")
	}
	if _, err := NewPermutation(d, nil, 64, 1, 1); err == nil {
		t.Error("nil permutation should fail")
	}
	if _, err := NewPermutation(d, Transpose, 64, -1, 1); err == nil {
		t.Error("negative rounds should fail")
	}
	if _, err := NewPermutation(d, Transpose, 64, 1, 0); err == nil {
		t.Error("zero interval should fail")
	}
}

func TestPermutationGeneratorRoundsAndSelfFiltering(t *testing.T) {
	d := mesh.MustDim(4, 4)
	g, err := NewPermutation(d, Transpose, 64, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	// First round fires at cycle 0: 16 nodes minus the 4 diagonal fixed
	// points = 12 messages.
	msgs := g.Tick(0)
	if len(msgs) != 12 {
		t.Errorf("round 1 produced %d messages, want 12", len(msgs))
	}
	for _, m := range msgs {
		if m.Flow.Src == m.Flow.Dst {
			t.Error("self message produced")
		}
	}
	// Nothing between rounds.
	if got := g.Tick(3); got != nil {
		t.Errorf("off-interval tick produced %d messages", len(got))
	}
	if g.Done() {
		t.Error("generator done too early")
	}
	if got := g.Tick(5); len(got) != 12 {
		t.Errorf("round 2 produced %d messages", len(got))
	}
	if !g.Done() {
		t.Error("generator should be done after the configured rounds")
	}
	if g.Tick(10) != nil {
		t.Error("done generator should stay quiet")
	}
}

// Both designs deliver the whole transpose and bit-complement patterns —
// additional conservation coverage with non-hotspot traffic.
func TestPermutationTrafficDelivered(t *testing.T) {
	for _, perm := range []Permutation{Transpose, BitComplement, NearestNeighbor} {
		for _, design := range []network.Design{network.DesignRegular, network.DesignWaWWaP} {
			d := mesh.MustDim(4, 4)
			net := network.MustNew(network.DefaultConfig(d, design))
			g, err := NewPermutation(d, perm, 512, 3, 10)
			if err != nil {
				t.Fatal(err)
			}
			injected, done := Drive(net, g, 100_000)
			if !done {
				t.Fatalf("%v: pattern did not drain", design)
			}
			if injected == 0 || int(net.TotalDeliveredMessages()) != injected {
				t.Errorf("%v: delivered %d of %d", design, net.TotalDeliveredMessages(), injected)
			}
		}
	}
}

// TestPatternsAreBijectionsPerTopology checks every permutation pattern on
// the endpoint index space of every topology family, square and
// rectangular: each map must be a total bijection on the endpoint grid —
// the property the per-round generators and the saturation analysis rely
// on — regardless of which fabric carries the traffic.
func TestPatternsAreBijectionsPerTopology(t *testing.T) {
	patterns := map[string]Permutation{
		"transpose": Transpose,
		"bitcomp":   BitComplement,
		"neighbor":  NearestNeighbor,
		"tornado":   Tornado,
	}
	for _, c := range []struct {
		spec mesh.TopoSpec
		ep   mesh.Dim
	}{
		{mesh.TopoSpec{Kind: mesh.TopoMesh}, mesh.MustDim(8, 8)},
		{mesh.TopoSpec{Kind: mesh.TopoMesh}, mesh.MustDim(5, 3)},
		{mesh.TopoSpec{Kind: mesh.TopoCMesh, Conc: 4}, mesh.MustDim(8, 8)},
		{mesh.TopoSpec{Kind: mesh.TopoCMesh, Conc: 2}, mesh.MustDim(6, 4)},
	} {
		topo, ep := c.spec.MustBuild(c.ep), c.ep
		for name, perm := range patterns {
			seen := make(map[mesh.Node]mesh.Node, ep.Nodes())
			for _, src := range ep.AllNodes() {
				dst := perm(ep, src)
				if !ep.Contains(dst) {
					t.Errorf("%v %v: %s(%v) = %v outside the endpoint grid", topo, ep, name, src, dst)
					continue
				}
				if prev, dup := seen[dst]; dup {
					t.Errorf("%v %v: %s is not a permutation: %v and %v both map to %v", topo, ep, name, prev, src, dst)
				}
				seen[dst] = src
			}
			if len(seen) != ep.Nodes() {
				t.Errorf("%v %v: %s image covers %d of %d endpoints", topo, ep, name, len(seen), ep.Nodes())
			}
		}
	}
}

// TestTornadoMapping pins the tornado displacement: almost half-way along
// the row, every flow just short of the half-way tie.
func TestTornadoMapping(t *testing.T) {
	d := mesh.MustDim(8, 8)
	if got := Tornado(d, mesh.Node{X: 0, Y: 3}); got != (mesh.Node{X: 3, Y: 3}) {
		t.Errorf("Tornado((0,3)) = %v, want (3,3)", got)
	}
	if got := Tornado(d, mesh.Node{X: 6, Y: 0}); got != (mesh.Node{X: 1, Y: 0}) {
		t.Errorf("Tornado((6,0)) = %v, want (1,0)", got)
	}
	odd := mesh.MustDim(5, 5)
	// ceil(5/2)-1 = 2 columns to the east.
	if got := Tornado(odd, mesh.Node{X: 4, Y: 2}); got != (mesh.Node{X: 1, Y: 2}) {
		t.Errorf("Tornado((4,2)) on 5x5 = %v, want (1,2)", got)
	}
	// On a 1-wide grid tornado degenerates to the identity and the
	// generator's self-filtering drops every flow; it must stay total.
	thin := mesh.MustDim(1, 4)
	for _, src := range thin.AllNodes() {
		if Tornado(thin, src) != src {
			t.Errorf("Tornado on 1-wide grid should be the identity")
		}
	}
}

// TestNewPermutationTopo checks a generator built for a concentrated
// topology: it is defined on the topology's endpoint grid, not its router
// grid, and rejects a nil permutation.
func TestNewPermutationTopo(t *testing.T) {
	ep := mesh.MustDim(4, 4)
	topo := mesh.TopoSpec{Kind: mesh.TopoCMesh, Conc: 4}.MustBuild(ep)
	g, err := NewPermutation(ep, Tornado, 64, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.dim != ep || g.dim == topo.RouterDim() {
		t.Errorf("generator dim %v, want the endpoint grid %v", g.dim, ep)
	}
	if _, err := NewPermutation(ep, nil, 64, 1, 1); err == nil {
		t.Error("nil permutation should fail")
	}
}
