package mesh

import (
	"fmt"
	"strings"
	"testing"
)

// builtTopology is a topology with the endpoint grid it was built on.
type builtTopology struct {
	topo Topology
	ep   Dim
}

// testTopologies returns one built instance of every topology family on
// grids its constraints allow, square and non-square.
func testTopologies(t *testing.T) []builtTopology {
	t.Helper()
	var topos []builtTopology
	build := func(spec TopoSpec, w, h int) {
		ep := MustDim(w, h)
		topo, err := spec.Build(ep)
		if err != nil {
			t.Fatalf("Build(%v, %dx%d): %v", spec, w, h, err)
		}
		topos = append(topos, builtTopology{topo, ep})
	}
	for _, d := range [][2]int{{2, 2}, {3, 3}, {4, 4}, {5, 3}, {3, 5}, {8, 8}, {1, 4}, {4, 1}} {
		build(TopoSpec{Kind: TopoMesh}, d[0], d[1])
	}
	for _, d := range [][2]int{{2, 2}, {4, 4}, {6, 4}, {8, 8}} {
		build(TopoSpec{Kind: TopoCMesh, Conc: 4}, d[0], d[1])
	}
	for _, d := range [][2]int{{2, 2}, {4, 3}, {6, 5}, {8, 8}} {
		build(TopoSpec{Kind: TopoCMesh, Conc: 2}, d[0], d[1])
	}
	return topos
}

// TestTopologyRouteProperties checks, for every ordered endpoint pair of
// every test topology, the route invariants all consumers rely on: the walk
// starts at the source's router entering through Local, every hop is a legal
// dimension-ordered turn, every link step lands on the neighbour the
// topology wires for that port, the walk terminates with a Local ejection at
// the destination's router, and X hops strictly precede Y hops.
func TestTopologyRouteProperties(t *testing.T) {
	for _, b := range testTopologies(t) {
		topo, ep := b.topo, b.ep
		t.Run(fmt.Sprintf("%v-%v", topo, ep), func(t *testing.T) {
			for _, src := range ep.AllNodes() {
				for _, dst := range ep.AllNodes() {
					hops, err := appendHops(topo, src, dst)
					if err != nil {
						t.Fatalf("route %v->%v: %v", src, dst, err)
					}
					checkRoute(t, topo, src, dst, hops)
				}
			}
		})
	}
}

// appendHops collects the hops of the route between endpoints src and dst
// through Walk.
func appendHops(topo Topology, src, dst Node) ([]Hop, error) {
	var hops []Hop
	err := topo.Walk(src, dst, func(h Hop) bool {
		hops = append(hops, h)
		return true
	})
	return hops, err
}

func checkRoute(t *testing.T, topo Topology, src, dst Node, hops []Hop) {
	t.Helper()
	if len(hops) == 0 {
		t.Fatalf("route %v->%v: empty", src, dst)
	}
	if hops[0].Router != topo.RouterOf(src) || hops[0].In != Local {
		t.Fatalf("route %v->%v: first hop %v should enter %v through Local", src, dst, hops[0], topo.RouterOf(src))
	}
	last := hops[len(hops)-1]
	if last.Out != Local || last.Router != topo.RouterOf(dst) {
		t.Fatalf("route %v->%v: last hop %v should eject at %v", src, dst, last, topo.RouterOf(dst))
	}
	// Hop-count sanity: a route visits each router at most once, so it can
	// never be longer than the router count (a cycle would exceed it).
	if len(hops) > topo.RouterDim().Nodes() {
		t.Fatalf("route %v->%v: %d hops on a %v router grid (cycle?)", src, dst, len(hops), topo.RouterDim())
	}
	seenY := false
	for i, h := range hops {
		if !LegalTurn(h.In, h.Out) {
			t.Fatalf("route %v->%v: illegal turn %v", src, dst, h)
		}
		if h.Out.IsX() && seenY {
			t.Fatalf("route %v->%v: X hop %v after a Y hop (dimension order violated)", src, dst, h)
		}
		if h.Out.IsY() {
			seenY = true
		}
		if h.Out == Local {
			if i != len(hops)-1 {
				t.Fatalf("route %v->%v: ejection before the last hop", src, dst)
			}
			continue
		}
		next, ok := topo.Neighbor(h.Router, h.Out)
		if !ok {
			t.Fatalf("route %v->%v: hop %v uses a missing port", src, dst, h)
		}
		if i+1 >= len(hops) {
			t.Fatalf("route %v->%v: link hop %v is the last hop", src, dst, h)
		}
		if hops[i+1].Router != next || hops[i+1].In != h.Out {
			t.Fatalf("route %v->%v: hop %v should continue at %v in %v, got %v", src, dst, h, next, h.Out, hops[i+1])
		}
	}
}

// TestMesh2DMatchesXYWalk pins the plain mesh (the 1×1 block, as Plain and
// the "mesh" spec build it) to the X-then-Y route written out from the
// coordinates, hop for hop: the topology walk must be the identical geometry
// of the paper's XY routing, not merely an equivalent one.
func TestMesh2DMatchesXYWalk(t *testing.T) {
	spec, err := ParseTopology("mesh")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []Dim{MustDim(3, 3), MustDim(5, 2), MustDim(1, 6)} {
		m := Plain(d)
		if built := spec.MustBuild(d); built != m {
			t.Fatalf("%v: the mesh spec builds %+v, Plain builds %+v", d, built, m)
		}
		for _, src := range d.AllNodes() {
			for _, dst := range d.AllNodes() {
				got, err := appendHops(m, src, dst)
				if err != nil {
					t.Fatal(err)
				}
				want := xyRoute(src, dst)
				if len(got) != len(want) {
					t.Fatalf("%v->%v: %d hops vs XY's %d", src, dst, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%v->%v hop %d: %v vs XY's %v", src, dst, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// xyRoute writes out the XY route from src to dst on a plain mesh from the
// coordinates alone: along X to the destination column, then along Y to
// the destination row, each router receiving the flit on the port named
// after the travel direction, injected and ejected through Local.
func xyRoute(src, dst Node) []Hop {
	var hops []Hop
	at, in := src, Local
	step := func(out Direction, next Node) {
		hops = append(hops, Hop{Router: at, In: in, Out: out})
		at, in = next, out
	}
	for at.X < dst.X {
		step(XPlus, Node{X: at.X + 1, Y: at.Y})
	}
	for at.X > dst.X {
		step(XMinus, Node{X: at.X - 1, Y: at.Y})
	}
	for at.Y < dst.Y {
		step(YPlus, Node{X: at.X, Y: at.Y + 1})
	}
	for at.Y > dst.Y {
		step(YMinus, Node{X: at.X, Y: at.Y - 1})
	}
	return append(hops, Hop{Router: at, In: in, Out: Local})
}

// TestCMeshMapping checks the endpoint/router split the block shifts
// encode, on the plain mesh (the 1×1 block) and on both concentrated meshes:
// RouterOf is the block division (x/cx, y/cy), the mapping partitions the
// cores evenly, LocalEndpoints is the concentration and matches the actual
// fan-in, LocalPairLoad is the other conc-1 cores, every name builds a
// topology that prints its canonical name, and co-located cores reach each
// other through the single Local->Local hop of their shared router.
func TestCMeshMapping(t *testing.T) {
	for _, c := range []struct {
		name   string // as ParseTopology reads it
		str    string // the canonical name Spec and Topology print
		conc   int
		cx, cy int
	}{
		{"mesh", "mesh", 1, 1, 1},
		{"cmesh", "cmesh", 4, 2, 2},
		{"cmesh2", "cmesh2", 2, 2, 1},
		{"cmesh4", "cmesh", 4, 2, 2},
	} {
		spec, err := ParseTopology(c.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range [][2]int{{8, 8}, {4, 6}, {2, 2}} {
			ep := MustDim(d[0], d[1])
			topo, err := spec.Build(ep)
			if err != nil {
				t.Fatal(err)
			}
			if got := topo.String(); got != c.str {
				t.Fatalf("Build(ParseTopology(%q)).String() = %q, want %q", c.name, got, c.str)
			}
			rd := topo.RouterDim()
			if rd != MustDim(ep.Width/c.cx, ep.Height/c.cy) {
				t.Fatalf("%v on %v: router grid %v, want a %dx%d block per router", spec, ep, rd, c.cx, c.cy)
			}
			if topo.LocalEndpoints() != c.conc {
				t.Fatalf("%v: LocalEndpoints() = %d, want %d", spec, topo.LocalEndpoints(), c.conc)
			}
			if topo.LocalPairLoad() != c.conc-1 {
				t.Fatalf("%v: LocalPairLoad() = %d, want %d", spec, topo.LocalPairLoad(), c.conc-1)
			}
			fanIn := make(map[Node]int)
			for _, core := range ep.AllNodes() {
				r := topo.RouterOf(core)
				if want := (Node{X: core.X / c.cx, Y: core.Y / c.cy}); r != want {
					t.Fatalf("%v: RouterOf(%v) = %v, want %v", spec, core, r, want)
				}
				fanIn[r]++
			}
			for _, r := range rd.AllNodes() {
				if fanIn[r] != topo.LocalEndpoints() {
					t.Fatalf("%v: router %v has %d cores, LocalEndpoints says %d", spec, r, fanIn[r], topo.LocalEndpoints())
				}
			}
		}
		if c.conc == 1 {
			continue
		}
		// Two distinct co-located cores: one hop, Local in and out.
		topo := spec.MustBuild(MustDim(8, 8))
		src, dst := Node{X: 0, Y: 0}, Node{X: 1, Y: 0}
		if topo.RouterOf(src) != topo.RouterOf(dst) {
			t.Fatalf("%v: %v and %v should share a router", spec, src, dst)
		}
		hops, err := appendHops(topo, src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if len(hops) != 1 || hops[0].In != Local || hops[0].Out != Local {
			t.Fatalf("%v: co-located route %v->%v = %v, want one Local->Local hop", spec, src, dst, hops)
		}
	}
}

// TestParseTopology checks the flag grammar and its round trip through
// TopoSpec.String.
func TestParseTopology(t *testing.T) {
	cases := []struct {
		in   string
		want TopoSpec
		str  string
	}{
		{"", TopoSpec{}, "mesh"},
		{"mesh", TopoSpec{}, "mesh"},
		{" Mesh ", TopoSpec{}, "mesh"},
		{"cmesh", TopoSpec{Kind: TopoCMesh, Conc: 4}, "cmesh"},
		{"cmesh4", TopoSpec{Kind: TopoCMesh, Conc: 4}, "cmesh"},
		{"cmesh2", TopoSpec{Kind: TopoCMesh, Conc: 2}, "cmesh2"},
	}
	for _, c := range cases {
		got, err := ParseTopology(c.in)
		if err != nil {
			t.Errorf("ParseTopology(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseTopology(%q) = %v, want %v", c.in, got, c.want)
		}
		if got.String() != c.str {
			t.Errorf("ParseTopology(%q).String() = %q, want %q", c.in, got.String(), c.str)
		}
	}
	// Every unknown name, the torus included, gets the one error naming the
	// families that ship.
	for _, bad := range []string{"banana", "torus", "cmesh3", "hypercube", "2dmesh"} {
		_, err := ParseTopology(bad)
		want := fmt.Sprintf("mesh: unknown topology %q (want mesh, cmesh, cmesh2 or cmesh4)", bad)
		if err == nil || err.Error() != want {
			t.Errorf("ParseTopology(%q) = %v, want %q", bad, err, want)
		}
	}
	// Build-time constraints: concentration blocks must divide the grid.
	if _, err := (TopoSpec{Kind: TopoCMesh, Conc: 4}).Build(MustDim(5, 4)); err == nil {
		t.Error("cmesh4 on 5x4 should fail (width not divisible by 2)")
	}
	if _, err := (TopoSpec{Kind: TopoCMesh, Conc: 4}).Build(MustDim(4, 5)); err == nil {
		t.Error("cmesh4 on 4x5 should fail (height not divisible by 2)")
	}
	if _, err := (TopoSpec{Kind: TopoCMesh, Conc: 2}).Build(MustDim(3, 4)); err == nil {
		t.Error("cmesh2 on 3x4 should fail (width not divisible by 2)")
	}
	if _, err := (TopoSpec{Kind: TopoCMesh, Conc: 3}).Build(MustDim(6, 6)); err == nil {
		t.Error("conc 3 should fail (only 2 and 4 supported)")
	}
}

// FuzzParseTopology holds the topology flag parser to its round trip. An
// accepted name parses to a spec whose canonical String() parses back to the
// same spec and builds on a 4x4 grid; a rejected name is quoted, escapes and
// all, in the error. The seeds are the canonical names; the committed corpus
// adds case and Unicode-space variants, NUL and invalid UTF-8.
func FuzzParseTopology(f *testing.F) {
	for _, s := range []string{"", "mesh", "cmesh", "cmesh2", "cmesh4", "torus"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseTopology(s)
		if err != nil {
			if !strings.Contains(err.Error(), fmt.Sprintf("%q", s)) {
				t.Fatalf("ParseTopology(%q) error %q does not quote the input", s, err)
			}
			return
		}
		again, err := ParseTopology(spec.String())
		if err != nil || again != spec {
			t.Fatalf("ParseTopology(%q) = %v, but its String %q parses to %v, %v", s, spec, spec.String(), again, err)
		}
		if _, err := spec.Build(MustDim(4, 4)); err != nil {
			t.Fatalf("ParseTopology(%q) = %v, which does not build on 4x4: %v", s, spec, err)
		}
	})
}

// TestTopologyWalkAllocs pins the walkers allocation-free: the analytical
// hot loops call them per (src,dst) pair and rely on zero heap traffic.
func TestTopologyWalkAllocs(t *testing.T) {
	for _, topo := range []Topology{
		Plain(MustDim(8, 8)),
		TopoSpec{Kind: TopoCMesh, Conc: 4}.MustBuild(MustDim(8, 8)),
	} {
		src, dst := Node{X: 1, Y: 2}, Node{X: 6, Y: 5}
		hops := 0
		// The visitor is hoisted out of the measured function: its one-time
		// closure allocation belongs to the caller, the walk itself must not
		// allocate.
		visit := func(Hop) bool { hops++; return true }
		allocs := testing.AllocsPerRun(100, func() {
			hops = 0
			if err := topo.Walk(src, dst, visit); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: Walk allocates %.1f times per route", topo, allocs)
		}
		if hops == 0 {
			t.Errorf("%v: walk visited no hops", topo)
		}
	}
}
