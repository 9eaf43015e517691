package mesh

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestDirectionString(t *testing.T) {
	cases := map[Direction]string{
		XPlus:  "X+",
		XMinus: "X-",
		YPlus:  "Y+",
		YMinus: "Y-",
		Local:  "PME",
	}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("Direction(%d).String() = %q, want %q", int(d), got, want)
		}
	}
	if got := Direction(42).String(); got != "Direction(42)" {
		t.Errorf("unknown direction string = %q", got)
	}
}

func TestDirectionOpposite(t *testing.T) {
	cases := map[Direction]Direction{
		XPlus:  XMinus,
		XMinus: XPlus,
		YPlus:  YMinus,
		YMinus: YPlus,
		Local:  Local,
	}
	for d, want := range cases {
		if got := d.Opposite(); got != want {
			t.Errorf("%v.Opposite() = %v, want %v", d, got, want)
		}
		if d != Local && d.Opposite().Opposite() != d {
			t.Errorf("%v: Opposite is not an involution", d)
		}
	}
}

func TestDirectionAxisPredicates(t *testing.T) {
	if !XPlus.IsX() || !XMinus.IsX() {
		t.Error("X+ and X- must report IsX")
	}
	if !YPlus.IsY() || !YMinus.IsY() {
		t.Error("Y+ and Y- must report IsY")
	}
	if Local.IsX() || Local.IsY() {
		t.Error("Local must be neither X nor Y")
	}
	if XPlus.IsY() || YMinus.IsX() {
		t.Error("axis predicates mixed up")
	}
}

func TestDirectionValid(t *testing.T) {
	for _, d := range Directions {
		if !d.Valid() {
			t.Errorf("%v should be valid", d)
		}
	}
	if Direction(-1).Valid() || Direction(NumDirections).Valid() {
		t.Error("out-of-range directions should be invalid")
	}
}

func TestNewDim(t *testing.T) {
	d, err := NewDim(4, 3)
	if err != nil {
		t.Fatalf("NewDim(4,3) error: %v", err)
	}
	if d.Width != 4 || d.Height != 3 {
		t.Errorf("unexpected dim %+v", d)
	}
	if d.Nodes() != 12 {
		t.Errorf("Nodes() = %d, want 12", d.Nodes())
	}
	if d.String() != "4x3" {
		t.Errorf("String() = %q, want 4x3", d.String())
	}
	for _, bad := range [][2]int{{0, 4}, {4, 0}, {-1, 2}, {2, -3}, {0, 0}} {
		if _, err := NewDim(bad[0], bad[1]); err == nil {
			t.Errorf("NewDim(%d,%d) should fail", bad[0], bad[1])
		}
	}
}

func TestMustDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustDim(0,0) should panic")
		}
	}()
	MustDim(0, 0)
}

func TestIndexNodeAtRoundTrip(t *testing.T) {
	d := MustDim(5, 7)
	seen := make(map[int]bool)
	for _, n := range d.AllNodes() {
		idx := d.Index(n)
		if idx < 0 || idx >= d.Nodes() {
			t.Fatalf("index %d out of range for %v", idx, n)
		}
		if seen[idx] {
			t.Fatalf("duplicate index %d", idx)
		}
		seen[idx] = true
		if back := d.NodeAt(idx); back != n {
			t.Errorf("NodeAt(Index(%v)) = %v", n, back)
		}
	}
	if len(seen) != d.Nodes() {
		t.Errorf("expected %d distinct indices, got %d", d.Nodes(), len(seen))
	}
}

func TestIndexPanicsOutside(t *testing.T) {
	d := MustDim(2, 2)
	defer func() {
		if recover() == nil {
			t.Error("Index of outside node should panic")
		}
	}()
	d.Index(Node{X: 5, Y: 0})
}

func TestNodeAtPanicsOutside(t *testing.T) {
	d := MustDim(2, 2)
	defer func() {
		if recover() == nil {
			t.Error("NodeAt out of range should panic")
		}
	}()
	d.NodeAt(4)
}

func TestAllNodesOrder(t *testing.T) {
	d := MustDim(3, 2)
	nodes := d.AllNodes()
	want := []Node{{0, 0}, {1, 0}, {2, 0}, {0, 1}, {1, 1}, {2, 1}}
	if len(nodes) != len(want) {
		t.Fatalf("AllNodes len = %d, want %d", len(nodes), len(want))
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Errorf("AllNodes[%d] = %v, want %v", i, nodes[i], want[i])
		}
	}
}

func TestNeighbor(t *testing.T) {
	d := MustDim(4, 4)
	center := Node{X: 1, Y: 1}
	cases := []struct {
		dir  Direction
		want Node
		ok   bool
	}{
		{XPlus, Node{2, 1}, true},
		{XMinus, Node{0, 1}, true},
		{YPlus, Node{1, 2}, true},
		{YMinus, Node{1, 0}, true},
		{Local, Node{}, false},
	}
	for _, c := range cases {
		got, ok := d.Neighbor(center, c.dir)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("Neighbor(%v,%v) = %v,%v want %v,%v", center, c.dir, got, ok, c.want, c.ok)
		}
	}
	// Boundary checks at the top-left corner.
	corner := Node{X: 0, Y: 0}
	if _, ok := d.Neighbor(corner, XMinus); ok {
		t.Error("corner should have no X- neighbour")
	}
	if _, ok := d.Neighbor(corner, YMinus); ok {
		t.Error("corner should have no Y- neighbour")
	}
	if n, ok := d.Neighbor(corner, XPlus); !ok || n != (Node{1, 0}) {
		t.Errorf("corner X+ neighbour = %v,%v", n, ok)
	}
}

func TestDegreeCornerEdgeInterior(t *testing.T) {
	d := MustDim(4, 4)
	if got := d.DegreeOf(Node{0, 0}); got != 2 {
		t.Errorf("corner degree = %d, want 2", got)
	}
	if got := d.DegreeOf(Node{1, 0}); got != 3 {
		t.Errorf("edge degree = %d, want 3", got)
	}
	if got := d.DegreeOf(Node{1, 1}); got != 4 {
		t.Errorf("interior degree = %d, want 4", got)
	}
}

func TestManhattanDistance(t *testing.T) {
	a := Node{0, 0}
	b := Node{3, 2}
	if got := a.ManhattanDistance(b); got != 5 {
		t.Errorf("distance = %d, want 5", got)
	}
	if got := b.ManhattanDistance(a); got != 5 {
		t.Errorf("distance must be symmetric, got %d", got)
	}
	if got := a.ManhattanDistance(a); got != 0 {
		t.Errorf("self distance = %d, want 0", got)
	}
}

func TestXYOutputPort(t *testing.T) {
	at := Node{2, 2}
	cases := []struct {
		dst  Node
		want Direction
	}{
		{Node{3, 2}, XPlus},
		{Node{0, 2}, XMinus},
		{Node{2, 3}, YPlus},
		{Node{2, 0}, YMinus},
		{Node{2, 2}, Local},
		// X has priority over Y under XY routing.
		{Node{3, 0}, XPlus},
		{Node{0, 3}, XMinus},
	}
	for _, c := range cases {
		if got := XYOutputPort(at, c.dst); got != c.want {
			t.Errorf("XYOutputPort(%v,%v) = %v, want %v", at, c.dst, got, c.want)
		}
	}
}

func TestXYRouteSimple(t *testing.T) {
	d := MustDim(4, 4)
	hops, err := appendHops(Plain(d), Node{0, 0}, Node{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Expect routers (0,0) (1,0) (2,0) (2,1): four routers, three links.
	wantRouters := []Node{{0, 0}, {1, 0}, {2, 0}, {2, 1}}
	if len(hops) != len(wantRouters) {
		t.Fatalf("route has %d hops, want %d: %v", len(hops), len(wantRouters), hops)
	}
	for i, h := range hops {
		if h.Router != wantRouters[i] {
			t.Errorf("hop %d router = %v, want %v", i, h.Router, wantRouters[i])
		}
	}
	if hops[0].In != Local {
		t.Errorf("first hop input = %v, want Local", hops[0].In)
	}
	if hops[len(hops)-1].Out != Local {
		t.Errorf("last hop output = %v, want Local", hops[len(hops)-1].Out)
	}
}

func TestXYRouteSelf(t *testing.T) {
	d := MustDim(3, 3)
	hops, err := appendHops(Plain(d), Node{1, 1}, Node{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 1 {
		t.Fatalf("self route should have exactly 1 hop, got %d", len(hops))
	}
	if hops[0].In != Local || hops[0].Out != Local {
		t.Errorf("self route hop = %v", hops[0])
	}
}

func TestXYRouteErrors(t *testing.T) {
	d := MustDim(3, 3)
	if _, err := appendHops(Plain(d), Node{5, 0}, Node{0, 0}); err == nil {
		t.Error("expected error for source outside mesh")
	}
	if _, err := appendHops(Plain(d), Node{0, 0}, Node{0, 9}); err == nil {
		t.Error("expected error for destination outside mesh")
	}
}

// Property: XY routes are minimal (hop count equals Manhattan distance), the
// X phase always precedes the Y phase, every hop is a legal turn and the
// route stays within the mesh.
func TestXYRouteProperties(t *testing.T) {
	d := MustDim(8, 8)
	f := func(sx, sy, dx, dy uint8) bool {
		src := Node{X: int(sx) % d.Width, Y: int(sy) % d.Height}
		dst := Node{X: int(dx) % d.Width, Y: int(dy) % d.Height}
		hops, err := appendHops(Plain(d), src, dst)
		if err != nil {
			return false
		}
		if len(hops)-1 != src.ManhattanDistance(dst) {
			return false
		}
		seenY := false
		for i, h := range hops {
			if !d.Contains(h.Router) {
				return false
			}
			if !LegalTurn(h.In, h.Out) {
				return false
			}
			if h.Out.IsY() {
				seenY = true
			}
			if seenY && h.Out.IsX() {
				return false // Y before X violates dimension order
			}
			if i == 0 && h.In != Local {
				return false
			}
			if i == len(hops)-1 && h.Out != Local {
				return false
			}
		}
		// Consecutive hops must be neighbours connected by the output port.
		for i := 0; i+1 < len(hops); i++ {
			next, ok := d.Neighbor(hops[i].Router, hops[i].Out)
			if !ok || next != hops[i+1].Router {
				return false
			}
			if hops[i+1].In != hops[i].Out {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestLegalTurn(t *testing.T) {
	cases := []struct {
		in, out Direction
		want    bool
	}{
		{Local, XPlus, true},
		{Local, Local, true},
		{XPlus, Local, true},
		{XPlus, XPlus, true},
		{XPlus, YPlus, true},
		{XPlus, YMinus, true},
		{XPlus, XMinus, false}, // U-turn
		{YPlus, XPlus, false},  // Y-to-X forbidden by XY routing
		{YPlus, XMinus, false},
		{YPlus, YPlus, true},
		{YPlus, YMinus, false}, // U-turn
		{YMinus, Local, true},
		{YMinus, YMinus, true},
		{Direction(9), XPlus, false},
		{XPlus, Direction(9), false},
	}
	for _, c := range cases {
		if got := LegalTurn(c.in, c.out); got != c.want {
			t.Errorf("LegalTurn(%v,%v) = %v, want %v", c.in, c.out, got, c.want)
		}
	}
}

// legalSet lists the inputs of a legal-input mask in Directions order.
func legalSet(mask uint8) []Direction {
	var ins []Direction
	for _, in := range Directions {
		if mask&(1<<in) != 0 {
			ins = append(ins, in)
		}
	}
	return ins
}

func TestLegalInputsForInterior(t *testing.T) {
	legal, _ := Plain(MustDim(4, 4)).Ports(Node{1, 1}) // interior node, all neighbours exist
	for _, c := range []struct {
		out  Direction
		want []Direction
	}{
		// Output Y+ can be fed by X+, X-, Y+ (continuing) and Local.
		{YPlus, []Direction{XPlus, XMinus, YPlus, Local}},
		// Output X+ can be fed by X+ (continuing) and Local only.
		{XPlus, []Direction{XPlus, Local}},
		// Output Local can be fed by all four network inputs plus Local.
		{Local, []Direction{XPlus, XMinus, YPlus, YMinus, Local}},
	} {
		if got := legalSet(legal[c.out]); !slices.Equal(got, c.want) {
			t.Errorf("interior %v inputs = %v, want %v", c.out, got, c.want)
		}
	}
}

func TestLegalInputsForBoundary(t *testing.T) {
	topo := Plain(MustDim(4, 4))
	// Top-left corner (0,0): no X+ input (no west neighbour), no Y+ input
	// (no north neighbour). Existing inputs: X- (from east neighbour), Y-
	// (from south neighbour), Local.
	legal, _ := topo.Ports(Node{0, 0})
	if got, want := legalSet(legal[Local]), []Direction{XMinus, YMinus, Local}; !slices.Equal(got, want) {
		t.Errorf("corner Local inputs = %v, want %v", got, want)
	}
	// Column 0 node (0,2): output Y- can be fed by X- (flits travelling
	// westwards turning), Y- (continuing) and Local. The X+ input does not
	// exist because there is no west neighbour.
	legal, _ = topo.Ports(Node{0, 2})
	if got, want := legalSet(legal[YMinus]), []Direction{XMinus, YMinus, Local}; !slices.Equal(got, want) {
		t.Errorf("column-0 Y- inputs = %v, want %v", got, want)
	}
}

// TestPortsMatchTurnRules: on every router of several grids and
// concentrations, legal[out] holds exactly the inputs LegalTurn lets reach
// out whose upstream neighbour exists (Local always does), and the output
// mask exactly the outputs OutputExists reports.
func TestPortsMatchTurnRules(t *testing.T) {
	for _, spec := range []TopoSpec{{}, {Kind: TopoCMesh, Conc: 2}, {Kind: TopoCMesh, Conc: 4}} {
		for _, ep := range []Dim{MustDim(1, 1), MustDim(4, 4), MustDim(8, 2), MustDim(2, 6)} {
			topo, err := spec.Build(ep)
			if err != nil {
				continue // the concentration does not tile this grid
			}
			for _, r := range topo.RouterDim().AllNodes() {
				legal, outputs := topo.Ports(r)
				for _, d := range Directions {
					var want uint8
					for _, in := range Directions {
						if _, ok := topo.Neighbor(r, in.Opposite()); (ok || in == Local) && LegalTurn(in, d) {
							want |= 1 << in
						}
					}
					if legal[d] != want {
						t.Errorf("%v %v router %v output %v: legal inputs %05b, want %05b", spec, ep, r, d, legal[d], want)
					}
					if has := outputs&(1<<d) != 0; has != OutputExists(topo.RouterDim(), r, d) {
						t.Errorf("%v %v router %v: output %v in mask %v, OutputExists %v", spec, ep, r, d, has, !has)
					}
				}
			}
		}
	}
}

func TestOutputExists(t *testing.T) {
	d := MustDim(3, 3)
	if !OutputExists(d, Node{0, 0}, Local) {
		t.Error("Local output must always exist")
	}
	if OutputExists(d, Node{0, 0}, XMinus) {
		t.Error("X- output should not exist at column 0")
	}
	if !OutputExists(d, Node{0, 0}, XPlus) {
		t.Error("X+ output should exist at (0,0)")
	}
	if OutputExists(d, Node{2, 2}, YPlus) {
		t.Error("Y+ output should not exist at the bottom row")
	}
}

func TestHopString(t *testing.T) {
	h := Hop{Router: Node{1, 2}, In: Local, Out: XPlus}
	if got := h.String(); got != "(1,2)[PME->X+]" {
		t.Errorf("Hop.String() = %q", got)
	}
}

func TestNodeString(t *testing.T) {
	if got := (Node{3, 4}).String(); got != "(3,4)" {
		t.Errorf("Node.String() = %q", got)
	}
}
