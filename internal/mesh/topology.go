package mesh

import (
	"fmt"
	"strings"
)

// This file holds the one topology the rest of the module consumes: the
// XY-routed router grid with a block of cores on each Local port, the way
// BookSim2 writes a concentrated mesh as a mesh with concentration c. The
// paper's 2D mesh is the 1×1 block (c = 1, every core owns its router);
// cmesh2 and cmesh4 put a 2×1 or 2×2 block of cores behind each router. A
// Topology bundles the endpoint index space, the router grid with its
// neighbour/port tables, the routing decision, an allocation-free route
// walker and the channel-load counts behind the WaW weight table, so the
// simulator, the analytical engine and the daemon run unchanged over every
// block shape, and the paper's WCTT bounds hold on all of them.
//
// TopoSpec is the comparable, serialisable identity of a topology. It is the
// zero-value-friendly handle configs and cache keys carry (the zero TopoSpec
// is the plain mesh, so every pre-topology struct literal keeps its meaning);
// Build turns it into a Topology.

// TopoKind enumerates the supported topology families.
type TopoKind int

const (
	// TopoMesh is the paper's XY-routed 2D mesh (the zero value: every
	// pre-topology Config/Params literal denotes it implicitly).
	TopoMesh TopoKind = iota
	// TopoCMesh is the concentrated mesh: Conc endpoint cores per router,
	// XY routing over the reduced router grid.
	TopoCMesh
)

// String returns the canonical lower-case name used by CLI flags, scenario
// specs and the wire protocol.
func (k TopoKind) String() string {
	switch k {
	case TopoMesh:
		return "mesh"
	case TopoCMesh:
		return "cmesh"
	default:
		return fmt.Sprintf("TopoKind(%d)", int(k))
	}
}

// DefaultCMeshConc is the concentration factor "cmesh" denotes when no
// explicit factor is given: 4 cores per router in 2×2 blocks, the classic
// CMesh configuration.
const DefaultCMeshConc = 4

// TopoSpec is the comparable identity of a topology: the family plus its
// family-specific parameters. The zero value means the plain 2D mesh, so
// structs that gained a TopoSpec field keep their pre-topology meaning when
// it is left unset. TopoSpec is intentionally a small value type: it is used
// directly inside cache keys (the scenario layer's model cache, through
// analysis.Params) and compared with ==.
type TopoSpec struct {
	Kind TopoKind
	// Conc is the number of endpoint cores per router for TopoCMesh
	// (0 selects DefaultCMeshConc); it must be 2 (2×1 blocks) or 4 (2×2
	// blocks). Ignored for the other kinds.
	Conc int
}

// String renders the spec in the canonical flag syntax: "mesh", "cmesh"
// (default concentration) or "cmesh2".
func (s TopoSpec) String() string {
	if s.Kind == TopoCMesh && s.Conc != 0 && s.Conc != DefaultCMeshConc {
		return fmt.Sprintf("cmesh%d", s.Conc)
	}
	return s.Kind.String()
}

// ParseTopology parses the canonical topology names: "" or "mesh" (the
// default), "cmesh" (4 cores per router) and "cmesh2"/"cmesh4" (explicit
// concentration). Matching is case-insensitive.
func ParseTopology(s string) (TopoSpec, error) {
	switch t := strings.ToLower(strings.TrimSpace(s)); t {
	case "", "mesh":
		return TopoSpec{Kind: TopoMesh}, nil
	case "cmesh":
		return TopoSpec{Kind: TopoCMesh, Conc: DefaultCMeshConc}, nil
	case "cmesh2":
		return TopoSpec{Kind: TopoCMesh, Conc: 2}, nil
	case "cmesh4":
		return TopoSpec{Kind: TopoCMesh, Conc: 4}, nil
	default:
		return TopoSpec{}, fmt.Errorf("mesh: unknown topology %q (want mesh, cmesh, cmesh2 or cmesh4)", s)
	}
}

// Build resolves the spec against an endpoint grid. ep is the index space
// traffic endpoints live on; the router grid is ep divided by the
// concentration block, so ep's width/height must be divisible by it.
func (s TopoSpec) Build(ep Dim) (Topology, error) {
	if err := ep.Validate(); err != nil {
		return Topology{}, err
	}
	t := Topology{ep: ep}
	switch s.Kind {
	case TopoMesh:
	case TopoCMesh:
		switch s.Conc {
		case 0, 4:
			t.sx, t.sy = 1, 1
		case 2:
			t.sx = 1
		default:
			return Topology{}, fmt.Errorf("mesh: unsupported cmesh concentration %d (want 2 or 4)", s.Conc)
		}
		cx, cy := 1<<t.sx, 1<<t.sy
		if ep.Width%cx != 0 || ep.Height%cy != 0 {
			return Topology{}, fmt.Errorf("mesh: cmesh concentration %dx%d does not divide the %v endpoint grid (width must be a multiple of %d and height of %d)",
				cx, cy, ep, cx, cy)
		}
	default:
		return Topology{}, fmt.Errorf("mesh: unknown topology kind %d", int(s.Kind))
	}
	return t, nil
}

// MustBuild is Build for constant arguments; it panics on error.
func (s TopoSpec) MustBuild(ep Dim) Topology {
	t, err := s.Build(ep)
	if err != nil {
		panic(err)
	}
	return t
}

// Plain returns the paper's XY-routed 2D mesh on d: the 1×1 block, where
// every endpoint owns its router. It is the topology of the helpers that
// take a bare Dim (WalkXY, the weight tables of package flows).
func Plain(d Dim) Topology { return Topology{ep: d} }

// Topology is the XY-routed router grid with a 2^sx × 2^sy block of endpoint
// cores on each router's Local port: the simulator wires routers from its
// neighbour table and routes each head flit XY to RouterOf its destination
// (a packet at that router is ejected through Local, for co-located cores
// the Local→Local turn), the analytical engine
// maps endpoints through RouterOf and derives contender counts from the port
// tables, and the WaW weight derivation reads InputLoads.
//
// Two index spaces are involved. Endpoints (traffic sources/destinations,
// the paper's PMEs) live on the grid the topology was built on; routers live
// on RouterDim. Endpoint
// (x,y) attaches to router (x>>sx, y>>sy): the identity on the mesh (0/0),
// a 2×1 block on cmesh2 (1/0) and a 2×2 block on cmesh4 (1/1). Every routing
// method takes endpoint destinations and resolves the attached router
// itself.
//
// A Topology is a small comparable value, built only by TopoSpec.Build and
// Plain, and safe for concurrent use. It is three words, so the compiler
// keeps it in registers where RouterOf inlines; the router grid is derived,
// not stored.
type Topology struct {
	ep     Dim   // endpoint (core) grid
	sx, sy uint8 // log2 of the block's width and height
}

// String renders the canonical name, as TopoSpec.String does.
func (t Topology) String() string {
	if t.sx+t.sy == 0 {
		return TopoSpec{}.String()
	}
	return TopoSpec{Kind: TopoCMesh, Conc: t.LocalEndpoints()}.String()
}

// RouterDim is the router grid; per-router state (weight tables, contender
// arrays, simulator routers) is indexed by RouterDim().Index.
func (t Topology) RouterDim() Dim {
	r := t.RouterOf(Node{X: t.ep.Width, Y: t.ep.Height})
	return Dim{Width: r.X, Height: r.Y}
}

// RouterOf maps an endpoint to its attached router. The masks change no
// value (a shift is 0 or 1) but let the compiler drop its out-of-range shift
// handling.
func (t Topology) RouterOf(ep Node) Node { return Node{X: ep.X >> (t.sx & 7), Y: ep.Y >> (t.sy & 7)} }

// BlockOrigin returns the first endpoint of router r's block of cores (the
// block's lowest column and row): r itself on the mesh.
func (t Topology) BlockOrigin(r Node) Node { return Node{X: r.X << (t.sx & 7), Y: r.Y << (t.sy & 7)} }

// LocalEndpoints is the number of endpoints attached to each router (the
// Local-port fan-out, or concentration c): 1 on the mesh.
func (t Topology) LocalEndpoints() int { return 1 << (t.sx + t.sy) }

// Neighbor returns the router adjacent to r through output direction dir,
// or false when the port does not exist.
func (t Topology) Neighbor(r Node, dir Direction) (Node, bool) { return t.RouterDim().Neighbor(r, dir) }

// HasOutput reports whether output port out of router r physically exists
// (Local always does).
func (t Topology) HasOutput(r Node, out Direction) bool { return OutputExists(t.RouterDim(), r, out) }

// Walk invokes fn for every hop of the route between endpoints src and dst
// in path order, without materialising it (fn returning false stops early)
// and without heap allocations, which the analytical loops rely on. A route
// between co-located cores is the single Local→Local hop through their
// shared router.
func (t Topology) Walk(src, dst Node, fn func(hop Hop) bool) error {
	if err := CheckEndpoints(t.ep, src, dst); err != nil {
		return err
	}
	rd, at, to, in := t.RouterDim(), t.RouterOf(src), t.RouterOf(dst), Local
	for {
		out := XYOutputPort(at, to)
		if !fn(Hop{Router: at, In: in, Out: out}) || out == Local {
			return nil
		}
		// XY routing never leaves the grid for valid endpoints: out always
		// points towards dst's router, which lies inside it.
		at, _ = rd.Neighbor(at, out)
		in = out // the downstream router receives the flit on the port named after the travel direction
	}
}

// InputLoads returns, for router r, the per-destination-normalised
// worst-case number of flows arriving through each input port — the
// I_{port} ingredients of the WaW weight closed forms. They are the Section
// III forms on the router grid (n×m) scaled by the concentration c, since
// each upstream router aggregates c cores and the Local input injects one
// flow per attached core: I_{X+}=c·x, I_{X-}=c·(n-x-1), I_{Y+}=c·n·y,
// I_{Y-}=c·n·(m-y-1), I_{PME}=c. With c = 1 these are the paper's mesh
// forms; destination-independence holds by the same XY argument, so the
// WCTT bounds transfer.
func (t Topology) InputLoads(r Node) [NumDirections]int {
	rd := t.RouterDim()
	n, m := rd.Width, rd.Height
	c := t.LocalEndpoints()
	var in [NumDirections]int
	in[XPlus] = c * r.X
	in[XMinus] = c * (n - r.X - 1)
	in[YPlus] = c * n * r.Y
	in[YMinus] = c * n * (m - r.Y - 1)
	in[Local] = c
	return in
}

// LocalPairLoad is the per-destination flow count of the Local→Local turn:
// towards a destination core, the other c-1 cores of its router send
// through it (0 on the mesh, where a node never sends to itself).
func (t Topology) LocalPairLoad() int { return t.LocalEndpoints() - 1 }

// legalInputMask[out] has bit in set when LegalTurn(in, out): the inputs
// dimension-ordered routing lets reach output out, wherever the router sits.
var legalInputMask = func() (m [NumDirections]uint8) {
	for _, out := range Directions {
		for _, in := range Directions {
			if LegalTurn(in, out) {
				m[out] |= 1 << in
			}
		}
	}
	return m
}()

// Ports returns the ports of router r as bitmasks with bit d set for port d,
// read off r's position without allocating: outputs holds the outputs that
// lead to a neighbour, plus Local (what HasOutput answers port by port), and
// legal[out] the inputs that exist and may feed output out under the
// dimension-ordered turn rules, Local included when legal. The input port
// named in carries flits travelling in direction in, so it exists where
// output in.Opposite() does. The popcount of legal[out] is the contender set
// `c` of the chained-blocking WCTT analysis.
func (t Topology) Ports(r Node) (legal [NumDirections]uint8, outputs uint8) {
	rd := t.RouterDim()
	inputs := uint8(1) << Local
	outputs = inputs
	if r.X > 0 {
		inputs, outputs = inputs|1<<XPlus, outputs|1<<XMinus
	}
	if r.X < rd.Width-1 {
		inputs, outputs = inputs|1<<XMinus, outputs|1<<XPlus
	}
	if r.Y > 0 {
		inputs, outputs = inputs|1<<YPlus, outputs|1<<YMinus
	}
	if r.Y < rd.Height-1 {
		inputs, outputs = inputs|1<<YMinus, outputs|1<<YPlus
	}
	for out, mask := range legalInputMask {
		legal[out] = inputs & mask
	}
	return legal, outputs
}
