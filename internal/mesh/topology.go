package mesh

import (
	"fmt"
	"strings"
)

// This file extracts the topology abstraction the rest of the module consumes.
// Historically every layer hardwired the 2D mesh: routers asked XYOutputPort
// for the next port, networks wired neighbours through Dim.Neighbor, the
// analytical engine walked XY geometry inline and the WaW weight derivation
// used the Section III closed forms. A Topology bundles exactly those
// ingredients — an endpoint index space, a router grid with per-node
// neighbour/port tables, a deterministic allocation-free route walker (the
// WalkXY/AppendXYHops shape generalised) and the channel-load counts behind
// the WaW weight table — so the same simulator, analytical engine and daemon
// run unchanged over any instance.
//
// Two topology families ship, and the paper's WCTT bounds hold on both:
//
//   - Mesh (the reference instance): the paper's XY-routed 2D mesh. Every
//     method delegates to the original Dim/XY helpers, so mesh behaviour is
//     bit-identical to the pre-topology code.
//   - CMesh (concentrated mesh): Conc endpoint cores share each router
//     through the Local port. The endpoint space stays a full W×H grid;
//     routers form the (W/cx)×(H/cy) sub-grid and routing is XY over it.
//
// TopoSpec is the comparable, serialisable identity of a topology. It is the
// zero-value-friendly handle configs and cache keys carry (the zero TopoSpec
// is the plain mesh, so every pre-topology struct literal keeps its meaning);
// Build turns it into the behavioural Topology instance.

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

// concFactors splits a CMesh concentration into its (cx, cy) block shape.
func concFactors(conc int) (cx, cy int, err error) {
	switch conc {
	case 0, 4:
		return 2, 2, nil
	case 2:
		return 2, 1, nil
	default:
		return 0, 0, fmt.Errorf("mesh: unsupported cmesh concentration %d (want 2 or 4)", conc)
	}
}

// Build resolves the spec against an endpoint grid and returns the
// behavioural Topology. ep is the index space traffic endpoints live on
// (for CMesh it is the core grid; the router grid is derived by dividing by
// the concentration block, so ep's width/height must be divisible by it).
func (s TopoSpec) Build(ep Dim) (Topology, error) {
	if err := ep.Validate(); err != nil {
		return nil, err
	}
	switch s.Kind {
	case TopoMesh:
		return Mesh2D{D: ep}, nil
	case TopoCMesh:
		cx, cy, err := concFactors(s.Conc)
		if err != nil {
			return nil, err
		}
		if ep.Width%cx != 0 || ep.Height%cy != 0 {
			return nil, fmt.Errorf("mesh: cmesh concentration %dx%d does not divide the %v endpoint grid (width must be a multiple of %d and height of %d)",
				cx, cy, ep, cx, cy)
		}
		return CMesh{EP: ep, R: Dim{Width: ep.Width / cx, Height: ep.Height / cy}, CX: cx, CY: cy}, nil
	default:
		return nil, fmt.Errorf("mesh: unknown topology kind %d", int(s.Kind))
	}
}

// MustBuild is Build for constant arguments; it panics on error.
func (s TopoSpec) MustBuild(ep Dim) Topology {
	t, err := s.Build(ep)
	if err != nil {
		panic(err)
	}
	return t
}

// Topology is the geometry-and-routing contract every layer of the module
// consumes: the simulator wires routers from the neighbour table and asks
// OutputPort per head flit, the analytical engine walks routes through Walk
// and derives contender counts from the input/port existence tables, and the
// WaW weight derivation reads the per-destination channel-load counts.
//
// Two index spaces are involved. Endpoints (traffic sources/destinations,
// the paper's PMEs) live on EndpointDim; routers live on RouterDim. For the
// mesh the two coincide and RouterOf is the identity; for the concentrated
// mesh several endpoints share a router. All routing methods
// take endpoint destinations and resolve the attached router internally.
//
// Implementations are small immutable value types: they are freely copyable,
// comparable, and safe for concurrent use.
type Topology interface {
	// Spec returns the comparable identity of the topology.
	Spec() TopoSpec
	// String renders the canonical name (Spec().String()).
	String() string

	// EndpointDim is the grid traffic endpoints are indexed on.
	EndpointDim() Dim
	// RouterDim is the router grid; per-router state (weight tables,
	// contender arrays, simulator routers) is indexed by RouterDim().Index.
	RouterDim() Dim
	// RouterOf maps an endpoint to its attached router.
	RouterOf(ep Node) Node
	// LocalEndpoints is the number of endpoints attached to router r
	// (the Local-port fan-out; 1 except for the concentrated mesh).
	LocalEndpoints(r Node) int

	// Neighbor returns the router adjacent to r through output direction
	// dir, or false when the port does not exist.
	Neighbor(r Node, dir Direction) (Node, bool)
	// HasOutput reports whether output port out of router r physically
	// exists (Local always does).
	HasOutput(r Node, out Direction) bool

	// OutputPort is the deterministic routing decision: the output port a
	// packet at router `at` with endpoint destination `dst` takes. When the
	// packet has reached dst's router it is ejected through Local.
	OutputPort(at Node, dst Node) Direction
	// Walk invokes fn for every hop of the route between endpoints src and
	// dst in path order without materialising it (fn returning false stops
	// early) — the allocation-free walker the analytical loops rely on.
	Walk(src, dst Node, fn func(hop Hop) bool) error
	// AppendHops appends the route's hops to the caller-owned buffer.
	AppendHops(hops []Hop, src, dst Node) ([]Hop, error)

	// InputLoads returns, for router r, the per-destination-normalised
	// worst-case number of flows arriving through each input port — the
	// I_{port} ingredients of the WaW weight closed forms (Section III of
	// the paper for the mesh; see each implementation for its derivation).
	InputLoads(r Node) [NumDirections]int
	// LocalPairLoad is the per-destination flow count of the Local→Local
	// turn (endpoints sending to a co-located endpoint): 0 unless several
	// endpoints share the router.
	LocalPairLoad(r Node) int
}

// LegalInputsForTopo returns the input ports of router r that physically
// exist (their upstream neighbour exists) and may legally feed output out
// under the dimension-ordered turn rules; the flow's own Local port is
// included when legal. This is the contender set `c` of the chained-blocking
// WCTT analysis: the input ports that may request a given output port.
func LegalInputsForTopo(t Topology, r Node, out Direction) []Direction {
	var inputs []Direction
	for _, in := range Directions {
		if in == Local {
			if LegalTurn(in, out) {
				inputs = append(inputs, in)
			}
			continue
		}
		// The input port named `in` carries flits travelling in direction
		// `in`, arriving from the neighbour in the opposite direction; the
		// port exists only when that neighbour link does.
		if _, ok := t.Neighbor(r, in.Opposite()); !ok {
			continue
		}
		if LegalTurn(in, out) {
			inputs = append(inputs, in)
		}
	}
	return inputs
}

// Mesh2D is the reference Topology: the paper's XY-routed 2D mesh. Every
// method delegates to the original Dim/XY helpers so behaviour (including
// error text and iteration order) is bit-identical to the pre-topology code.
type Mesh2D struct{ D Dim }

// Spec implements Topology.
func (m Mesh2D) Spec() TopoSpec { return TopoSpec{Kind: TopoMesh} }

// String implements Topology.
func (m Mesh2D) String() string { return "mesh" }

// EndpointDim implements Topology.
func (m Mesh2D) EndpointDim() Dim { return m.D }

// RouterDim implements Topology.
func (m Mesh2D) RouterDim() Dim { return m.D }

// RouterOf implements Topology: every endpoint owns its router.
func (m Mesh2D) RouterOf(ep Node) Node { return ep }

// LocalEndpoints implements Topology.
func (m Mesh2D) LocalEndpoints(Node) int { return 1 }

// Neighbor implements Topology.
func (m Mesh2D) Neighbor(r Node, dir Direction) (Node, bool) { return m.D.Neighbor(r, dir) }

// HasOutput implements Topology.
func (m Mesh2D) HasOutput(r Node, out Direction) bool { return OutputExists(m.D, r, out) }

// OutputPort implements Topology with plain XY dimension-ordered routing.
func (m Mesh2D) OutputPort(at, dst Node) Direction { return XYOutputPort(at, dst) }

// Walk implements Topology via the original allocation-free XY walker.
func (m Mesh2D) Walk(src, dst Node, fn func(hop Hop) bool) error {
	return WalkXY(m.D, src, dst, fn)
}

// AppendHops implements Topology via AppendXYHops.
func (m Mesh2D) AppendHops(hops []Hop, src, dst Node) ([]Hop, error) {
	return AppendXYHops(hops, m.D, src, dst)
}

// InputLoads implements Topology with the Section III closed forms:
// I_{X+}=x, I_{X-}=N-x-1, I_{Y+}=N*y, I_{Y-}=N*(M-y-1), I_{PME}=1.
func (m Mesh2D) InputLoads(r Node) [NumDirections]int {
	N, M := m.D.Width, m.D.Height
	var in [NumDirections]int
	in[XPlus] = r.X
	in[XMinus] = N - r.X - 1
	in[YPlus] = N * r.Y
	in[YMinus] = N * (M - r.Y - 1)
	in[Local] = 1
	return in
}

// LocalPairLoad implements Topology: a mesh node never sends to itself.
func (m Mesh2D) LocalPairLoad(Node) int { return 0 }

// CMesh is the concentrated mesh: CX×CY blocks of the endpoint grid share
// one router through its Local port (Conc = CX*CY cores per router, the
// "Local port fan-out"). The endpoint index space stays the full EP grid —
// traffic patterns, flow IDs and WCTT queries are expressed on cores — while
// the fabric is a plain XY-routed R mesh of routers, so the paper's
// chained-blocking argument transfers with every channel load scaled by the
// concentration (see InputLoads).
type CMesh struct {
	EP     Dim // endpoint (core) grid
	R      Dim // router grid: EP scaled down by the concentration block
	CX, CY int // concentration block shape (cores per router = CX*CY)
}

// Spec implements Topology.
func (c CMesh) Spec() TopoSpec { return TopoSpec{Kind: TopoCMesh, Conc: c.CX * c.CY} }

// String implements Topology.
func (c CMesh) String() string { return c.Spec().String() }

// EndpointDim implements Topology.
func (c CMesh) EndpointDim() Dim { return c.EP }

// RouterDim implements Topology.
func (c CMesh) RouterDim() Dim { return c.R }

// RouterOf implements Topology: block mapping, core (x,y) attaches to
// router (x/CX, y/CY).
func (c CMesh) RouterOf(ep Node) Node { return Node{X: ep.X / c.CX, Y: ep.Y / c.CY} }

// LocalEndpoints implements Topology.
func (c CMesh) LocalEndpoints(Node) int { return c.CX * c.CY }

// Neighbor implements Topology: plain mesh adjacency on the router grid.
func (c CMesh) Neighbor(r Node, dir Direction) (Node, bool) { return c.R.Neighbor(r, dir) }

// HasOutput implements Topology.
func (c CMesh) HasOutput(r Node, out Direction) bool { return OutputExists(c.R, r, out) }

// OutputPort implements Topology: XY routing over the router grid towards
// the destination core's router; co-located destinations eject immediately
// (the Local→Local turn, legal under the XY turn rules).
func (c CMesh) OutputPort(at, dst Node) Direction {
	return XYOutputPort(at, c.RouterOf(dst))
}

// Walk implements Topology: follow OutputPort hop by hop from the source's
// router until ejection. Like WalkXY it performs no heap allocations (the
// Walk alloc test pins this). A route between co-located cores is the single
// Local→Local hop through their shared router.
func (c CMesh) Walk(src, dst Node, fn func(hop Hop) bool) error {
	if err := CheckEndpoints(c.EP, src, dst); err != nil {
		return err
	}
	at := c.RouterOf(src)
	in := Local
	for {
		out := c.OutputPort(at, dst)
		if !fn(Hop{Router: at, In: in, Out: out}) || out == Local {
			return nil
		}
		next, ok := c.R.Neighbor(at, out)
		if !ok {
			return fmt.Errorf("mesh: %v routing left the fabric at %v towards %v (dst %v)", c, at, out, dst)
		}
		in = out
		at = next
	}
}

// AppendHops implements Topology: Walk into the caller-owned buffer.
func (c CMesh) AppendHops(hops []Hop, src, dst Node) ([]Hop, error) {
	err := c.Walk(src, dst, func(h Hop) bool {
		hops = append(hops, h)
		return true
	})
	return hops, err
}

// InputLoads implements Topology: the mesh closed forms on the router grid
// with every count scaled by the concentration — each upstream router now
// aggregates Conc cores, and the Local input injects Conc per-destination
// flows (one per attached core): I_{X+}=Conc·x, I_{X-}=Conc·(n-x-1),
// I_{Y+}=Conc·n·y, I_{Y-}=Conc·n·(m-y-1), I_{PME}=Conc, with (n,m) the
// router-grid dimensions. Destination-independence holds by the same XY
// argument as the mesh, so the WCTT bounds transfer.
func (c CMesh) InputLoads(r Node) [NumDirections]int {
	n, m := c.R.Width, c.R.Height
	conc := c.CX * c.CY
	var in [NumDirections]int
	in[XPlus] = conc * r.X
	in[XMinus] = conc * (n - r.X - 1)
	in[YPlus] = conc * n * r.Y
	in[YMinus] = conc * n * (m - r.Y - 1)
	in[Local] = conc
	return in
}

// LocalPairLoad implements Topology: towards a destination core, the other
// Conc-1 cores of its own router send through the Local→Local turn.
func (c CMesh) LocalPairLoad(Node) int { return c.CX*c.CY - 1 }
