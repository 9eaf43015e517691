package mesh

import "fmt"

// XY routing (dimension-ordered routing) is the deterministic, deadlock-free
// routing algorithm assumed throughout the paper: a packet first travels along
// the X dimension until it reaches the destination column and then along the
// Y dimension until it reaches the destination row. A consequence exploited
// by the WaW weight derivation is that flits arriving from a Y port can never
// be forwarded to an X port.

// XYOutputPort returns the output port a packet located at router `at` with
// destination `dst` takes under XY routing. When at == dst the packet is
// ejected through the Local port.
func XYOutputPort(at, dst Node) Direction {
	switch {
	case dst.X > at.X:
		return XPlus
	case dst.X < at.X:
		return XMinus
	case dst.Y > at.Y:
		return YPlus
	case dst.Y < at.Y:
		return YMinus
	default:
		return Local
	}
}

// Hop describes one router traversal of a route: the router visited, the
// input port the packet arrives through and the output port it leaves
// through.
type Hop struct {
	Router Node
	In     Direction
	Out    Direction
}

// String renders the hop as "router[in->out]".
func (h Hop) String() string {
	return fmt.Sprintf("%v[%v->%v]", h.Router, h.In, h.Out)
}

// CheckEndpoints validates the endpoints of a route request, with the same
// errors every route constructor reports. Exposed so analytical code that
// walks routes through its own flat-indexed state validates identically.
func CheckEndpoints(d Dim, src, dst Node) error {
	if !d.Contains(src) {
		return fmt.Errorf("mesh: route source %v outside %v mesh", src, d)
	}
	if !d.Contains(dst) {
		return fmt.Errorf("mesh: route destination %v outside %v mesh", dst, d)
	}
	return nil
}

// WalkXY invokes fn for every hop of the XY route from src to dst on the
// plain mesh d, in path order (source router first), without materialising
// the route: Plain(d).Walk. fn returning false stops the walk early. WalkXY
// performs no heap allocations, which is what the analytical hot loops
// (O(N^2) flow enumerations) rely on.
func WalkXY(d Dim, src, dst Node, fn func(hop Hop) bool) error { return Plain(d).Walk(src, dst, fn) }

// LegalTurn reports whether a packet entering a router through input port
// `in` may leave through output port `out` under XY routing. The XY
// discipline forbids turning from the Y dimension back into the X dimension
// and forbids U-turns. Packets injected locally (in == Local) may take any
// output; any packet may be ejected locally.
func LegalTurn(in, out Direction) bool {
	if !in.Valid() || !out.Valid() {
		return false
	}
	if out == Local {
		return true
	}
	if in == Local {
		return true
	}
	// No U-turns: a flit travelling in +X cannot leave towards -X, etc.
	// Note input ports are named after the travel direction, so a U-turn is
	// in == out.Opposite()... with the travel-direction naming, a flit that
	// entered travelling X+ and leaves travelling X- reverses direction,
	// which XY routing never does.
	if in == out.Opposite() {
		return false
	}
	// Y-to-X turns are illegal under XY routing.
	if in.IsY() && out.IsX() {
		return false
	}
	return true
}

// OutputExists reports whether the output port `out` of the router at node n
// physically exists in mesh d (i.e. it leads to a neighbour, or it is the
// Local ejection port).
func OutputExists(d Dim, n Node, out Direction) bool {
	if out == Local {
		return true
	}
	return d.HasNeighbor(n, out)
}
