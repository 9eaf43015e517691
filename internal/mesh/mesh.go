// Package mesh models the 2D-mesh topology used by the wormhole NoC designs
// studied in Panic et al., "Improving Performance Guarantees in Wormhole Mesh
// NoC Designs" (DATE 2016): node coordinates, router port directions, XY
// dimension-ordered routing and path enumeration.
//
// # Conventions
//
// A mesh has Width (N, the horizontal dimension, paper notation N) columns and
// Height (M, the vertical dimension) rows. A node is identified by its column
// X in [0, Width) and its row Y in [0, Height). Node (0,0) is the top-left
// corner, matching Figure 1(a) of the paper where router R(0,0) sits in the
// top-left and R(3,3) in the bottom-right of a 4x4 mesh.
//
// Directions are named after the direction of travel of the flits that use
// them: a flit moving in +X (eastwards, towards larger X) leaves a router
// through its XPlus output port and enters the next router through that
// router's XPlus input port. The local injection/ejection port is called
// Local and corresponds to the PME (processor/memory element) port of the
// paper.
package mesh

import "fmt"

// Direction identifies one of the five router ports of a 2D-mesh router.
// The numerical order is stable and used to index per-port arrays.
type Direction int

const (
	// XPlus is the port used by flits travelling towards larger X
	// (eastwards). As an input port it faces the X-1 neighbour.
	XPlus Direction = iota
	// XMinus is the port used by flits travelling towards smaller X
	// (westwards). As an input port it faces the X+1 neighbour.
	XMinus
	// YPlus is the port used by flits travelling towards larger Y
	// (downwards in the paper's figures). As an input port it faces the
	// Y-1 neighbour.
	YPlus
	// YMinus is the port used by flits travelling towards smaller Y
	// (upwards). As an input port it faces the Y+1 neighbour.
	YMinus
	// Local is the processor/memory element (PME) port used for
	// injection and ejection at the node attached to the router.
	Local

	// NumDirections is the number of router ports.
	NumDirections = 5
)

// Directions lists every port direction in index order.
var Directions = [NumDirections]Direction{XPlus, XMinus, YPlus, YMinus, Local}

// String returns the paper-style name of the direction.
func (d Direction) String() string {
	switch d {
	case XPlus:
		return "X+"
	case XMinus:
		return "X-"
	case YPlus:
		return "Y+"
	case YMinus:
		return "Y-"
	case Local:
		return "PME"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Valid reports whether d is one of the five defined directions.
func (d Direction) Valid() bool {
	return d >= XPlus && d <= Local
}

// Opposite returns the direction a flit travelling in direction d enters the
// next router from, i.e. the port of the downstream router that is wired to
// this router's d output. For the Local port the opposite is Local itself
// (the NIC).
func (d Direction) Opposite() Direction {
	switch d {
	case XPlus:
		return XMinus
	case XMinus:
		return XPlus
	case YPlus:
		return YMinus
	case YMinus:
		return YPlus
	default:
		return Local
	}
}

// IsX reports whether the direction moves along the X dimension.
func (d Direction) IsX() bool { return d == XPlus || d == XMinus }

// IsY reports whether the direction moves along the Y dimension.
func (d Direction) IsY() bool { return d == YPlus || d == YMinus }

// Node identifies a mesh node (router plus its attached processing/memory
// element) by column X and row Y.
type Node struct {
	X int // column, 0..Width-1 (paper's horizontal coordinate x)
	Y int // row, 0..Height-1 (paper's vertical coordinate y)
}

// String formats the node in the paper's R(y,x)-like coordinate style but
// keeping the (x,y) order used throughout this module.
func (n Node) String() string {
	return fmt.Sprintf("(%d,%d)", n.X, n.Y)
}

// Add returns the node displaced by (dx, dy). The result may lie outside any
// particular mesh; use Dim.Contains to validate.
func (n Node) Add(dx, dy int) Node {
	return Node{X: n.X + dx, Y: n.Y + dy}
}

// ManhattanDistance returns the Manhattan (hop) distance between two nodes.
func (n Node) ManhattanDistance(other Node) int {
	return abs(n.X-other.X) + abs(n.Y-other.Y)
}

// Dim describes the dimensions of a 2D mesh: Width columns (N) by Height
// rows (M).
type Dim struct {
	Width  int // N, number of columns
	Height int // M, number of rows
}

// NewDim returns a validated mesh dimension. Width and Height must both be
// at least 1.
func NewDim(width, height int) (Dim, error) {
	d := Dim{Width: width, Height: height}
	if err := d.Validate(); err != nil {
		return Dim{}, err
	}
	return d, nil
}

// MustDim is like NewDim but panics on invalid dimensions. It is intended for
// tests, examples and package-level defaults with constant arguments.
func MustDim(width, height int) Dim {
	d, err := NewDim(width, height)
	if err != nil {
		panic(err)
	}
	return d
}

// Validate checks that the dimension describes a non-empty mesh.
func (d Dim) Validate() error {
	if d.Width < 1 || d.Height < 1 {
		return fmt.Errorf("mesh: invalid dimensions %dx%d: both must be >= 1", d.Width, d.Height)
	}
	return nil
}

// String formats the dimension as "NxM" (width x height), matching the
// paper's table headings.
func (d Dim) String() string {
	return fmt.Sprintf("%dx%d", d.Width, d.Height)
}

// Nodes returns the total number of nodes in the mesh (N*M).
func (d Dim) Nodes() int { return d.Width * d.Height }

// Contains reports whether n is a valid node of this mesh.
func (d Dim) Contains(n Node) bool {
	return n.X >= 0 && n.X < d.Width && n.Y >= 0 && n.Y < d.Height
}

// Index returns a dense index for node n, suitable for array-backed per-node
// state: index = Y*Width + X. It panics if n is outside the mesh.
func (d Dim) Index(n Node) int {
	if !d.Contains(n) {
		panic(fmt.Sprintf("mesh: node %v outside %v mesh", n, d))
	}
	return n.Y*d.Width + n.X
}

// NodeAt is the inverse of Index. It panics if idx is out of range.
func (d Dim) NodeAt(idx int) Node {
	if idx < 0 || idx >= d.Nodes() {
		panic(fmt.Sprintf("mesh: node index %d outside %v mesh", idx, d))
	}
	return Node{X: idx % d.Width, Y: idx / d.Width}
}

// AllNodes returns every node of the mesh in index order (row-major,
// top-left to bottom-right), i.e. position i holds NodeAt(i). Every call
// builds a fresh slice the caller owns; an object that iterates the nodes
// repeatedly keeps its own copy.
func (d Dim) AllNodes() []Node {
	nodes := make([]Node, 0, d.Nodes())
	for y := 0; y < d.Height; y++ {
		for x := 0; x < d.Width; x++ {
			nodes = append(nodes, Node{X: x, Y: y})
		}
	}
	return nodes
}

// Neighbor returns the neighbour of n in direction dir and true, or the zero
// Node and false when the neighbour would fall outside the mesh or dir is
// Local.
func (d Dim) Neighbor(n Node, dir Direction) (Node, bool) {
	var next Node
	switch dir {
	case XPlus:
		next = n.Add(1, 0)
	case XMinus:
		next = n.Add(-1, 0)
	case YPlus:
		next = n.Add(0, 1)
	case YMinus:
		next = n.Add(0, -1)
	default:
		return Node{}, false
	}
	if !d.Contains(next) {
		return Node{}, false
	}
	return next, true
}

// HasNeighbor reports whether n has a neighbour in direction dir inside the
// mesh.
func (d Dim) HasNeighbor(n Node, dir Direction) bool {
	_, ok := d.Neighbor(n, dir)
	return ok
}

// DegreeOf returns the number of mesh links attached to node n (2 for
// corners, 3 for edges, 4 for interior nodes). The Local port is not
// counted.
func (d Dim) DegreeOf(n Node) int {
	deg := 0
	for _, dir := range []Direction{XPlus, XMinus, YPlus, YMinus} {
		if d.HasNeighbor(n, dir) {
			deg++
		}
	}
	return deg
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
