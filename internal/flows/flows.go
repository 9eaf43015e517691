// Package flows derives the per-router, per-port flow counts used by the WaW
// weighted arbitration and by the WCTT analysis.
//
// A flow is an ordered (source, destination) pair of mesh nodes. The WaW
// arbitration weight of an (input port, output port) pair of a router is the
// ratio between the number of flows that reach that output port through that
// input port and the total number of flows crossing the output port
// (Equation 1 of the paper). For XY routing the counts admit the closed forms
// given in Section III of the paper; this package provides the closed forms,
// and the route-tracing check of them is in the tests.
package flows

import (
	"fmt"

	"repro/internal/mesh"
)

// PortPair identifies an (input port, output port) combination of a router.
type PortPair struct {
	In  mesh.Direction
	Out mesh.Direction
}

// String renders the pair as "W(in,out)" following the paper's Table I
// notation.
func (p PortPair) String() string { return fmt.Sprintf("W(%v,%v)", p.In, p.Out) }
