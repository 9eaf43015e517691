// Package flows models communication flow sets over the mesh and derives the
// per-router, per-port flow counts used by the WaW weighted arbitration and
// by the WCTT analysis.
//
// A flow is an ordered (source, destination) pair of mesh nodes. The WaW
// arbitration weight of an (input port, output port) pair of a router is the
// ratio between the number of flows that reach that output port through that
// input port and the total number of flows crossing the output port
// (Equation 1 of the paper). For XY routing the counts admit the closed forms
// given in Section III of the paper; this package provides both the closed
// forms and a generic route-tracing computation so the two can be checked
// against each other.
package flows

import (
	"fmt"
	"sort"

	"repro/internal/flit"
	"repro/internal/mesh"
)

// Flow is an ordered source/destination pair. It aliases flit.FlowID so that
// flow sets can be used directly to label traffic.
type Flow = flit.FlowID

// Set is a collection of flows over a particular mesh.
type Set struct {
	Dim   mesh.Dim
	Flows []Flow
}

// Len returns the number of flows in the set.
func (s *Set) Len() int { return len(s.Flows) }

// Validate checks that every flow endpoint lies inside the mesh and that no
// flow is a self-loop.
func (s *Set) Validate() error {
	if err := s.Dim.Validate(); err != nil {
		return err
	}
	for _, f := range s.Flows {
		if !s.Dim.Contains(f.Src) {
			return fmt.Errorf("flows: source %v outside %v mesh", f.Src, s.Dim)
		}
		if !s.Dim.Contains(f.Dst) {
			return fmt.Errorf("flows: destination %v outside %v mesh", f.Dst, s.Dim)
		}
		if f.Src == f.Dst {
			return fmt.Errorf("flows: self flow at %v", f.Src)
		}
	}
	return nil
}

// AllToOne returns the flow set in which every node except dst sends to dst.
// This is the traffic pattern of the paper's evaluation platform, where all
// cores access the memory controller attached to one node (R(0,0) in
// Table III).
func AllToOne(d mesh.Dim, dst mesh.Node) *Set {
	s := &Set{Dim: d}
	for _, n := range d.AllNodes() {
		if n == dst {
			continue
		}
		s.Flows = append(s.Flows, Flow{Src: n, Dst: dst})
	}
	return s
}

// OneToAll returns the flow set in which src sends to every other node
// (e.g. a memory controller answering every core).
func OneToAll(d mesh.Dim, src mesh.Node) *Set {
	s := &Set{Dim: d}
	for _, n := range d.AllNodes() {
		if n == src {
			continue
		}
		s.Flows = append(s.Flows, Flow{Src: src, Dst: n})
	}
	return s
}

// AllToAll returns the flow set containing one flow for every ordered pair of
// distinct nodes. This is the load assumption (1) of the paper: every node
// can send to and receive from any other node.
func AllToAll(d mesh.Dim) *Set {
	s := &Set{Dim: d}
	nodes := d.AllNodes()
	for _, src := range nodes {
		for _, dst := range nodes {
			if src == dst {
				continue
			}
			s.Flows = append(s.Flows, Flow{Src: src, Dst: dst})
		}
	}
	return s
}

// Custom returns a validated flow set from an explicit list of flows.
func Custom(d mesh.Dim, fl []Flow) (*Set, error) {
	s := &Set{Dim: d, Flows: append([]Flow(nil), fl...)}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// PortPair identifies an (input port, output port) combination of a router.
type PortPair struct {
	In  mesh.Direction
	Out mesh.Direction
}

// String renders the pair as "W(in,out)" following the paper's Table I
// notation.
func (p PortPair) String() string { return fmt.Sprintf("W(%v,%v)", p.In, p.Out) }

// RouterCounts holds, for one router, the number of flows traversing each
// input port, each output port and each (input, output) pair.
type RouterCounts struct {
	Node    mesh.Node
	Input   map[mesh.Direction]int
	Output  map[mesh.Direction]int
	PerPair map[PortPair]int
}

func newRouterCounts(n mesh.Node) *RouterCounts {
	return &RouterCounts{
		Node:    n,
		Input:   make(map[mesh.Direction]int),
		Output:  make(map[mesh.Direction]int),
		PerPair: make(map[PortPair]int),
	}
}

// Weight returns the WaW arbitration weight for the (in, out) pair of this
// router: the fraction of the flows crossing the output port that arrive
// through the input port (Equation 1). It returns 0 when no flow crosses the
// output port.
func (rc *RouterCounts) Weight(in, out mesh.Direction) float64 {
	o := rc.Output[out]
	if o == 0 {
		return 0
	}
	return float64(rc.PerPair[PortPair{In: in, Out: out}]) / float64(o)
}

// ContendingInputs returns the input ports that carry at least one flow
// towards the given output port, sorted in direction order.
func (rc *RouterCounts) ContendingInputs(out mesh.Direction) []mesh.Direction {
	var ins []mesh.Direction
	for _, in := range mesh.Directions {
		if rc.PerPair[PortPair{In: in, Out: out}] > 0 {
			ins = append(ins, in)
		}
	}
	sort.Slice(ins, func(i, j int) bool { return ins[i] < ins[j] })
	return ins
}

// Analysis holds the per-router flow counts for an entire flow set, plus the
// per-flow XY routes.
type Analysis struct {
	Dim     mesh.Dim
	Set     *Set
	Routers map[mesh.Node]*RouterCounts
	Routes  map[Flow]mesh.Route
}

// Analyze traces the XY route of every flow in the set and accumulates the
// per-router, per-port flow counts.
func Analyze(s *Set) (*Analysis, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	a := &Analysis{
		Dim:     s.Dim,
		Set:     s,
		Routers: make(map[mesh.Node]*RouterCounts),
		Routes:  make(map[Flow]mesh.Route),
	}
	for _, n := range s.Dim.AllNodes() {
		a.Routers[n] = newRouterCounts(n)
	}
	for _, f := range s.Flows {
		route, err := mesh.XYRoute(s.Dim, f.Src, f.Dst)
		if err != nil {
			return nil, err
		}
		a.Routes[f] = route
		for _, hop := range route.Hops {
			rc := a.Routers[hop.Router]
			rc.Input[hop.In]++
			rc.Output[hop.Out]++
			rc.PerPair[PortPair{In: hop.In, Out: hop.Out}]++
		}
	}
	return a, nil
}

// MustAnalyze is like Analyze but panics on error; intended for tests and
// constant flow sets.
func MustAnalyze(s *Set) *Analysis {
	a, err := Analyze(s)
	if err != nil {
		panic(err)
	}
	return a
}

// Counts returns the counts for the router at node n (never nil for nodes
// inside the mesh; an empty RouterCounts is returned for nodes with no
// traffic).
func (a *Analysis) Counts(n mesh.Node) *RouterCounts {
	if rc, ok := a.Routers[n]; ok {
		return rc
	}
	return newRouterCounts(n)
}

// Route returns the XY route of flow f and whether the flow belongs to the
// analysed set.
func (a *Analysis) Route(f Flow) (mesh.Route, bool) {
	r, ok := a.Routes[f]
	return r, ok
}
