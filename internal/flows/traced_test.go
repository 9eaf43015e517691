package flows

import (
	"fmt"
	"testing"

	"repro/internal/flit"
	"repro/internal/mesh"
)

// This file is the route-tracing oracle of the closed forms: explicit flow
// sets between the endpoints of a topology, traced hop by hop over
// Topology.Walk. It knows nothing of the Section III equations or of
// InputLoads, so agreeing with countsFor is evidence, not tautology —
// for the mesh, whose forms the paper proves, and for the concentrated
// meshes, whose forms are this repository's extension and carry no proof.

// Flow is an ordered source/destination pair.
type Flow = flit.FlowID

// Set is a collection of flows between the endpoints of a topology.
type Set struct {
	Topo  mesh.Topology
	Dim   mesh.Dim // the endpoint grid Topo was built on
	Flows []Flow
}

// Len returns the number of flows in the set.
func (s *Set) Len() int { return len(s.Flows) }

// Validate checks that every flow endpoint lies inside the endpoint grid and
// that no flow is a self-loop.
func (s *Set) Validate() error {
	d := s.Dim
	if err := d.Validate(); err != nil {
		return err
	}
	for _, f := range s.Flows {
		if !d.Contains(f.Src) {
			return fmt.Errorf("flows: source %v outside %v mesh", f.Src, d)
		}
		if !d.Contains(f.Dst) {
			return fmt.Errorf("flows: destination %v outside %v mesh", f.Dst, d)
		}
		if f.Src == f.Dst {
			return fmt.Errorf("flows: self flow at %v", f.Src)
		}
	}
	return nil
}

// AllToOne returns the flow set in which every endpoint except dst sends to
// dst — the traffic pattern of the paper's evaluation platform, where all
// cores access the memory controller attached to one node.
func AllToOne(t mesh.Topology, d mesh.Dim, dst mesh.Node) *Set {
	s := &Set{Topo: t, Dim: d}
	for _, n := range d.AllNodes() {
		if n != dst {
			s.Flows = append(s.Flows, Flow{Src: n, Dst: dst})
		}
	}
	return s
}

// OneToAll returns the flow set in which src sends to every other endpoint.
func OneToAll(t mesh.Topology, d mesh.Dim, src mesh.Node) *Set {
	s := &Set{Topo: t, Dim: d}
	for _, n := range d.AllNodes() {
		if n != src {
			s.Flows = append(s.Flows, Flow{Src: src, Dst: n})
		}
	}
	return s
}

// AllToAll returns one flow for every ordered pair of distinct endpoints:
// the load assumption (1) of the paper.
func AllToAll(t mesh.Topology, d mesh.Dim) *Set {
	s := &Set{Topo: t, Dim: d}
	nodes := d.AllNodes()
	for _, src := range nodes {
		for _, dst := range nodes {
			if src != dst {
				s.Flows = append(s.Flows, Flow{Src: src, Dst: dst})
			}
		}
	}
	return s
}

// Custom returns a validated flow set from an explicit list of flows.
func Custom(t mesh.Topology, d mesh.Dim, fl []Flow) (*Set, error) {
	s := &Set{Topo: t, Dim: d, Flows: append([]Flow(nil), fl...)}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// RouterCounts holds, for one router, the number of flows traversing each
// input port, each output port and each (output, input) pair.
type RouterCounts struct {
	Input   [mesh.NumDirections]int
	Output  [mesh.NumDirections]int
	PerPair [mesh.NumDirections][mesh.NumDirections]int // [out][in]
}

// Weight returns the share of the flows crossing output out that arrive
// through input in (Equation 1), or 0 when no flow crosses the output.
func (rc *RouterCounts) Weight(in, out mesh.Direction) float64 {
	if rc.Output[out] == 0 {
		return 0
	}
	return float64(rc.PerPair[out][in]) / float64(rc.Output[out])
}

// ContendingInputs returns the input ports that carry at least one flow
// towards the given output port, in direction order.
func (rc *RouterCounts) ContendingInputs(out mesh.Direction) []mesh.Direction {
	var ins []mesh.Direction
	for _, in := range mesh.Directions {
		if rc.PerPair[out][in] > 0 {
			ins = append(ins, in)
		}
	}
	return ins
}

// Analysis holds the per-router flow counts of a flow set, indexed by
// RouterDim().Index, plus the per-flow routes.
type Analysis struct {
	Set     *Set
	Routers []RouterCounts
	Routes  map[Flow][]mesh.Hop
}

// Analyze traces the route of every flow in the set over its topology and
// accumulates the per-router, per-port flow counts.
func Analyze(s *Set) (*Analysis, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	a := &Analysis{
		Set:     s,
		Routers: make([]RouterCounts, s.Topo.RouterDim().Nodes()),
		Routes:  make(map[Flow][]mesh.Hop, len(s.Flows)),
	}
	for _, f := range s.Flows {
		var hops []mesh.Hop
		if err := s.Topo.Walk(f.Src, f.Dst, func(h mesh.Hop) bool {
			hops = append(hops, h)
			return true
		}); err != nil {
			return nil, err
		}
		a.Routes[f] = hops
		for _, hop := range hops {
			rc := a.Counts(hop.Router)
			rc.Input[hop.In]++
			rc.Output[hop.Out]++
			rc.PerPair[hop.Out][hop.In]++
		}
	}
	return a, nil
}

// MustAnalyze is like Analyze but panics on error.
func MustAnalyze(s *Set) *Analysis {
	a, err := Analyze(s)
	if err != nil {
		panic(err)
	}
	return a
}

// Counts returns the counts of router n.
func (a *Analysis) Counts(n mesh.Node) *RouterCounts {
	return &a.Routers[a.Set.Topo.RouterDim().Index(n)]
}

// Route returns the route of flow f and whether the flow belongs to the set.
func (a *Analysis) Route(f Flow) ([]mesh.Hop, bool) {
	r, ok := a.Routes[f]
	return r, ok
}

// TracedCounts returns the per-destination-normalised counts of router n of
// topology t, built on endpoint grid d, obtained by tracing routes: for each
// output port a canonical destination reachable through it is chosen and the
// all-to-one flow set towards it is analysed.
func TracedCounts(t mesh.Topology, d mesh.Dim, n mesh.Node) *PortCounts {
	pc := &PortCounts{Node: n}
	for _, out := range mesh.Directions {
		dst, ok := canonicalDestination(t, d, n, out)
		if !ok {
			continue
		}
		rc := MustAnalyze(AllToOne(t, d, dst)).Counts(n)
		pc.InputsPerOutput[out] = rc.PerPair[out]
		pc.OutputTotal[out] = rc.Output[out]
	}
	return pc
}

// canonicalDestination picks an endpoint whose all-to-one traffic exercises
// output port out of router n: one attached to n itself for the Local port,
// otherwise one attached to the farthest router in that direction (same
// row/column of the router grid).
func canonicalDestination(t mesh.Topology, d mesh.Dim, n mesh.Node, out mesh.Direction) (mesh.Node, bool) {
	if !t.HasOutput(n, out) {
		return mesh.Node{}, false
	}
	rd := t.RouterDim()
	target := n
	switch out {
	case mesh.XPlus:
		target.X = rd.Width - 1
	case mesh.XMinus:
		target.X = 0
	case mesh.YPlus:
		target.Y = rd.Height - 1
	case mesh.YMinus:
		target.Y = 0
	}
	for _, ep := range d.AllNodes() {
		if t.RouterOf(ep) == target {
			return ep, true
		}
	}
	return mesh.Node{}, false
}

// TestClosedFormMatchesTraced is the oracle run: on the mesh and both
// concentrated meshes, for every router of every endpoint grid from 2x2 to
// 8x8 the topology admits (rectangular ones included), every entry and every
// output total of countsFor must equal the traced count.
func TestClosedFormMatchesTraced(t *testing.T) {
	specs := []mesh.TopoSpec{
		{Kind: mesh.TopoMesh},
		{Kind: mesh.TopoCMesh, Conc: 2},
		{Kind: mesh.TopoCMesh, Conc: 4},
	}
	for _, spec := range specs {
		grids := 0
		for w := 2; w <= 8; w++ {
			for h := 2; h <= 8; h++ {
				d := mesh.MustDim(w, h)
				topo, err := spec.Build(d)
				if err != nil {
					continue // the concentration does not tile this grid
				}
				grids++
				for _, n := range topo.RouterDim().AllNodes() {
					if cf, tr := countsFor(topo, n), TracedCounts(topo, d, n); cf != *tr {
						t.Errorf("%v %dx%d router %v:\n closed form %+v\n traced      %+v", topo, w, h, n, cf, *tr)
					}
				}
			}
		}
		if grids < 9 {
			t.Errorf("%v: only %d endpoint grids between 2x2 and 8x8 built", spec, grids)
		}
	}
}
