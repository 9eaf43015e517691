package workload

import (
	"fmt"

	"repro/internal/mesh"
)

// This file models the 3D path planning (3DPP) parallel avionics application
// used in Figure 2 of the paper: a 16-core fork/join application that guides
// an aircraft through a 3D obstacle map. The model captures the
// NoC-relevant structure — per-phase compute and per-phase communication
// volumes between the worker threads, the master thread and the memory
// controller — which is what the WCET estimate depends on.

// CommTarget identifies the peer of a communication phase.
type CommTarget int

const (
	// TargetMemory means every thread exchanges messages with the memory
	// controller node.
	TargetMemory CommTarget = iota
	// TargetMaster means every worker thread exchanges messages with the
	// master thread (thread 0).
	TargetMaster
	// TargetNeighbors means every thread exchanges messages with its
	// neighbouring threads (boundary exchange); modelled as messages to the
	// farthest other thread of the placement for worst-case analysis.
	TargetNeighbors
)

// String names the communication target.
func (t CommTarget) String() string {
	switch t {
	case TargetMemory:
		return "memory"
	case TargetMaster:
		return "master"
	case TargetNeighbors:
		return "neighbors"
	default:
		return fmt.Sprintf("CommTarget(%d)", int(t))
	}
}

// Phase is one fork/join phase of the parallel application.
type Phase struct {
	Name string
	// ComputeCycles is the per-thread on-core compute of the phase.
	ComputeCycles uint64
	// MessagesPerThread is the number of round-trip message exchanges each
	// thread performs during the phase.
	MessagesPerThread int
	// RequestBits / ReplyBits are the payload sizes of each exchange.
	RequestBits int
	ReplyBits   int
	// Target is the peer of the exchanges.
	Target CommTarget
}

// ParallelApp is a fork/join parallel application model.
type ParallelApp struct {
	Name    string
	Threads int
	Phases  []Phase
}

// Validate checks the application model.
func (a ParallelApp) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("workload: parallel app without a name")
	}
	if a.Threads < 2 {
		return fmt.Errorf("workload: parallel app %s needs at least 2 threads, got %d", a.Name, a.Threads)
	}
	if len(a.Phases) == 0 {
		return fmt.Errorf("workload: parallel app %s has no phases", a.Name)
	}
	for _, p := range a.Phases {
		if p.Name == "" {
			return fmt.Errorf("workload: %s has a phase without a name", a.Name)
		}
		if p.MessagesPerThread < 0 {
			return fmt.Errorf("workload: %s phase %s has negative message count", a.Name, p.Name)
		}
		if p.MessagesPerThread > 0 && (p.RequestBits <= 0 || p.ReplyBits <= 0) {
			return fmt.Errorf("workload: %s phase %s has non-positive message sizes", a.Name, p.Name)
		}
	}
	return nil
}

// ThreeDPathPlanning returns the synthetic 16-thread 3DPP model: the obstacle
// map is loaded from memory and distributed by the master, the workers then
// iterate wavefront-expansion steps exchanging boundary planes and fetching
// map tiles, and finally the per-worker partial paths are reduced on the
// master. The compute/communication volumes are chosen so that, on the
// 8x8-mesh platform of the paper, the WCET estimate is communication
// dominated for the regular wNoC and compute dominated for WaW+WaP — the
// regime Figure 2 shows.
func ThreeDPathPlanning() ParallelApp {
	return ParallelApp{
		Name:    "3DPP",
		Threads: 16,
		Phases: []Phase{
			{
				Name:              "load-map",
				ComputeCycles:     400_000,
				MessagesPerThread: 400, // fetch the thread's share of the 3D map tiles
				RequestBits:       48,
				ReplyBits:         512,
				Target:            TargetMemory,
			},
			{
				Name:              "distribute-frontiers",
				ComputeCycles:     150_000,
				MessagesPerThread: 100,
				RequestBits:       48,
				ReplyBits:         512,
				Target:            TargetMaster,
			},
			{
				Name:              "wavefront-expansion",
				ComputeCycles:     2_500_000,
				MessagesPerThread: 700, // per-iteration boundary planes + map refills
				RequestBits:       48,
				ReplyBits:         512,
				Target:            TargetNeighbors,
			},
			{
				Name:              "path-smoothing",
				ComputeCycles:     900_000,
				MessagesPerThread: 200,
				RequestBits:       48,
				ReplyBits:         512,
				Target:            TargetMemory,
			},
			{
				Name:              "reduce-paths",
				ComputeCycles:     250_000,
				MessagesPerThread: 100,
				RequestBits:       512,
				ReplyBits:         48,
				Target:            TargetMaster,
			},
		},
	}
}

// Placement maps the threads of a parallel application onto mesh nodes.
// Nodes[0] hosts the master thread.
type Placement struct {
	Name  string
	Nodes []mesh.Node
}

// Validate checks that the placement fits the mesh and has no duplicates.
func (p Placement) Validate(d mesh.Dim) error {
	if p.Name == "" {
		return fmt.Errorf("workload: placement without a name")
	}
	if len(p.Nodes) == 0 {
		return fmt.Errorf("workload: placement %s has no nodes", p.Name)
	}
	seen := make(map[mesh.Node]bool, len(p.Nodes))
	for _, n := range p.Nodes {
		if !d.Contains(n) {
			return fmt.Errorf("workload: placement %s node %v outside %v mesh", p.Name, n, d)
		}
		if seen[n] {
			return fmt.Errorf("workload: placement %s maps two threads to %v", p.Name, n)
		}
		seen[n] = true
	}
	return nil
}

// block returns a compact w x h block of nodes with top-left corner at
// (x0, y0), row-major.
func block(x0, y0, w, h int) []mesh.Node {
	nodes := make([]mesh.Node, 0, w*h)
	for y := y0; y < y0+h; y++ {
		for x := x0; x < x0+w; x++ {
			nodes = append(nodes, mesh.Node{X: x, Y: y})
		}
	}
	return nodes
}

// StandardPlacements returns the four 16-thread placements studied in
// Figure 2(b) for an 8x8 mesh with the memory controller at (0,0):
//
//	P0: a compact 4x4 block in the corner next to the memory controller,
//	P1: a compact 4x4 block in the centre of the mesh,
//	P2: a compact 4x4 block in the corner farthest from the memory controller,
//	P3: the 16 threads spread over the whole mesh (every other node).
//
// It returns an error when the mesh is too small for 16 threads.
func StandardPlacements(d mesh.Dim) ([]Placement, error) {
	if d.Width < 8 || d.Height < 8 {
		return nil, fmt.Errorf("workload: standard placements need an 8x8 mesh or larger, got %v", d)
	}
	spread := make([]mesh.Node, 0, 16)
	for y := 0; y < 8 && len(spread) < 16; y += 2 {
		for x := 0; x < 8 && len(spread) < 16; x += 2 {
			spread = append(spread, mesh.Node{X: x, Y: y})
		}
	}
	placements := []Placement{
		{Name: "P0", Nodes: block(0, 0, 4, 4)},
		{Name: "P1", Nodes: block(2, 2, 4, 4)},
		{Name: "P2", Nodes: block(4, 4, 4, 4)},
		{Name: "P3", Nodes: spread},
	}
	for _, p := range placements {
		if err := p.Validate(d); err != nil {
			return nil, err
		}
	}
	return placements, nil
}

// PlacementByName returns the standard placement with the given name.
func PlacementByName(d mesh.Dim, name string) (Placement, error) {
	ps, err := StandardPlacements(d)
	if err != nil {
		return Placement{}, err
	}
	for _, p := range ps {
		if p.Name == name {
			return p, nil
		}
	}
	return Placement{}, fmt.Errorf("workload: unknown placement %q", name)
}
