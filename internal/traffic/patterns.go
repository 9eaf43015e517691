package traffic

import (
	"fmt"

	"repro/internal/flit"
	"repro/internal/mesh"
)

// This file provides the classical synthetic permutation patterns used to
// characterise mesh NoCs (Duato et al. [5]): transpose, bit-complement and
// nearest-neighbour traffic. They complement the memory-controller hotspot
// pattern of the paper's platform and are used by the average-performance
// and simulator-throughput studies.

// Permutation maps every source node to a fixed destination node. The map is
// defined on a topology's endpoint index space (the grid mesh.TopoSpec.Build
// was given): the full core grid regardless of topology, so the same pattern drives a
// mesh and a concentrated mesh of the same endpoint dimensions.
// Every pattern in this file is total and a bijection on arbitrary
// (including non-square) grids, which the per-topology bijection regression
// tests pin.
type Permutation func(d mesh.Dim, src mesh.Node) mesh.Node

// Transpose maps node (x, y) to node (y, x) on square meshes. On
// rectangular meshes the bare coordinate swap would leave the mesh (or,
// with wrapped coordinates, collapse several sources onto one destination,
// losing the permutation property), so the map generalises through the
// linearisation that realises the swap: the node's column-major index
// x*Height + y is re-read as a row-major index. The result is a bijection
// on any mesh and reduces to the classical (y, x) transpose when
// Width == Height.
func Transpose(d mesh.Dim, src mesh.Node) mesh.Node {
	i := src.X*d.Height + src.Y
	return mesh.Node{X: i % d.Width, Y: i / d.Width}
}

// BitComplement maps node (x, y) to (Width-1-x, Height-1-y), i.e. the node
// mirrored through the mesh centre.
func BitComplement(d mesh.Dim, src mesh.Node) mesh.Node {
	return mesh.Node{X: d.Width - 1 - src.X, Y: d.Height - 1 - src.Y}
}

// NearestNeighbor maps every node to its east neighbour (wrapping at the
// edge to the first node of the same row), producing short-range traffic.
// The wrap edge is the row-long worst case of the pattern.
func NearestNeighbor(d mesh.Dim, src mesh.Node) mesh.Node {
	return mesh.Node{X: (src.X + 1) % d.Width, Y: src.Y}
}

// Tornado maps node (x, y) to ((x + ceil(Width/2) - 1) mod Width, y): every
// node sends almost half-way along its row, the classical adversarial
// pattern of ring networks that degenerates to medium-range row traffic on a
// mesh. A row rotation is a bijection on any grid.
func Tornado(d mesh.Dim, src mesh.Node) mesh.Node {
	k := (d.Width+1)/2 - 1
	return mesh.Node{X: (src.X + k) % d.Width, Y: src.Y}
}

// PermutationGenerator injects `rounds` messages per node following a fixed
// permutation pattern, one message per node per interval cycles.
type PermutationGenerator struct {
	dim      mesh.Dim
	nodes    []mesh.Node // AllNodes, precomputed once
	perm     Permutation
	payload  int
	interval uint64
	rounds   int

	issued int
	pool   *flit.Pool
	out    []*flit.Message // reused Tick result buffer
}

// NewPermutation builds a permutation-pattern generator on the endpoint grid
// d (the grid a topology was built on — the index space Permutation maps are
// defined on). interval is the number of cycles between consecutive rounds (at least
// 1).
func NewPermutation(d mesh.Dim, perm Permutation, payload, rounds int, interval uint64) (*PermutationGenerator, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if perm == nil {
		return nil, fmt.Errorf("traffic: nil permutation")
	}
	if rounds < 0 {
		return nil, fmt.Errorf("traffic: negative round count %d", rounds)
	}
	if interval < 1 {
		return nil, fmt.Errorf("traffic: interval must be at least one cycle")
	}
	return &PermutationGenerator{
		dim:      d,
		nodes:    d.AllNodes(),
		perm:     perm,
		payload:  payload,
		interval: interval,
		rounds:   rounds,
	}, nil
}

// AttachPool implements PoolAware.
func (p *PermutationGenerator) AttachPool(pool *flit.Pool) { p.pool = pool }

// Tick implements Generator.
func (p *PermutationGenerator) Tick(cycle uint64) []*flit.Message {
	if p.issued >= p.rounds || cycle%p.interval != 0 {
		return nil
	}
	p.issued++
	out := p.out[:0]
	for _, src := range p.nodes {
		dst := p.perm(p.dim, src)
		if dst == src || !p.dim.Contains(dst) {
			continue
		}
		out = append(out, newMessage(p.pool, flit.FlowID{Src: src, Dst: dst}, flit.ClassData, p.payload))
	}
	p.out = out
	return out
}

// Done implements Generator.
func (p *PermutationGenerator) Done() bool { return p.issued >= p.rounds }

// NextEvent implements EventSource: rounds are issued at multiples of the
// interval, and Tick calls between rounds neither produce messages nor
// mutate generator state, so they can be leapt over.
func (p *PermutationGenerator) NextEvent(now uint64) (uint64, bool) {
	if p.issued >= p.rounds {
		return 0, false
	}
	if rem := now % p.interval; rem != 0 {
		return now + (p.interval - rem), true
	}
	return now, true
}
