package analysis

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/flows"
	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/stats"
)

// This file keeps the pre-flat-index implementations of the WCTT bounds as
// the test-only oracle of the route walk (the walk in turn is the oracle of
// the all-pairs kernels, kernel_test.go): the production paths in wctt.go
// enumerate dimension-ordered routes straight from the geometry over
// precomputed per-router-index arrays, while the reference walks the hops
// Topology.Walk visits (routeHops) and recomputes contender counts and output
// shares per hop from first principles (the turn rules over the neighbours
// that exist, and the weight table). The equivalence tests pin the two
// bit-identical across meshes, designs and packet shapes, so the walk can
// never silently drift from the model the paper defines. The reference bounds compute on the
// divide-based saturating primitives below, so those comparisons also pin the
// production bits.Mul64/bits.Add64 primitives along whole routes.

// referenceSaturatingMul is the overflow-check-by-division multiply the
// production saturatingMul replaced, kept as its oracle (FuzzSaturatingOps
// compares the two, and math/big, on arbitrary operands).
func referenceSaturatingMul(a, b uint64) uint64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxUint64/b {
		return math.MaxUint64
	}
	return a * b
}

// referenceSaturatingAdd is the compare-before-add oracle of saturatingAdd.
func referenceSaturatingAdd(a, b uint64) uint64 {
	if a > math.MaxUint64-b {
		return math.MaxUint64
	}
	return a + b
}

// routeHops materialises the route between endpoints src and dst of m's
// topology.
func (m *Model) routeHops(src, dst mesh.Node) ([]mesh.Hop, error) {
	var hops []mesh.Hop
	err := m.topo.Walk(src, dst, func(h mesh.Hop) bool {
		hops = append(hops, h)
		return true
	})
	return hops, err
}

// contenders is the turn-rule derivation of the contender count c(n, out),
// the oracle of the model's contender planes: the input ports of router n
// whose upstream neighbour exists (Local always does) and that LegalTurn lets
// reach out, less the Local->Local pair where a router serves a single
// endpoint, and at least 1.
func (m *Model) contenders(n mesh.Node, out mesh.Direction) int {
	c := 0
	for _, in := range mesh.Directions {
		// The input port named in faces the neighbour in direction in.Opposite().
		if _, ok := m.topo.Neighbor(n, in.Opposite()); (ok || in == mesh.Local) && mesh.LegalTurn(in, out) {
			c++
		}
	}
	if out == mesh.Local && m.topo.LocalPairLoad() == 0 {
		c-- // a node does not send to itself
	}
	return max(1, c)
}

// ReferenceRegularPacketWCTT is the route-materialising implementation of
// RegularPacketWCTT, kept as the naive reference for equivalence testing.
func (m *Model) ReferenceRegularPacketWCTT(src, dst mesh.Node, packetFlits, contenderFlits int) (uint64, error) {
	if packetFlits < 1 || contenderFlits < 1 {
		return 0, fmt.Errorf("analysis: packet sizes must be >= 1 flit (got %d, %d)", packetFlits, contenderFlits)
	}
	hops, err := m.routeHops(src, dst)
	if err != nil {
		return 0, err
	}
	if src == dst {
		return 0, fmt.Errorf("analysis: WCTT of a self flow is undefined")
	}
	H := uint64(m.p.HeaderOverhead)
	L := uint64(contenderFlits)
	R := uint64(m.p.RouterLatency)
	S := uint64(packetFlits)

	interval := uint64(1) // I_{k+1}: ejection accepts one flit per cycle
	var total uint64
	for j := len(hops) - 1; j >= 0; j-- {
		hop := hops[j]
		c := uint64(m.contenders(hop.Router, hop.Out))
		wait := referenceSaturatingMul(c-1, referenceSaturatingAdd(H, referenceSaturatingMul(L, interval)))
		total = referenceSaturatingAdd(total, referenceSaturatingAdd(wait, R))
		interval = referenceSaturatingMul(c, interval)
	}
	total = referenceSaturatingAdd(total, referenceSaturatingMul(S-1, interval))
	total = referenceSaturatingAdd(total, 1)
	return total, nil
}

// referenceTable remembers the weight table of the model the reference bounds
// were last asked about: a Model holds no weight table (it reads its output
// shares off flows.TurnLoad), and the reference reads them from the table.
var referenceTable struct {
	sync.Mutex
	m  *Model
	wt *flows.WeightTable
}

// referenceWeights returns the WaW weight table of m's topology.
func (m *Model) referenceWeights() *flows.WeightTable {
	referenceTable.Lock()
	defer referenceTable.Unlock()
	if referenceTable.m != m {
		referenceTable.m, referenceTable.wt = m, flows.WeightTableFor(m.topo)
	}
	return referenceTable.wt
}

// ReferenceWaWPacketWCTT is the route-materialising implementation of
// WaWPacketWCTT, kept as the naive reference for equivalence testing.
func (m *Model) ReferenceWaWPacketWCTT(src, dst mesh.Node, numPackets, slotFlits int) (uint64, error) {
	if numPackets < 1 || slotFlits < 1 {
		return 0, fmt.Errorf("analysis: packet counts and sizes must be >= 1 (got %d, %d)", numPackets, slotFlits)
	}
	hops, err := m.routeHops(src, dst)
	if err != nil {
		return 0, err
	}
	if src == dst {
		return 0, fmt.Errorf("analysis: WCTT of a self flow is undefined")
	}
	R := uint64(m.p.RouterLatency)
	slot := uint64(slotFlits)

	weights := m.referenceWeights()
	var total uint64
	var maxShare uint64 = 1
	for _, hop := range hops {
		counts := weights.Counts(hop.Router)
		o := uint64(counts.OutputTotal[hop.Out])
		if o < 1 {
			o = 1
		}
		if o > maxShare {
			maxShare = o
		}
		total = referenceSaturatingAdd(total, referenceSaturatingAdd(referenceSaturatingMul(o-1, slot), R))
	}
	total = referenceSaturatingAdd(total, referenceSaturatingMul(uint64(numPackets-1), referenceSaturatingMul(maxShare, slot)))
	total = referenceSaturatingAdd(total, 1)
	return total, nil
}

// summarizePairs folds oneFlit over every ordered pair of distinct nodes in
// source-major order — the plain per-pair loop SummarizeOneFlitWCTT must
// match bit for bit, float mean included.
func summarizePairs(m *Model, design network.Design, oneFlit func(src, dst mesh.Node) (uint64, error)) (WCTTSummary, error) {
	var sampler stats.Sampler
	sum := WCTTSummary{Design: design, Dim: m.p.Dim}
	for _, src := range m.p.Dim.AllNodes() {
		for _, dst := range m.p.Dim.AllNodes() {
			if src == dst {
				continue
			}
			v, err := oneFlit(src, dst)
			if err != nil {
				return WCTTSummary{}, err
			}
			if sum.Flows == 0 || v > sum.Max {
				sum.Max = v
			}
			if sum.Flows == 0 || v < sum.Min {
				sum.Min = v
			}
			sampler.AddUint(v)
			sum.Flows++
		}
	}
	sum.Mean = sampler.Mean()
	return sum, nil
}

// ReferenceSummarizeOneFlitWCTT is SummarizeOneFlitWCTT on the reference
// bounds — the pre-refactor Table II cell computation.
func (m *Model) ReferenceSummarizeOneFlitWCTT(design network.Design) (WCTTSummary, error) {
	return summarizePairs(m, design, func(src, dst mesh.Node) (uint64, error) {
		switch design {
		case network.DesignRegular, network.DesignWaPOnly:
			return m.ReferenceRegularPacketWCTT(src, dst, 1, 1)
		case network.DesignWaWWaP, network.DesignWaWOnly:
			return m.ReferenceWaWPacketWCTT(src, dst, 1, 1)
		default:
			return 0, fmt.Errorf("analysis: unknown design %v", design)
		}
	})
}

// pairwiseSummary is the per-pair summary on the production route walk: the
// oracle of the kernel-backed SummarizeOneFlitWCTT.
func pairwiseSummary(m *Model, design network.Design) (WCTTSummary, error) {
	return summarizePairs(m, design, func(src, dst mesh.Node) (uint64, error) {
		return m.FlowWCTTOneFlit(design, src, dst)
	})
}
