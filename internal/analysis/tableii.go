package analysis

import (
	"context"
	"fmt"

	"repro/internal/mesh"
	"repro/internal/network"
)

// This file builds the WCTT scalability study of Table II of the paper
// (max / mean / min WCTT over every flow of the mesh, for one-flit packets,
// regular design versus WaW+WaP) and the Upper-Bound Delay (UBD) values the
// WCET computation mode injects (Section IV).

// WCTTSummary is the per-design summary of the WCTT bounds of every flow of
// an all-to-all flow set (assumption (1): every node may communicate with
// every other node).
type WCTTSummary struct {
	Design network.Design
	Dim    mesh.Dim
	Max    uint64
	Min    uint64
	Mean   float64
	Flows  int
}

// String renders the summary in the paper's "max mean min" column order.
func (s WCTTSummary) String() string {
	return fmt.Sprintf("%v %v: max=%d mean=%.2f min=%d (%d flows)", s.Dim, s.Design, s.Max, s.Mean, s.Min, s.Flows)
}

// SummarizeOneFlitWCTT computes max/mean/min of the one-flit-packet WCTT
// bound over every ordered pair of distinct nodes, for the given design.
// It streams the incremental all-pairs kernels (kernel.go) — amortized O(1)
// route-walk work per pair instead of O(hops), no N^2 table, the rows
// produced on up to four cores — and folds the bounds in source-major pair
// order (sources outer, destinations inner, self flows skipped), the order
// of the plain per-pair loop the tests compare against: the mean is the
// in-order float sum divided by the count, so it is bit-identical to that
// loop's, not merely close, whatever the core count. Steady-state calls that
// run on the caller alone (meshes under 16x16, the concentrated meshes)
// perform no heap allocations (the transient rows and blocks are pooled).
func (m *Model) SummarizeOneFlitWCTT(design network.Design) (WCTTSummary, error) {
	return m.SummarizeOneFlitWCTTContext(context.Background(), design)
}

// SummarizeOneFlitWCTTContext is SummarizeOneFlitWCTT with cancellation: ctx
// is polled once per row of sources, and a cancelled summary returns ctx's
// error and no partial result once every producer has stopped.
func (m *Model) SummarizeOneFlitWCTTContext(ctx context.Context, design network.Design) (WCTTSummary, error) {
	var waw bool
	switch design {
	case network.DesignRegular, network.DesignWaPOnly:
	case network.DesignWaWWaP, network.DesignWaWOnly:
		waw = true
	default:
		return WCTTSummary{}, fmt.Errorf("analysis: unknown design %v", design)
	}
	f, err := m.allPairs(ctx, waw, 1, 1, nil)
	if err != nil {
		return WCTTSummary{}, err
	}
	kernelAllPairsRuns.Add(1)
	sum := WCTTSummary{Design: design, Dim: m.p.Dim, Max: f.max, Flows: f.count}
	if f.count > 0 {
		sum.Min, sum.Mean = f.min, f.sum/float64(f.count)
	}
	return sum, nil
}

// summaryFold accumulates the max/min/sum of a stream of bounds in arrival
// order (the float sum, hence the mean, is order-sensitive). An empty fold
// has min = MaxUint64, the identity of the running minimum.
//
// Kept an in-order float sum, bit-pinned: the goldens and the benchmark's
// expected outputs pin the mean's bits, so the fold stays serial behind the
// parallel producers instead of becoming an order-free integer sum.
type summaryFold struct {
	sum      float64
	max, min uint64
	count    int
}

// addSource folds the bounds of source endpoint si to every endpoint in
// destination order, skipping the self flow by splitting the range.
func (f *summaryFold) addSource(si int, row []uint64) {
	f.add(row[:si])
	f.add(row[si+1:])
}

func (f *summaryFold) add(vs []uint64) {
	sum, hi, lo := f.sum, f.max, f.min
	for _, v := range vs {
		sum += float64(v)
		hi, lo = max(hi, v), min(lo, v)
	}
	f.sum, f.max, f.min = sum, hi, lo
	f.count += len(vs)
}

// TableIIRow is one row of Table II: the regular-design and WaW+WaP-design
// WCTT summaries for one mesh size.
type TableIIRow struct {
	Dim     mesh.Dim
	Regular WCTTSummary
	WaWWaP  WCTTSummary
}

// RowForDim computes one Table II row (the regular and WaW+WaP one-flit
// WCTT summaries) for a single mesh, sharing one model between the two
// designs. The serial TableII below is a thin adapter over it; the
// sweep-backed core.TableII instead schedules one scenario per
// (size, design) pair — finer-grained parallelism at the cost of one extra
// model construction per size — and reassembles the same rows.
func RowForDim(d mesh.Dim) (TableIIRow, error) {
	m, err := NewModel(DefaultParams(d))
	if err != nil {
		return TableIIRow{}, err
	}
	reg, err := m.SummarizeOneFlitWCTT(network.DesignRegular)
	if err != nil {
		return TableIIRow{}, err
	}
	waw, err := m.SummarizeOneFlitWCTT(network.DesignWaWWaP)
	if err != nil {
		return TableIIRow{}, err
	}
	return TableIIRow{Dim: d, Regular: reg, WaWWaP: waw}, nil
}

// TableII computes the WCTT scalability table for the given square mesh
// sizes (the paper uses 2x2 … 8x8) with one-flit packets, serially. Callers
// that want the sizes analysed in parallel should go through the scenario
// and sweep layers (see core.TableII).
func TableII(sizes []int) ([]TableIIRow, error) {
	rows := make([]TableIIRow, 0, len(sizes))
	for _, s := range sizes {
		d, err := mesh.NewDim(s, s)
		if err != nil {
			return nil, err
		}
		row, err := RowForDim(d)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RoundTripUBD returns the Upper-Bound Delay of one memory transaction of a
// core located at node core against a memory controller at node memory: the
// WCTT bound of the request message plus the WCTT bound of the reply
// message, for the given design. This is the delay the WCET computation mode
// (Paolieri et al. [17]) charges to every NoC access at analysis time; the
// memory service latency itself is added by the wcet package.
//
// When the core shares its node with the memory controller (the R(0,0) entry
// of Table III) the transaction still crosses the local router's ejection
// port twice and competes there with the traffic of every other node, so the
// bound degenerates to twice the ejection-port contention bound.
func (m *Model) RoundTripUBD(design network.Design, core, memory mesh.Node, requestBits, replyBits int) (uint64, error) {
	if core == memory {
		one, err := m.LocalAccessWCTT(design, memory)
		if err != nil {
			return 0, err
		}
		return saturatingMul(2, one), nil
	}
	req, err := m.MessageWCTT(design, core, memory, requestBits)
	if err != nil {
		return 0, err
	}
	rep, err := m.MessageWCTT(design, memory, core, replyBits)
	if err != nil {
		return 0, err
	}
	return saturatingAdd(req, rep), nil
}

// LocalAccessWCTT bounds the traversal of a single minimum-size message
// between a core and a memory controller attached to the same router: the
// message only crosses the local ejection port, but under the worst-case
// load assumption every other node's traffic competes for that port.
func (m *Model) LocalAccessWCTT(design network.Design, n mesh.Node) (uint64, error) {
	if !m.p.Dim.Contains(n) {
		return 0, fmt.Errorf("analysis: node %v outside %v mesh", n, m.p.Dim)
	}
	H := uint64(m.p.HeaderOverhead)
	R := uint64(m.p.RouterLatency)
	idx := m.rdim.Index(m.topo.RouterOf(n))
	switch design {
	case network.DesignRegular, network.DesignWaPOnly:
		c := m.contender[mesh.Local][idx]
		L := uint64(m.p.Link.MaxPacketFlits)
		if design == network.DesignWaPOnly || L == 0 {
			L = uint64(m.p.Link.MinPacketFlits)
		}
		return saturatingAdd(saturatingMul(c-1, saturatingAdd(H, L)), R+1), nil
	case network.DesignWaWWaP, network.DesignWaWOnly:
		o := m.outShare[mesh.Local][idx]
		slot := uint64(m.p.Link.MinPacketFlits)
		if design == network.DesignWaWOnly && m.p.Link.MaxPacketFlits > 0 {
			slot = uint64(m.p.Link.MaxPacketFlits)
		}
		return saturatingAdd(saturatingMul(o-1, slot), R+1), nil
	default:
		return 0, fmt.Errorf("analysis: unknown design %v", design)
	}
}
