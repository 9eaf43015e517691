package analysis

import (
	"fmt"

	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/stats"
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
// It runs on the incremental all-pairs kernels (kernel.go) — amortized O(1)
// route-walk work per pair instead of O(hops) — and folds the bounds in
// source-major pair order (sources outer, destinations inner, self flows
// skipped), the order of the plain per-pair loop the tests compare against,
// so the running Welford mean is bit-identical to it, not merely close.
// Steady-state calls perform no heap allocations (the transient table is
// pooled).
func (m *Model) SummarizeOneFlitWCTT(design network.Design) (WCTTSummary, error) {
	n := len(m.nodes)
	var f summaryFold
	switch design {
	case network.DesignRegular, network.DesignWaPOnly:
		// The chained-blocking kernel is destination-major, the fold
		// source-major: materialise the table, then fold it row by row.
		tabp := getScratch(n * n)
		defer putScratch(tabp)
		tab, err := m.AllPairsRegularPacketWCTT(1, 1, *tabp)
		if err != nil {
			return WCTTSummary{}, err
		}
		*tabp = tab
		for si := 0; si < n; si++ {
			for di, v := range tab[si*n : si*n+n] {
				if di != si {
					f.add(v)
				}
			}
		}
	case network.DesignWaWWaP, network.DesignWaWOnly:
		// The guaranteed-bandwidth kernel is source-major — exactly the fold
		// order — so the summary streams one O(N) router row per source
		// without materialising the N^2 table.
		kernelAllPairsRuns.Add(1)
		rowp := getScratch(m.rdim.Nodes())
		defer putScratch(rowp)
		row := *rowp
		for si := 0; si < n; si++ {
			m.wawSourceSweep(row, m.topo.RouterOf(m.nodes[si]), 1, 1)
			for di := 0; di < n; di++ {
				if di != si {
					f.add(row[m.epRouter[di]])
				}
			}
		}
	default:
		return WCTTSummary{}, fmt.Errorf("analysis: unknown design %v", design)
	}
	return WCTTSummary{
		Design: design,
		Dim:    m.p.Dim,
		Max:    f.max,
		Min:    f.min,
		Mean:   f.sampler.Mean(),
		Flows:  f.count,
	}, nil
}

// summaryFold accumulates the max/min/mean of a stream of bounds in arrival
// order (the Welford mean is order-sensitive).
type summaryFold struct {
	sampler  stats.Sampler
	max, min uint64
	count    int
}

func (f *summaryFold) add(v uint64) {
	if f.count == 0 || v > f.max {
		f.max = v
	}
	if f.count == 0 || v < f.min {
		f.min = v
	}
	f.sampler.AddUint(v)
	f.count++
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
		c := m.contender[idx][mesh.Local]
		L := uint64(m.p.Link.MaxPacketFlits)
		if design == network.DesignWaPOnly || L == 0 {
			L = uint64(m.p.Link.MinPacketFlits)
		}
		return saturatingAdd(saturatingMul(c-1, saturatingAdd(H, L)), R+1), nil
	case network.DesignWaWWaP, network.DesignWaWOnly:
		o := m.outShare[idx][mesh.Local]
		slot := uint64(m.p.Link.MinPacketFlits)
		if design == network.DesignWaWOnly && m.p.Link.MaxPacketFlits > 0 {
			slot = uint64(m.p.Link.MaxPacketFlits)
		}
		return saturatingAdd(saturatingMul(o-1, slot), R+1), nil
	default:
		return 0, fmt.Errorf("analysis: unknown design %v", design)
	}
}
