package analysis

import (
	"context"
	"fmt"
	"math"
	"math/bits"

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
// bound over every ordered pair of distinct nodes, for the given design. The
// mean is bit-identical to the plain per-pair loop's the tests compare
// against — its in-order float sum (sources outer, destinations inner, self
// flows skipped) divided by the count — not merely close, whatever the core
// count.
//
// The guaranteed-bandwidth designs visit no pair: their one-flit bound is
// additive over the ports a route crosses, so the summary is a per-port sum
// and a few scans of the router grid (wawOneFlitFold). Regular summaries, and
// WaW ones whose sum exceeds 2^53, stream the incremental all-pairs kernels
// (kernel.go) — amortized O(1) route-walk work per pair instead of O(hops),
// no N^2 table, the rows produced on up to four cores — through the in-order
// fold. Steady-state calls that run on the caller alone (every WaW summary
// the closed form answers, regular ones on meshes under 16x16 and on the
// concentrated meshes) perform no heap allocations (the scratch is pooled).
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
	var (
		f      summaryFold
		closed bool
		err    error
	)
	if waw {
		f, closed, err = m.wawOneFlitFold(ctx)
	}
	if !closed {
		f, err = m.allPairs(ctx, waw, 1, 1, nil)
	}
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
// parallel producers. An integer total no larger than 2^53 is the same float
// bit for bit (maxExactSum), which is what lets wawOneFlitFold skip the fold;
// the regular bounds compound and their sum passes 2^53 from 18x18, so their
// summaries keep it.
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

// maxExactSum is 2^53. Every integer up to it is a float64, so the in-order
// float sum of non-negative integers whose total is at most 2^53 adds every
// partial sum exactly: it equals the integer total, bit for bit.
const maxExactSum = 1 << 53

// wawOneFlitFold is the summary fold of the one-flit guaranteed-bandwidth
// bound over every ordered pair of distinct endpoints, answered without
// visiting a pair. At P = 1 the bound of a route is 1 plus the hopCosts entry
// of every output the route leaves through (the admission term is 0), so:
//
//   - the sum is n(n-1) plus, for every output, its cost times the number of
//     ordered pairs whose route leaves through it (wawOneFlitTotal);
//   - every hop costs at least R > 0, so extending a route never makes it
//     cheaper: the minimum is a one-hop route, and the maximum starts in an
//     edge column, where a scan along the source's row adds the X hops to the
//     costliest tails (Y hops, then the ejection) of the turn routers, which
//     two column scans tabulate.
//
// It declines (closed false, nothing polled) when the total exceeds
// maxExactSum, where only the in-order fold gives the mean's bits: from
// 256x256 on the mesh. Otherwise it polls ctx once per router row of
// sources, like the producers, and returns ctx's error on cancellation.
func (m *Model) wawOneFlitFold(ctx context.Context) (f summaryFold, closed bool, err error) {
	W, Ht := m.rdim.Width, m.rdim.Height
	n, rn := len(m.nodes), W*Ht
	sp := getScratch((mesh.NumDirections + 2) * rn)
	defer putScratch(sp)
	cost := (*sp)[:mesh.NumDirections*rn]
	m.hopCosts(cost, 1)
	plane := func(out mesh.Direction) []uint64 { return cost[int(out)*rn:][:rn] }
	total, ok := m.wawOneFlitTotal(plane)
	if !ok {
		return summaryFold{}, false, nil
	}
	ej, xp, xm, yp, ym := plane(mesh.Local), plane(mesh.XPlus), plane(mesh.XMinus), plane(mesh.YPlus), plane(mesh.YMinus)
	// A source router hosting one endpoint sends to none of its own; with
	// several (the concentrated meshes) the ejection-only route is a flow.
	ownRouter := n > rn
	// The cheapest route: its last hop, with the ejection, is itself a route,
	// and no cheaper, so it is one hop long (none with ownRouter).
	loRoute := uint64(math.MaxUint64)
	for i := range rn {
		x, y := i%W, i/W
		if ownRouter {
			loRoute = min(loRoute, ej[i])
		}
		if x > 0 {
			loRoute = min(loRoute, xp[i-1]+ej[i])
		}
		if x+1 < W {
			loRoute = min(loRoute, xm[i+1]+ej[i])
		}
		if y > 0 {
			loRoute = min(loRoute, yp[i-W]+ej[i])
		}
		if y+1 < Ht {
			loRoute = min(loRoute, ym[i+W]+ej[i])
		}
	}
	// The costliest route. Its tail from the turn router: dn[i] is the
	// costliest over the destinations at or below router i in its column (Y+
	// hops, then the ejection), up[i] at or above it.
	tails := (*sp)[mesh.NumDirections*rn:]
	dn, up := tails[:rn], tails[rn:2*rn]
	copy(dn[rn-W:], ej[rn-W:])
	for i := rn - W - 1; i >= 0; i-- {
		dn[i] = max(ej[i], yp[i]+dn[i+W])
	}
	copy(up[:W], ej[:W])
	for i := W; i < rn; i++ {
		up[i] = max(ej[i], ym[i]+up[i-W])
	}
	// Moving a source one router away from the destination column along its
	// row prepends one X hop to its route, so the costliest route starts in
	// column 0 or W-1: scan the turn columns from those two sources of every
	// row, adding the X hops on the way.
	hiRoute := uint64(0)
	for y := 0; y < Ht; y++ {
		if err := ctx.Err(); err != nil {
			return summaryFold{}, true, err
		}
		row := y * W
		for _, sx := range [2]int{0, W - 1} {
			// The turn router is the source router itself.
			i := row + sx
			if ownRouter {
				hiRoute = max(hiRoute, ej[i])
			}
			if y+1 < Ht {
				hiRoute = max(hiRoute, yp[i]+dn[i+W])
			}
			if y > 0 {
				hiRoute = max(hiRoute, ym[i]+up[i-W])
			}
			// Turn columns right of the source, then left of it.
			for cx, t := sx+1, uint64(0); cx < W; cx++ {
				t += xp[row+cx-1]
				hiRoute = max(hiRoute, t+dn[row+cx], t+up[row+cx])
			}
			for cx, t := sx-1, uint64(0); cx >= 0; cx-- {
				t += xm[row+cx+1]
				hiRoute = max(hiRoute, t+dn[row+cx], t+up[row+cx])
			}
		}
	}
	f = summaryFold{sum: float64(total), min: math.MaxUint64, count: n * (n - 1)}
	if f.count > 0 {
		f.max, f.min = hiRoute+1, loRoute+1
	}
	return f, true, nil
}

// wawOneFlitTotal returns the exact sum of the one-flit guaranteed-bandwidth
// bound over every ordered pair of distinct endpoints, given the hopCosts
// planes for a one-flit slot, and false when that sum exceeds maxExactSum.
//
// Every router hosts c = n/rn endpoints (1 on the mesh, the concentration on
// the concentrated meshes), so the pairs whose route leaves the router at
// column x, row y through each output number sources × destinations:
//
//	Local   c      × (n-1)         its endpoints, from every other one
//	XPlus   c(x+1) × c·Ht(W-1-x)   row y at or left of x, to the columns right of x
//	XMinus  c(W-x) × c·Ht·x        row y at or right of x, to the columns left of x
//	YPlus   c·W(y+1)  × c(Ht-1-y)  the rows at or above y, to column x below y
//	YMinus  c·W(Ht-y) × c·y        the rows at or below y, to column x above y
//
// These count ordered pairs, not the per-destination flows of the weight
// table's OutputTotal: XPlus at (0,0) of the 4x4 mesh carries 12 pairs.
func (m *Model) wawOneFlitTotal(plane func(mesh.Direction) []uint64) (uint64, bool) {
	W, Ht := uint64(m.rdim.Width), uint64(m.rdim.Height)
	n := uint64(len(m.nodes))
	c := n / (W * Ht)
	total, ok := addCrossings(0, 1, n, n-1) // the final +1 of every bound
	ej, xp, xm, yp, ym := plane(mesh.Local), plane(mesh.XPlus), plane(mesh.XMinus), plane(mesh.YPlus), plane(mesh.YMinus)
	for y := uint64(0); y < Ht; y++ {
		for x := uint64(0); x < W; x++ {
			i := y*W + x
			for _, p := range [...]struct{ cost, src, dst uint64 }{
				{ej[i], c, n - 1},
				{xp[i], c * (x + 1), c * Ht * (W - 1 - x)},
				{xm[i], c * (W - x), c * Ht * x},
				{yp[i], c * W * (y + 1), c * (Ht - 1 - y)},
				{ym[i], c * W * (Ht - y), c * y},
			} {
				if !ok {
					return 0, false
				}
				total, ok = addCrossings(total, p.cost, p.src, p.dst)
			}
		}
	}
	return total, ok
}

// addCrossings returns total + cost·src·dst, and false when any step leaves
// 64 bits or the sum exceeds maxExactSum.
func addCrossings(total, cost, src, dst uint64) (uint64, bool) {
	hi1, pairs := bits.Mul64(src, dst)
	hi2, lo := bits.Mul64(cost, pairs)
	sum, carry := bits.Add64(total, lo, 0)
	return sum, hi1|hi2|carry == 0 && sum <= maxExactSum
}

// TableIIRow is one row of Table II: the regular-design and WaW+WaP-design
// WCTT summaries for one mesh size (core.TableII assembles the rows).
type TableIIRow struct {
	Dim     mesh.Dim
	Regular WCTTSummary
	WaWWaP  WCTTSummary
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
