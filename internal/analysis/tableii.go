package analysis

import (
	"context"
	"fmt"
	"math"
	"math/big"
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
// bound over every ordered pair of distinct nodes, for the given design,
// whatever the core count.
//
// The guaranteed-bandwidth designs visit no pair (wawOneFlitFold): the mean
// is their exact 128-bit total over the count, correctly rounded. Regular
// summaries stream the incremental all-pairs kernels (kernel.go) — amortized
// O(1) work per pair, no N^2 table, the rows produced on up to four cores —
// through the in-order fold: the mean is the plain per-pair loop's float sum
// (sources outer, destinations inner, self flows skipped) over the count, bit
// for bit. Up to a total of 2^53 the two agree (maxExactSum). Steady-state
// calls that run on the caller alone (WaW summaries up to 2^53, regular ones
// under 16x16 and on the concentrated meshes) allocate nothing (the scratch
// is pooled).
func (m *Model) SummarizeOneFlitWCTT(design network.Design) (WCTTSummary, error) {
	return m.SummarizeOneFlitWCTTContext(context.Background(), design)
}

// SummarizeOneFlitWCTTContext is SummarizeOneFlitWCTT with cancellation: ctx
// is polled once per row of sources, and a cancelled summary returns ctx's
// error and no partial result once every producer has stopped.
func (m *Model) SummarizeOneFlitWCTTContext(ctx context.Context, design network.Design) (WCTTSummary, error) {
	var (
		s   WCTTSummary
		err error
	)
	switch design {
	case network.DesignRegular, network.DesignWaPOnly:
		var f summaryFold
		f, err = m.allPairs(ctx, msgShape{a: 1, b: 1}, nil)
		s.Max, s.Flows = f.max, f.count
		if f.count > 0 {
			s.Min, s.Mean = f.min, f.sum/float64(f.count)
		}
	case network.DesignWaWWaP, network.DesignWaWOnly:
		s, err = m.wawOneFlitFold(ctx)
	default:
		return WCTTSummary{}, fmt.Errorf("analysis: unknown design %v", design)
	}
	if err != nil {
		return WCTTSummary{}, err
	}
	kernelAllPairsRuns.Add(1)
	s.Design, s.Dim = design, m.p.Dim
	return s, nil
}

// summaryFold accumulates the max/min/sum of a stream of bounds in arrival
// order (the float sum, hence the mean, is order-sensitive). An empty fold
// has min = MaxUint64, the identity of the running minimum.
//
// Kept an in-order float sum, bit-pinned: the goldens and the benchmark's
// expected outputs pin the mean's bits, so the fold stays serial behind the
// parallel producers. It serves the regular summaries only, whose bounds
// compound and whose sum passes 2^53 from 18x18; an integer total no larger
// than 2^53 is the same float bit for bit (maxExactSum).
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
// partial sum exactly: it equals the integer total, bit for bit, and so
// exactMean keeps the in-order fold's bits (every WaW mesh up to 128x128).
const maxExactSum = 1 << 53

// exactMean is the 128-bit total (hi, lo) over count > 0, correctly
// rounded. When the total and the count are at most maxExactSum both are
// float64s and one IEEE division is the correctly rounded quotient, with no
// allocation; past that it takes math/big.
func exactMean(hi, lo, count uint64) float64 {
	if hi == 0 && lo <= maxExactSum && count <= maxExactSum {
		return float64(lo) / float64(count)
	}
	total := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
	total.Or(total, new(big.Int).SetUint64(lo))
	mean, _ := new(big.Rat).SetFrac(total, new(big.Int).SetUint64(count)).Float64()
	return mean
}

// wawOneFlitFold is the summary of the one-flit guaranteed-bandwidth bound
// over every ordered pair of distinct endpoints (Design and Dim left zero),
// answered without visiting a pair. At P = 1 the bound of a route is 1 plus
// the hopCosts entry of every output the route leaves through (the admission
// term is 0), so:
//
//   - the sum is n(n-1) plus, for every output, its cost times the number of
//     ordered pairs whose route leaves through it (wawOneFlitTotal), and the
//     mean is that exact total over n(n-1) (exactMean);
//   - every hop costs at least R > 0, so extending a route never makes it
//     cheaper: the minimum is a one-hop route, and the maximum starts in an
//     edge column, where a scan along the source's row adds the X hops to the
//     costliest tails (Y hops, then the ejection) of the turn routers, which
//     two column scans tabulate.
//
// It polls ctx once per router row of sources, like the producers, and
// returns ctx's error on cancellation.
func (m *Model) wawOneFlitFold(ctx context.Context) (WCTTSummary, error) {
	W, Ht := m.rdim.Width, m.rdim.Height
	n, rn := len(m.nodes), W*Ht
	sp := getScratch((mesh.NumDirections + 2) * rn)
	defer putScratch(sp)
	cost := (*sp)[:mesh.NumDirections*rn]
	m.hopCosts(cost)
	plane := func(out mesh.Direction) []uint64 { return cost[int(out)*rn:][:rn] }
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
			return WCTTSummary{}, err
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
	count := n * (n - 1)
	if count == 0 {
		return WCTTSummary{}, nil
	}
	hi, lo := m.wawOneFlitTotal(plane)
	return WCTTSummary{Max: hiRoute + 1, Min: loRoute + 1, Mean: exactMean(hi, lo, uint64(count)), Flows: count}, nil
}

// wawOneFlitTotal returns the exact 128-bit sum (hi, lo) of the one-flit
// guaranteed-bandwidth bound over every ordered pair of distinct endpoints,
// given the hopCosts planes for a one-flit slot.
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
func (m *Model) wawOneFlitTotal(plane func(mesh.Direction) []uint64) (hi, lo uint64) {
	W, Ht := uint64(m.rdim.Width), uint64(m.rdim.Height)
	n := uint64(len(m.nodes))
	c := n / (W * Ht)
	hi, lo = addCrossings(0, 0, 1, n, n-1) // the final +1 of every bound
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
				hi, lo = addCrossings(hi, lo, p.cost, p.src, p.dst)
			}
		}
	}
	return hi, lo
}

// addCrossings returns the 128-bit total (hi, lo) + cost·src·dst. It needs
// src·dst < 2^64 and a result below 2^128, and checks neither. Both hold for
// wawOneFlitTotal while the endpoint count n is below 2^32: a port's pairs
// are at most n(n-1) < 2^64, and the total is the sum of n(n-1) < 2^64
// bounds, each below 2^64 (a route's one-flit hop costs add up to less than
// (W+Ht+1)(n+R)), so it stays below 2^128.
func addCrossings(hi, lo, cost, src, dst uint64) (uint64, uint64) {
	phi, plo := bits.Mul64(cost, src*dst)
	lo, carry := bits.Add64(lo, plo, 0)
	hi, _ = bits.Add64(hi, phi, carry)
	return hi, lo
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
	var sh msgShape
	switch design {
	case network.DesignRegular, network.DesignWaPOnly:
		sh = msgShape{a: 1, b: m.p.Link.MaxPacketFlits}
		if design == network.DesignWaPOnly || sh.b == 0 {
			sh.b = m.p.Link.MinPacketFlits
		}
	case network.DesignWaWWaP, network.DesignWaWOnly:
		sh = msgShape{waw: true, a: 1, b: m.p.Link.MinPacketFlits}
		if design == network.DesignWaWOnly && m.p.Link.MaxPacketFlits > 0 {
			sh.b = m.p.Link.MaxPacketFlits
		}
	default:
		return 0, fmt.Errorf("analysis: unknown design %v", design)
	}
	f := m.fold(sh)
	return f.finish(f.hop(f.planes[mesh.Local][m.rdim.Index(m.topo.RouterOf(n))])), nil
}
