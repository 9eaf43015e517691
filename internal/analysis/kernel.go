package analysis

// Incremental all-pairs WCTT kernels: route-prefix sharing across pairs.
//
// The per-pair bounds in wctt.go walk the full XY route for every (src, dst)
// pair — O(hops) work per pair, O(N^2 * hops) = O(N^3) for an all-pairs
// table. Both bounds are left folds over the route's hop sequence, and XY
// routes share long prefixes in their fold order, so the fold state can be
// carried from one pair to the next and extended by exactly one hop:
//
//   - The regular chained-blocking bound accumulates destination-first
//     (ejection, then the Y segment upstream, then the X segment back to the
//     source), so two pairs with the same DESTINATION share the fold prefix
//     covering the route part nearest the destination. The kernel is
//     therefore destination-major: fix a destination router, seed the fold
//     with the ejection hop, extend it down the destination column one Y hop
//     per source row, and from each column state extend along the row one X
//     hop per source column. The legal carried state is exactly the fold
//     state (total, interval): `total` is the sum of finished per-hop waits
//     and `interval` the compounded downstream service interval I_j — both
//     depend only on the hops already folded, never on the source still to
//     come. Per source the only remaining terms are the final
//     (S-1)*interval + 1 serialization, applied on a copy.
//
//   - The WaW guaranteed-bandwidth bound accumulates source-first (X segment
//     from the source, then the Y segment down the destination column, then
//     ejection), so pairs with the same SOURCE share prefixes and the kernel
//     is source-major. The carried state is (total, maxShare): the per-hop
//     slot waits compose additively and the bottleneck share composes by
//     max, so both extend hop-by-hop; the per-destination remainder is the
//     ejection hop plus the (P-1)*maxShare*slot + 1 admission term, applied
//     on a copy. This is why WaW slot terms compose: each hop contributes
//     (O_j-1)*m + R independently of every other hop, and the admission term
//     reads only the running maximum.
//
// Because the carried state is the exact fold state of the per-pair loops,
// every pair's value is produced by the IDENTICAL sequence of saturatingAdd/
// saturatingMul applications as RegularPacketWCTT/WaWPacketWCTT — the
// kernels are byte-identical to the per-pair path by construction, and the
// equivalence tests in kernel_test.go pin it. Total work is O(N^2): amortized
// O(1) per pair (one hop extension + the finishing terms).
//
// The kernels sweep the ROUTER grid (m.rdim): on the concentrated mesh a
// bound depends only on the router pair (uniform packet shapes), so the
// router-pair table is computed once and expanded to the conc^2 endpoint
// pairs per router pair. A router-pair diagonal entry is the ejection-only
// route, which is exactly the bound of two distinct co-located endpoints;
// endpoint-diagonal (self-flow) entries are zeroed.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/mesh"
	"repro/internal/network"
)

// Kernel effectiveness counters (process-wide, exposed through the serve
// stats verb): all-pairs kernel invocations and single-row kernel sweeps
// (the wcet engine's per-core UBD precomputation).
var (
	kernelAllPairsRuns atomic.Uint64
	kernelRowSweeps    atomic.Uint64
)

// KernelCounters reports the cumulative kernel counters: all-pairs kernel
// runs and single-row kernel sweeps. The third result counted memo entries
// warmed from kernel tables; the memo is gone (PR 12), so it is retired and
// always 0 — kept because the frozen bench/ module destructures three.
func KernelCounters() (allPairsRuns, rowSweeps, retired uint64) {
	return kernelAllPairsRuns.Load(), kernelRowSweeps.Load(), 0
}

// kernelScratch pools the transient tables the allocating convenience paths
// (summaries, router-table expansion) use, so steady-state kernel-backed
// summaries stay allocation-free like the per-pair path they replaced.
var kernelScratch = sync.Pool{New: func() any { s := make([]uint64, 0, 4096); return &s }}

func getScratch(n int) *[]uint64 {
	p := kernelScratch.Get().(*[]uint64)
	if cap(*p) < n {
		*p = make([]uint64, n)
	}
	*p = (*p)[:n]
	return p
}

func putScratch(p *[]uint64) { kernelScratch.Put(p) }

// ensureTable returns buf resized to n entries, reallocating only when the
// capacity is insufficient — callers that reuse a buffer across calls get
// allocation-free kernel sweeps.
func ensureTable(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

// identityTopo reports whether endpoints and routers coincide (the 2D mesh),
// letting the kernels write endpoint tables directly. Analytical topologies
// with a reduced router grid (the concentrated meshes) go through the
// router-table expansion instead.
func (m *Model) identityTopo() bool { return m.rdim == m.p.Dim }

// regularDestSweep runs the destination-major prefix-sharing sweep of the
// chained-blocking bound for one destination router rd: it writes the bound
// of a packet of S flits (contenders of L flits) from EVERY source router to
// out[rsIdx*stride+offset], including the rsIdx == rd entry (the
// ejection-only route, meaningful for co-located concentrated-mesh
// endpoints; mesh callers zero the self-flow diagonal afterwards).
func (m *Model) regularDestSweep(out []uint64, stride, offset int, rd mesh.Node, S, L uint64) {
	H := uint64(m.p.HeaderOverhead)
	R := uint64(m.p.RouterLatency)
	W, Ht := m.rdim.Width, m.rdim.Height
	rdIdx := rd.Y*W + rd.X

	// Seed the fold with the ejection hop at the destination router — the
	// prefix every source shares.
	var t0, i0 uint64 = 0, 1
	{
		c := m.contender[rdIdx][mesh.Local]
		wait := saturatingMul(c-1, saturatingAdd(H, saturatingMul(L, i0)))
		t0 = saturatingAdd(t0, saturatingAdd(wait, R))
		i0 = saturatingMul(c, i0)
	}
	// Sources in the destination row share the seed state directly.
	m.regularRowSweep(out, stride, offset, rd.Y, rd, t0, i0, S, L)
	// Sources above the destination (rs.Y < rd.Y) travel YPlus down the
	// destination column: extend the fold by the hop at each row on the way.
	t, iv := t0, i0
	for y := rd.Y - 1; y >= 0; y-- {
		c := m.contender[y*W+rd.X][mesh.YPlus]
		wait := saturatingMul(c-1, saturatingAdd(H, saturatingMul(L, iv)))
		t = saturatingAdd(t, saturatingAdd(wait, R))
		iv = saturatingMul(c, iv)
		m.regularRowSweep(out, stride, offset, y, rd, t, iv, S, L)
	}
	// Sources below the destination travel YMinus.
	t, iv = t0, i0
	for y := rd.Y + 1; y < Ht; y++ {
		c := m.contender[y*W+rd.X][mesh.YMinus]
		wait := saturatingMul(c-1, saturatingAdd(H, saturatingMul(L, iv)))
		t = saturatingAdd(t, saturatingAdd(wait, R))
		iv = saturatingMul(c, iv)
		m.regularRowSweep(out, stride, offset, y, rd, t, iv, S, L)
	}
}

// regularRowSweep extends one column state (tC, iC) of regularDestSweep
// along source row y, finishing one source per X hop in both directions.
func (m *Model) regularRowSweep(out []uint64, stride, offset, y int, rd mesh.Node, tC, iC, S, L uint64) {
	H := uint64(m.p.HeaderOverhead)
	R := uint64(m.p.RouterLatency)
	W := m.rdim.Width
	// The source in the destination column finishes from the column state.
	out[(y*W+rd.X)*stride+offset] = saturatingAdd(saturatingAdd(tC, saturatingMul(S-1, iC)), 1)
	// Sources left of the destination column travel XPlus along row y.
	t, iv := tC, iC
	for x := rd.X - 1; x >= 0; x-- {
		c := m.contender[y*W+x][mesh.XPlus]
		wait := saturatingMul(c-1, saturatingAdd(H, saturatingMul(L, iv)))
		t = saturatingAdd(t, saturatingAdd(wait, R))
		iv = saturatingMul(c, iv)
		out[(y*W+x)*stride+offset] = saturatingAdd(saturatingAdd(t, saturatingMul(S-1, iv)), 1)
	}
	// Sources right of the destination column travel XMinus.
	t, iv = tC, iC
	for x := rd.X + 1; x < W; x++ {
		c := m.contender[y*W+x][mesh.XMinus]
		wait := saturatingMul(c-1, saturatingAdd(H, saturatingMul(L, iv)))
		t = saturatingAdd(t, saturatingAdd(wait, R))
		iv = saturatingMul(c, iv)
		out[(y*W+x)*stride+offset] = saturatingAdd(saturatingAdd(t, saturatingMul(S-1, iv)), 1)
	}
}

// wawSourceSweep runs the source-major prefix-sharing sweep of the
// guaranteed-bandwidth bound for one source router rs: it writes the bound
// of a message of P packets of slot flits to EVERY destination router into
// out (indexed by dense router index, len >= router count), including the
// rs entry (the ejection-only route).
func (m *Model) wawSourceSweep(out []uint64, rs mesh.Node, P, slot uint64) {
	W := m.rdim.Width
	// Destinations in the source column share the empty prefix.
	m.wawColSweep(out, rs.X, rs, 0, 1, P, slot)
	// Destination columns right of the source: extend the row state by one
	// XPlus hop per column crossed.
	R := uint64(m.p.RouterLatency)
	var t uint64 = 0
	var sh uint64 = 1
	for cx := rs.X + 1; cx < W; cx++ {
		o := m.outShare[rs.Y*W+cx-1][mesh.XPlus]
		if o > sh {
			sh = o
		}
		t = saturatingAdd(t, saturatingAdd(saturatingMul(o-1, slot), R))
		m.wawColSweep(out, cx, rs, t, sh, P, slot)
	}
	// Destination columns left of the source travel XMinus.
	t, sh = 0, 1
	for cx := rs.X - 1; cx >= 0; cx-- {
		o := m.outShare[rs.Y*W+cx+1][mesh.XMinus]
		if o > sh {
			sh = o
		}
		t = saturatingAdd(t, saturatingAdd(saturatingMul(o-1, slot), R))
		m.wawColSweep(out, cx, rs, t, sh, P, slot)
	}
}

// wawColSweep extends one turn-column state (tR, shR) of wawSourceSweep down
// destination column cx, finishing one destination per Y hop in both
// directions (the finish is the ejection hop plus the admission term,
// applied on a copy of the carried state).
func (m *Model) wawColSweep(out []uint64, cx int, rs mesh.Node, tR, shR, P, slot uint64) {
	R := uint64(m.p.RouterLatency)
	W, Ht := m.rdim.Width, m.rdim.Height
	finish := func(idx int, t, sh uint64) {
		o := m.outShare[idx][mesh.Local]
		if o > sh {
			sh = o
		}
		t = saturatingAdd(t, saturatingAdd(saturatingMul(o-1, slot), R))
		t = saturatingAdd(t, saturatingMul(P-1, saturatingMul(sh, slot)))
		out[idx] = saturatingAdd(t, 1)
	}
	// The destination in the source row finishes from the row state.
	finish(rs.Y*W+cx, tR, shR)
	// Destinations below the source row travel YPlus.
	t, sh := tR, shR
	for y := rs.Y + 1; y < Ht; y++ {
		o := m.outShare[(y-1)*W+cx][mesh.YPlus]
		if o > sh {
			sh = o
		}
		t = saturatingAdd(t, saturatingAdd(saturatingMul(o-1, slot), R))
		finish(y*W+cx, t, sh)
	}
	// Destinations above the source row travel YMinus.
	t, sh = tR, shR
	for y := rs.Y - 1; y >= 0; y-- {
		o := m.outShare[(y+1)*W+cx][mesh.YMinus]
		if o > sh {
			sh = o
		}
		t = saturatingAdd(t, saturatingAdd(saturatingMul(o-1, slot), R))
		finish(y*W+cx, t, sh)
	}
}

// expandRouterTable expands a src-major router-pair table (tab[rs*RN+rd])
// to the endpoint-pair table buf[src*N+dst] through the endpoint->router
// map, zeroing the self-flow diagonal.
func (m *Model) expandRouterTable(buf, tab []uint64) {
	n := len(m.nodes)
	rn := m.rdim.Nodes()
	for sIdx := 0; sIdx < n; sIdx++ {
		row := tab[int(m.epRouter[sIdx])*rn : int(m.epRouter[sIdx])*rn+rn]
		out := buf[sIdx*n : sIdx*n+n]
		for dIdx := 0; dIdx < n; dIdx++ {
			out[dIdx] = row[m.epRouter[dIdx]]
		}
		out[sIdx] = 0
	}
}

// AllPairsRegularPacketWCTT fills buf (reused when its capacity suffices)
// with the chained-blocking bound of RegularPacketWCTT for every ordered
// endpoint pair: buf[src*N+dst] with N = Dim.Nodes() and dense node
// indexing; self-flow entries are 0. The destination-major kernel computes
// the table in O(N^2) — amortized O(1) per pair — and every entry is
// byte-identical to the per-pair walk.
func (m *Model) AllPairsRegularPacketWCTT(packetFlits, contenderFlits int, buf []uint64) ([]uint64, error) {
	if packetFlits < 1 || contenderFlits < 1 {
		return nil, fmt.Errorf("analysis: packet sizes must be >= 1 flit (got %d, %d)", packetFlits, contenderFlits)
	}
	n := len(m.nodes)
	buf = ensureTable(buf, n*n)
	kernelAllPairsRuns.Add(1)
	S, L := uint64(packetFlits), uint64(contenderFlits)
	if m.identityTopo() {
		for rdIdx, rd := range m.rdim.AllNodes() {
			m.regularDestSweep(buf, n, rdIdx, rd, S, L)
		}
		for i := 0; i < n; i++ {
			buf[i*n+i] = 0
		}
		return buf, nil
	}
	rn := m.rdim.Nodes()
	tabp := getScratch(rn * rn)
	for rdIdx, rd := range m.rdim.AllNodes() {
		m.regularDestSweep(*tabp, rn, rdIdx, rd, S, L)
	}
	m.expandRouterTable(buf, *tabp)
	putScratch(tabp)
	return buf, nil
}

// AllPairsWaWPacketWCTT is the source-major all-pairs kernel of
// WaWPacketWCTT, with the same table layout and buffer contract as
// AllPairsRegularPacketWCTT.
func (m *Model) AllPairsWaWPacketWCTT(numPackets, slotFlits int, buf []uint64) ([]uint64, error) {
	if numPackets < 1 || slotFlits < 1 {
		return nil, fmt.Errorf("analysis: packet counts and sizes must be >= 1 (got %d, %d)", numPackets, slotFlits)
	}
	n := len(m.nodes)
	buf = ensureTable(buf, n*n)
	kernelAllPairsRuns.Add(1)
	P, slot := uint64(numPackets), uint64(slotFlits)
	if m.identityTopo() {
		for rsIdx, rs := range m.rdim.AllNodes() {
			m.wawSourceSweep(buf[rsIdx*n:rsIdx*n+n], rs, P, slot)
			buf[rsIdx*n+rsIdx] = 0
		}
		return buf, nil
	}
	rn := m.rdim.Nodes()
	tabp := getScratch(rn * rn)
	for rsIdx, rs := range m.rdim.AllNodes() {
		m.wawSourceSweep((*tabp)[rsIdx*rn:rsIdx*rn+rn], rs, P, slot)
	}
	m.expandRouterTable(buf, *tabp)
	putScratch(tabp)
	return buf, nil
}

// AllPairsOneFlitWCTT is the all-pairs kernel of FlowWCTTOneFlit (the Table
// II configuration): one-flit packets, one-flit contenders/slots.
func (m *Model) AllPairsOneFlitWCTT(design network.Design, buf []uint64) ([]uint64, error) {
	switch design {
	case network.DesignRegular, network.DesignWaPOnly:
		return m.AllPairsRegularPacketWCTT(1, 1, buf)
	case network.DesignWaWWaP, network.DesignWaWOnly:
		return m.AllPairsWaWPacketWCTT(1, 1, buf)
	default:
		return nil, fmt.Errorf("analysis: unknown design %v", design)
	}
}

// AllPairsMessageWCTT is the all-pairs kernel of MessageWCTT: the bound of a
// message with the given payload for every ordered endpoint pair, using the
// same per-design packetisation as the point query (messageShape).
func (m *Model) AllPairsMessageWCTT(design network.Design, payloadBits int, buf []uint64) ([]uint64, error) {
	sh, err := m.messageShape(design, payloadBits)
	if err != nil {
		return nil, err
	}
	if sh.waw {
		return m.AllPairsWaWPacketWCTT(sh.a, sh.b, buf)
	}
	return m.AllPairsRegularPacketWCTT(sh.a, sh.b, buf)
}

// AllSourcesMessageWCTT fills buf with the MessageWCTT bound from every
// endpoint to the fixed destination dst (dense node indexing; the dst entry
// is 0 — a self flow has no defined WCTT). For regular-model designs this is
// a single destination-major sweep — O(N) for the whole row instead of
// O(N*hops) — because the chained-blocking fold shares its prefix across
// sources of one destination; WaW designs fold source-first and share
// nothing at a fixed destination, so they fall back to the per-pair walk.
func (m *Model) AllSourcesMessageWCTT(design network.Design, dst mesh.Node, payloadBits int, buf []uint64) ([]uint64, error) {
	if !m.p.Dim.Contains(dst) {
		return nil, fmt.Errorf("analysis: node %v outside %v mesh", dst, m.p.Dim)
	}
	sh, err := m.messageShape(design, payloadBits)
	if err != nil {
		return nil, err
	}
	n := len(m.nodes)
	buf = ensureTable(buf, n)
	dstIdx := dst.Y*m.p.Dim.Width + dst.X
	if !sh.waw {
		kernelRowSweeps.Add(1)
		rd := m.topo.RouterOf(dst)
		if m.identityTopo() {
			m.regularDestSweep(buf, 1, 0, rd, uint64(sh.a), uint64(sh.b))
		} else {
			rowp := getScratch(m.rdim.Nodes())
			m.regularDestSweep(*rowp, 1, 0, rd, uint64(sh.a), uint64(sh.b))
			for i := range buf {
				buf[i] = (*rowp)[m.epRouter[i]]
			}
			putScratch(rowp)
		}
		buf[dstIdx] = 0
		return buf, nil
	}
	for i, src := range m.nodes {
		if src == dst {
			buf[i] = 0
			continue
		}
		v, err := m.WaWPacketWCTT(src, dst, sh.a, sh.b)
		if err != nil {
			return nil, err
		}
		buf[i] = v
	}
	return buf, nil
}

// AllDestinationsMessageWCTT is the dual of AllSourcesMessageWCTT: the
// MessageWCTT bound from the fixed source src to every endpoint (the src
// entry is 0). WaW designs get the O(N) source-major sweep; regular designs
// fall back to the per-pair walk.
func (m *Model) AllDestinationsMessageWCTT(design network.Design, src mesh.Node, payloadBits int, buf []uint64) ([]uint64, error) {
	if !m.p.Dim.Contains(src) {
		return nil, fmt.Errorf("analysis: node %v outside %v mesh", src, m.p.Dim)
	}
	sh, err := m.messageShape(design, payloadBits)
	if err != nil {
		return nil, err
	}
	n := len(m.nodes)
	buf = ensureTable(buf, n)
	srcIdx := src.Y*m.p.Dim.Width + src.X
	if sh.waw {
		kernelRowSweeps.Add(1)
		rs := m.topo.RouterOf(src)
		if m.identityTopo() {
			m.wawSourceSweep(buf, rs, uint64(sh.a), uint64(sh.b))
		} else {
			rowp := getScratch(m.rdim.Nodes())
			m.wawSourceSweep(*rowp, rs, uint64(sh.a), uint64(sh.b))
			for i := range buf {
				buf[i] = (*rowp)[m.epRouter[i]]
			}
			putScratch(rowp)
		}
		buf[srcIdx] = 0
		return buf, nil
	}
	for i, dst := range m.nodes {
		if src == dst {
			buf[i] = 0
			continue
		}
		v, err := m.RegularPacketWCTT(src, dst, sh.a, sh.b)
		if err != nil {
			return nil, err
		}
		buf[i] = v
	}
	return buf, nil
}

// AllCoresRoundTripUBD fills buf with RoundTripUBD(design, core, memory,
// requestBits, replyBits) for every core of the mesh (dense node indexing):
// the request row is one destination-major sweep towards the memory
// controller, the reply row one source-major sweep away from it — the whole
// per-core UBD precomputation of the wcet engine in O(N) instead of
// O(N*hops). The core-at-the-controller entry degenerates to twice the
// ejection-port bound exactly like the per-pair path.
func (m *Model) AllCoresRoundTripUBD(design network.Design, memory mesh.Node, requestBits, replyBits int, buf []uint64) ([]uint64, error) {
	if !m.p.Dim.Contains(memory) {
		return nil, fmt.Errorf("analysis: node %v outside %v mesh", memory, m.p.Dim)
	}
	n := len(m.nodes)
	buf = ensureTable(buf, n)
	reqp := getScratch(n)
	defer putScratch(reqp)
	repp := getScratch(n)
	defer putScratch(repp)
	req, err := m.AllSourcesMessageWCTT(design, memory, requestBits, *reqp)
	if err != nil {
		return nil, err
	}
	*reqp = req
	rep, err := m.AllDestinationsMessageWCTT(design, memory, replyBits, *repp)
	if err != nil {
		return nil, err
	}
	*repp = rep
	memIdx := memory.Y*m.p.Dim.Width + memory.X
	for i := range buf {
		if i == memIdx {
			one, err := m.LocalAccessWCTT(design, memory)
			if err != nil {
				return nil, err
			}
			buf[i] = saturatingMul(2, one)
			continue
		}
		buf[i] = saturatingAdd(req[i], rep[i])
	}
	return buf, nil
}
