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
//     source), so pairs with the same DESTINATION share the fold over the
//     route part nearest it: seed the fold with the ejection hop and extend
//     it one Y hop per source row (regularColStates). That column state
//     (t, iv) — the finished waits and the compounded interval I_j — never
//     depends on the source still to come. The X hops from turn column dx
//     back to source column x, with the finishing (S-1)*iv + 1, compose into
//     one map t + A + B*iv of it (regularSegHop, regularSegFinish; per hop
//     A += (c-1)*H + R, B += (c-1)*L*P, P *= c). A row's maps are 2*W^2
//     words, built once per distinct X-contender row (one on every shipped
//     topology; regularXMaps), so a bound is one regularApply: two adds and
//     a multiply, no loop-carried chain.
//
//     Consumers want bounds source-major (the summary's float sum is
//     order-bound, tables are buf[src*N+dst]), so the all-pairs producers
//     (allPairsRun) keep every destination's column states as two row-major
//     planes (colT[y*N+d], colIv[y*N+d]) and fill one router row of sources
//     at a time: a block of W source rows x N destinations, each row written
//     contiguously, read out by the consumer and reused for the next row.
//
//   - The WaW guaranteed-bandwidth bound accumulates source-first (X segment
//     from the source, then the Y segment down the destination column, then
//     ejection), so pairs with the same SOURCE share prefixes and the kernel
//     is source-major. The carried state is (total, maxShare): the per-hop
//     slot waits compose additively and the bottleneck share composes by
//     max, so both extend hop-by-hop; the per-destination remainder is the
//     ejection hop plus the (P-1)*maxShare*slot + 1 admission term, applied
//     on a copy. This is why WaW slot terms compose: each hop contributes
//     (O_j-1)*slot + R independently of every other hop, and the admission
//     term reads only the running maximum.
//
//     That per-hop term depends on the router output and the slot size alone,
//     so a kernel call first tabulates it for every router output (hopCosts,
//     five planes of N words, 160 KiB at 64x64) and the sweeps add table
//     entries instead of redoing the multiply per flow. A source's sweep
//     (wawSourceSweep) first folds the X hops of its own row into one state
//     per turn column, then walks the destination rows outwards from its own
//     — downwards, then upwards — extending all W column states by one Y hop
//     and finishing the W destinations of the row in the same pass. Every
//     array a row step touches (hop-cost and share planes, the column states,
//     the output row) is read or written at consecutive addresses. Sources
//     share nothing but the hop-cost planes, so the WaW table is one sweep
//     per source on the caller (wawSourceRows).
//
// Saturating + and * on non-negative integers, and any expression of them,
// equal the exact result clamped to MaxUint64 (saturatingMul, wctt.go). The
// walks and the kernels group the same exact polynomial differently, so every
// pair gets the same clamped exact value as RegularPacketWCTT/WaWPacketWCTT,
// saturated pairs included (kernel_test.go, FuzzRegularSegmentMap). Total
// work is O(N^2): amortized O(1) per pair.
//
// The kernels sweep the ROUTER grid (m.rdim): on the concentrated mesh a
// bound depends only on the router pair (uniform packet shapes), so each
// source's row of router-pair bounds is expanded to its endpoint row through
// epRouter, one row at a time. A router-pair diagonal entry is the
// ejection-only route, which is exactly the bound of two distinct co-located
// endpoints; endpoint-diagonal (self-flow) entries are zeroed (tables) or
// skipped (summaries).
//
// The regular all-pairs kernel runs on P = min(GOMAXPROCS, 4) producers on
// meshes from 16x16 up (smaller grids and the concentrated meshes stay on the
// caller: one producer, no goroutine); runs in flight at once share
// GOMAXPROCS instead of each taking it (allPairsInFlight). Producer p owns
// the source columns [p*W/P, (p+1)*W/P) of every router row and fills that
// slice of the block by applying its sources' maps; the P slices add up to
// the one block, so transient memory is the column states and maps plus one
// block for any P. The consumer is fed in source order: a turn passes from
// slice to slice, row after row, and only its holder folds or copies, so
// every bound and the summary's float sum see exactly the serial order.
//
// summaryFold (tableii.go) is kept an in-order float sum, bit-pinned: the
// mean of every regular summary is the float sum of its bounds in
// source-major order, divided by the count, and the golden outputs pin its
// bits. Once that sum passes 2^53 an integer sum would change the low bits of
// the mean, so for the regular summaries (past 2^53 from 18x18) the fold
// stays serial, which is why P stops at four, and the producers parallelise
// the rest.
//
// The one-flit WaW summary never comes here: the bound is additive over the
// ports a route crosses, so wawOneFlitFold (tableii.go) sums cost times
// crossing pairs per port into an exact 128-bit total and reads the extremes
// off the hopCosts planes. Its mean is that total over the flow count,
// correctly rounded, which is the in-order float sum's bits while the total
// is at most 2^53 (every mesh up to 128x128).

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/mesh"
	"repro/internal/network"
)

// Kernel effectiveness counters (process-wide, exposed through the serve
// stats verb): all-pairs kernel invocations and completed
// AllCoresRoundTripUBD calls (the wcet engine's per-core UBD rows).
var (
	kernelAllPairsRuns atomic.Uint64
	kernelRowSweeps    atomic.Uint64
)

// KernelCounters reports the cumulative kernel counters: all-pairs kernel
// runs and row sweeps, one per completed AllCoresRoundTripUBD call. The third
// result counted memo entries warmed from kernel tables; the memo is gone
// (PR 12), so it is retired and always 0 — kept because the frozen bench/
// module destructures three.
func KernelCounters() (allPairsRuns, rowSweeps, retired uint64) {
	return kernelAllPairsRuns.Load(), kernelRowSweeps.Load(), 0
}

// kernelScratch pools the transient rows, column states and source-row
// blocks of the kernels, so steady-state kernel-backed summaries and
// warm-buffer tables stay allocation-free like the per-pair path they
// replaced.
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
func ensureTable[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// identityTopo reports whether endpoints and routers coincide (the 2D mesh),
// letting the kernels write endpoint rows directly. Topologies with a
// reduced router grid (the concentrated meshes) expand router rows through
// epRouter instead (expandRow).
func (m *Model) identityTopo() bool { return m.rdim == m.p.Dim }

// regularColStates runs the column half of the chained-blocking sweep for
// one destination router rd over the router rows [ylo, yhi], which contain
// rd.Y: it seeds the fold with the ejection hop and extends it along the
// destination column, leaving in colT[y*stride], colIv[y*stride] the (total,
// interval) state every source of router row y shares — the route part
// nearest the destination. Only the contender size L enters; the analysed
// packet's own size is a finishing term of the X map.
func (m *Model) regularColStates(colT, colIv []uint64, stride int, rd mesh.Node, L uint64, ylo, yhi int) {
	H, R := uint64(m.p.HeaderOverhead), uint64(m.p.RouterLatency)
	W := m.rdim.Width
	// Seed the fold with the ejection hop at the destination router — the
	// prefix every source shares; sources in the destination row use it as is.
	c0 := m.contender[mesh.Local][rd.Y*W+rd.X]
	t0, i0 := saturatingAdd(regularWait(1, c0, H, L), R), c0
	colT[rd.Y*stride], colIv[rd.Y*stride] = t0, i0
	// Sources above the destination (rs.Y < rd.Y) travel YPlus down the
	// destination column, sources below it YMinus: extend the fold by the hop
	// at each row on the way.
	run := func(cs []uint64, from, to, step int) {
		t, iv := t0, i0
		for y := from; y != to; y += step {
			c := cs[y*W+rd.X]
			t, iv = saturatingAdd(t, saturatingAdd(regularWait(iv, c, H, L), R)), saturatingMul(c, iv)
			colT[y*stride], colIv[y*stride] = t, iv
		}
	}
	run(m.contender[mesh.YPlus], rd.Y-1, ylo-1, -1)
	run(m.contender[mesh.YMinus], rd.Y+1, yhi+1, 1)
}

// regularSegHop extends the X-segment map (a, b, p) — the hops folded so far
// take a column state (t, iv) to (t + a + b*iv, p*iv) — by the walk's next
// hop upstream, one with c contenders.
func regularSegHop(a, b, p, c, H, L, R uint64) (uint64, uint64, uint64) {
	return saturatingAdd(a, saturatingAdd(saturatingMul(c-1, H), R)),
		saturatingAdd(b, saturatingMul(c-1, saturatingMul(L, p))), saturatingMul(c, p)
}

// regularSegFinish folds regularFinish into the map (a, b, p) at the source:
// the bound of a packet of S flits is regularApply(t, iv, A, B).
func regularSegFinish(a, b, p, S uint64) (A, B uint64) {
	return saturatingAdd(a, 1), saturatingAdd(b, saturatingMul(S-1, p))
}

// regularApply is the bound a finished X-segment map (A, B) gives from the
// column state (t, iv).
func regularApply(t, iv, A, B uint64) uint64 {
	return saturatingAdd(saturatingAdd(t, A), saturatingMul(B, iv))
}

// regularXMaps writes the finished X-segment maps of turn column dx on router
// row y for a packet of S flits among contenders of L flits: the map of
// source column x into A[x*stride], B[x*stride], for every x in [xlo, xhi],
// which contains dx.
func (m *Model) regularXMaps(A, B []uint64, stride, y, dx int, S, L uint64, xlo, xhi int) {
	H, R, W := uint64(m.p.HeaderOverhead), uint64(m.p.RouterLatency), m.rdim.Width
	// The source in the turn column crosses no X hop.
	A[dx*stride], B[dx*stride] = regularSegFinish(0, 0, 1, S)
	// Sources left of the turn column travel XPlus along the row, sources
	// right of it XMinus.
	run := func(cs []uint64, to, step int) {
		a, b, p := uint64(0), uint64(0), uint64(1)
		for x := dx + step; x != to; x += step {
			a, b, p = regularSegHop(a, b, p, cs[x], H, L, R)
			A[x*stride], B[x*stride] = regularSegFinish(a, b, p, S)
		}
	}
	run(m.contender[mesh.XPlus][y*W:][:W], xlo-1, -1)
	run(m.contender[mesh.XMinus][y*W:][:W], xhi+1, 1)
}

// distinctXRows numbers the router rows by their X contender counts: rows
// with equal XPlus and XMinus counts share a number k, and so the X-segment
// maps built from reps[k], the first of them.
func (m *Model) distinctXRows() (rows []int32, reps []int) {
	W := m.rdim.Width
	plus, minus := m.contender[mesh.XPlus], m.contender[mesh.XMinus]
	rows = make([]int32, m.rdim.Height)
	for y := range rows {
		k := slices.IndexFunc(reps, func(r int) bool {
			return slices.Equal(plus[r*W:][:W], plus[y*W:][:W]) && slices.Equal(minus[r*W:][:W], minus[y*W:][:W])
		})
		if k < 0 {
			k, reps = len(reps), append(reps, y)
		}
		rows[y] = int32(k)
	}
	return rows, reps
}

// Producer counts of the regular all-pairs kernel: one below minParallelRouters
// routers, else GOMAXPROCS shared among the runs in flight, capped at
// maxProducers (see the file comment).
const (
	maxProducers       = 4
	minParallelRouters = 16 * 16
)

// allPairsInFlight counts the all-pairs runs in progress in the process. A
// run's producers get its share of GOMAXPROCS, so runs that already fill the
// cores — a sweep's worker pool, a daemon's concurrent scenario lines — do
// not add the producers' turn hand-offs on top.
var allPairsInFlight atomic.Int64

// producers is the number of all-pairs producers on m's router grid when
// inFlight runs (this one included) are in progress, never more than its
// columns so that every producer owns a slice. The concentrated meshes keep
// one: a router row there is several endpoint rows, so the serial fold and
// row expansion are most of the work (on cmesh4 64x64 two producers measured
// no faster than one).
func (m *Model) producers(inFlight int64) int {
	if m.rdim.Nodes() < minParallelRouters || !m.identityTopo() {
		return 1
	}
	share := max(1, runtime.GOMAXPROCS(0)/int(inFlight))
	return min(share, maxProducers, m.rdim.Width)
}

// allPairsRun is one call of the all-pairs producers of the chained-blocking
// bound: what every producer reads, the block their slices cut up, and the
// consumer the turn holder feeds. It lives on the caller's stack while one
// producer runs.
type allPairsRun struct {
	m   *Model
	ctx context.Context
	// colT and colIv are the column states, planes of H rows of N words;
	// maps holds distinct X row k's maps, source x's A words at
	// maps[2W^2*k + x*W:] and its B words W^2 further.
	colT, colIv, maps []uint64
	// block is one router row of sources: W rows of N words, row x the
	// bounds from source router x to every router, producer p's slice its
	// rows [p*W/P, (p+1)*W/P). epRow is the endpoint row a router row
	// expands to on the concentrated meshes.
	block, epRow []uint64
	// The consumer: table, when non-nil, receives every source row at
	// table[si*N:] with the self entry zeroed; otherwise fold sums them.
	table []uint64
	fold  summaryFold
	err   error
}

// allPairs runs the all-pairs producers of the chained-blocking bound of
// packets of a flits among contenders of b flits, and feeds every source
// endpoint's row of bounds, in index order, to table (when non-nil) or to a
// summary fold, which it returns. ctx is polled by the turn holder once per
// router row of sources; a cancelled run returns ctx's error after every
// producer has stopped.
func (m *Model) allPairs(ctx context.Context, a, b uint64, table []uint64) (summaryFold, error) {
	W, Ht := m.rdim.Width, m.rdim.Height
	n, rn := len(m.nodes), W*Ht
	allPairsInFlight.Add(1)
	defer allPairsInFlight.Add(-1)
	r := allPairsRun{m: m, ctx: ctx, table: table, fold: summaryFold{min: math.MaxUint64}}
	pre := 2*Ht*rn + 2*W*W*len(m.xRep)
	sp := getScratch(pre + W*rn + n)
	defer putScratch(sp)
	buf := *sp
	r.colT, r.colIv, r.maps = buf[:Ht*rn], buf[Ht*rn:2*Ht*rn], buf[2*Ht*rn:pre]
	r.block, r.epRow = buf[pre:pre+W*rn], buf[pre+W*rn:]
	for rdIdx := 0; rdIdx < rn; rdIdx++ {
		m.regularColStates(r.colT[rdIdx:], r.colIv[rdIdx:], rn, m.rdim.NodeAt(rdIdx), b, 0, Ht-1)
	}
	for k, y := range m.xRep {
		for dx := 0; dx < W; dx++ {
			m.regularXMaps(r.maps[2*W*W*k+dx:], r.maps[(2*k+1)*W*W+dx:], W, y, dx, a, b, 0, W-1)
		}
	}
	// Sized only now, so that runs started together see each other.
	P := m.producers(allPairsInFlight.Load())
	if P == 1 {
		r.produce(0, 1, nil)
		return r.fold, r.err
	}
	// The producers share a heap copy of the run, so that the caller's run
	// stays on its stack when one producer runs (0 allocs per summary).
	h := new(allPairsRun)
	*h = r
	turns := make([]chan bool, P)
	for p := range turns {
		turns[p] = make(chan bool, 1)
	}
	turns[0] <- true
	var wg sync.WaitGroup
	for p := 1; p < P; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.produce(p, P, turns)
		}()
	}
	h.produce(0, P, turns)
	wg.Wait()
	return h.fold, h.err
}

// produce is producer p of P: for every router row it fills its slice of the
// block, waits for the turn, feeds the slice's sources to the consumer and
// passes the turn on — to producer p+1, or to producer 0 for the next row.
// turns[q] carries the turn to producer q (true to feed, false to stop) and
// is nil for a lone producer, which always holds the turn and feeds every
// endpoint of the router row (two endpoint rows of them on the 2x2
// concentrated mesh). It returns early when the consumer's context is
// cancelled, after telling the others to stop.
func (r *allPairsRun) produce(p, P int, turns []chan bool) {
	m := r.m
	W, Ht := m.rdim.Width, m.rdim.Height
	lo, hi, rn := p*W/P, (p+1)*W/P, m.rdim.Nodes()
	slice := r.block[lo*rn : hi*rn]
	perRow := len(m.nodes) / Ht // source endpoints per router row
	for y := 0; y < Ht; y++ {
		r.fill(slice, y, lo, hi)
		first, end := y*perRow, (y+1)*perRow
		if turns != nil {
			// Only the mesh runs several producers: one source per router.
			first, end = y*W+lo, y*W+hi
			if !<-turns[p] {
				return
			}
		}
		if !r.feed(slice, lo, first, end, p, turns) {
			return
		}
		if turns != nil {
			turns[(p+1)%P] <- true
		}
	}
}

// feed hands the sources [si, end) of producer p's slice (whose first column
// is lo) to the consumer, polling ctx before the first source of every router
// row. On cancellation it records ctx's error, tells the other producers to
// stop and returns false.
func (r *allPairsRun) feed(slice []uint64, lo, si, end, p int, turns []chan bool) bool {
	m := r.m
	W, rn := m.rdim.Width, m.rdim.Nodes()
	perRow := len(m.nodes) / m.rdim.Height
	for ; si < end; si++ {
		if si%perRow == 0 {
			if err := r.ctx.Err(); err != nil {
				r.err = err
				for q := range turns {
					if q != p {
						turns[q] <- false
					}
				}
				return false
			}
		}
		row := slice[(int(m.epRouter[si])%W-lo)*rn:][:rn]
		if !m.identityTopo() {
			m.expandRow(r.epRow, row)
			row = r.epRow
		}
		r.visit(si, row)
	}
	return true
}

// fill writes a producer's slice of router row y: the bounds from the source
// routers at columns [lo, hi) of the row to every router.
func (r *allPairsRun) fill(slice []uint64, y, lo, hi int) {
	m := r.m
	W, rn := m.rdim.Width, m.rdim.Nodes()
	colT, colIv := r.colT[y*rn:][:rn], r.colIv[y*rn:][:rn]
	maps := r.maps[2*W*W*int(m.xRow[y]):]
	for x := lo; x < hi; x++ {
		A, B, out := maps[x*W:][:W], maps[W*W+x*W:][:W], slice[(x-lo)*rn:][:rn]
		// Destination d turns at column d%W: one pass per destination row.
		for seg := 0; seg < rn; seg += W {
			o, t, iv := out[seg:seg+W], colT[seg:seg+W], colIv[seg:seg+W]
			for dx := range o {
				o[dx] = regularApply(t[dx], iv[dx], A[dx], B[dx])
			}
		}
	}
}

// visit feeds the row of bounds from source endpoint si to the consumer.
func (r *allPairsRun) visit(si int, row []uint64) {
	if r.table == nil {
		r.fold.addSource(si, row)
		return
	}
	n := len(row)
	copy(r.table[si*n:], row)
	r.table[si*n+si] = 0
}

// hopCosts fills cost with wawHopCost of every router output for the given
// slot size, in NumDirections planes of one entry per router —
// cost[out*rn+idx], the layout of outShare — once per call instead of once
// per flow crossing the port; the Local plane is the ejection term of each
// destination.
func (m *Model) hopCosts(cost []uint64, slot uint64) {
	R, rn := uint64(m.p.RouterLatency), m.rdim.Nodes()
	for out, shares := range m.outShare {
		for idx, o := range shares {
			cost[out*rn+idx] = wawHopCost(o, slot, R)
		}
	}
}

// wawSourceRows writes, for every source endpoint si, the guaranteed-bandwidth
// bound of a message of P packets of slot flits from si to every endpoint
// into out[si*N:][:N] (dense endpoint indexing), the self entry 0. It
// tabulates the hop costs once and runs one wawSourceSweep per source router;
// on the concentrated meshes each router row is expanded to the endpoint row,
// and consecutive sources on one router share its sweep.
func (m *Model) wawSourceRows(out []uint64, P, slot uint64) {
	W, rn, n := m.rdim.Width, m.rdim.Nodes(), len(m.nodes)
	sp := getScratch(mesh.NumDirections*rn + 4*W + rn)
	defer putScratch(sp)
	cost, state := (*sp)[:mesh.NumDirections*rn], (*sp)[mesh.NumDirections*rn:][:4*W]
	routerRow := (*sp)[mesh.NumDirections*rn+4*W:]
	m.hopCosts(cost, slot)
	swept := -1
	for si := range n {
		row, rs := out[si*n:][:n], int(m.epRouter[si])
		if m.identityTopo() {
			m.wawSourceSweep(row, cost, state, m.rdim.NodeAt(rs), P, slot)
		} else {
			if rs != swept {
				m.wawSourceSweep(routerRow, cost, state, m.rdim.NodeAt(rs), P, slot)
				swept = rs
			}
			m.expandRow(row, routerRow)
		}
		row[si] = 0
	}
}

// wawSourceSweep runs the source-major prefix-sharing sweep of the
// guaranteed-bandwidth bound for one source router rs over cost, the hopCosts
// planes for the given slot size: it writes the bound of a message of P
// packets of slot flits to EVERY destination router into out (indexed by
// dense router index, len >= router count), including the rs entry (the
// ejection-only route). state is 4W words of scratch for the row and column
// states.
//
// Destinations are finished a router row at a time. The carried state is one
// (total, maxShare) pair per destination column — the fold over the route
// prefix that ends in the current row of that column — so a row step reads
// one row of each hop plane and writes one row of bounds, all contiguous.
func (m *Model) wawSourceSweep(out, cost, state []uint64, rs mesh.Node, P, slot uint64) {
	W, Ht := m.rdim.Width, m.rdim.Height
	rn, base := W*Ht, rs.Y*W
	plane := func(out mesh.Direction) []uint64 { return cost[int(out)*rn:][:rn] }
	rowT, rowSh, t, sh := state[:W], state[W:2*W], state[2*W:3*W], state[3*W:]
	// The row state: destinations in the source column share the empty
	// prefix, other turn columns extend it along the source row.
	m.wawSegStates(rowT, rowSh, true, rs.Y, rs.X, 0, 1, slot, 0, W-1)
	// Destinations in the source row finish from the row state; rows below
	// extend a copy of it by the YPlus hop out of the row above, rows above
	// by the YMinus hop out of the row below.
	ej, ejSh := plane(mesh.Local), m.outShare[mesh.Local]
	wawFinishRow(out[base:base+W], rowT, rowSh, ej[base:], ejSh[base:], P, slot)
	rows := func(dir mesh.Direction, to, step int) {
		copy(t, rowT)
		copy(sh, rowSh)
		hop, hopSh := plane(dir), m.outShare[dir]
		for y := rs.Y + step; y != to; y += step {
			prev := (y - step) * W
			wawStepRow(out[y*W:y*W+W], t, sh, hop[prev:], hopSh[prev:], ej[y*W:], ejSh[y*W:], P, slot)
		}
	}
	rows(mesh.YPlus, Ht, 1)
	rows(mesh.YMinus, -1, -1)
}

// wawSegStates folds one straight segment of the guaranteed-bandwidth bound
// for the given slot size along router row line (byRow) or router column
// line: starting from the state (t0, sh0) at position at along it, it leaves
// in t[k], sh[k] the (total, maxShare) state at every position k in [lo, hi],
// extended by one hop per router crossed — XPlus/YPlus hops towards higher
// positions, XMinus/YMinus towards lower ones. A segment costs O(W + Ht), so
// the hop costs are computed here rather than read off hopCosts planes.
func (m *Model) wawSegStates(t, sh []uint64, byRow bool, line, at int, t0, sh0, slot uint64, lo, hi int) {
	R, W := uint64(m.p.RouterLatency), m.rdim.Width
	plus, minus, base, stride := mesh.YPlus, mesh.YMinus, line, W
	if byRow {
		plus, minus, base, stride = mesh.XPlus, mesh.XMinus, line*W, 1
	}
	up, down := m.outShare[plus][base:], m.outShare[minus][base:]
	t[at], sh[at] = t0, sh0
	for k := at + 1; k <= hi; k++ {
		o := up[(k-1)*stride]
		t[k], sh[k] = saturatingAdd(t[k-1], wawHopCost(o, slot, R)), max(sh[k-1], o)
	}
	for k := at - 1; k >= lo; k-- {
		o := down[(k+1)*stride]
		t[k], sh[k] = saturatingAdd(t[k+1], wawHopCost(o, slot, R)), max(sh[k+1], o)
	}
}

// wawFinishRow finishes one row of destinations, one per column, from the
// carried per-column states (t, sh): the ejection hop (cost ej, share ejSh)
// and the admission term, applied on a copy.
func wawFinishRow(out, t, sh, ej, ejSh []uint64, P, slot uint64) {
	for cx := range out {
		out[cx] = wawFinish(t[cx], sh[cx], ej[cx], ejSh[cx], P, slot)
	}
}

// wawStepRow extends the per-column states in place by one Y hop each — hop
// and hopSh are that hop's cost and output share at each column — and
// finishes the row they now end in: wawFinishRow fused into the extension
// loop, so a flow costs one pass over the row, not two.
func wawStepRow(out, t, sh, hop, hopSh, ej, ejSh []uint64, P, slot uint64) {
	n := len(out) // one length for every row: no bounds check per flow
	t, sh, hop, hopSh, ej, ejSh = t[:n], sh[:n], hop[:n], hopSh[:n], ej[:n], ejSh[:n]
	for cx := range out {
		total, share := saturatingAdd(t[cx], hop[cx]), max(sh[cx], hopSh[cx])
		t[cx], sh[cx] = total, share
		// wawFinish, written out: the compiler does not inline it, and this
		// loop runs once per flow of the all-pairs sweeps.
		total = saturatingAdd(total, ej[cx])
		total = saturatingAdd(total, wawAdmission(max(share, ejSh[cx]), P, slot))
		out[cx] = saturatingAdd(total, 1)
	}
}

// expandRow maps a row of bounds indexed by router (the far ends of the
// flows of one fixed router) to the endpoint-indexed row out.
func (m *Model) expandRow(out, row []uint64) {
	for i, r := range m.epRouter {
		out[i] = row[r]
	}
}

// AllPairsRegularPacketWCTT fills buf (reused when its capacity suffices)
// with the chained-blocking bound of RegularPacketWCTT for every ordered
// endpoint pair: buf[src*N+dst] with N = Dim.Nodes() and dense node
// indexing; self-flow entries are 0. The all-pairs producers compute the
// table in O(N^2) — amortized O(1) per pair — and every entry is
// byte-identical to the per-pair walk.
func (m *Model) AllPairsRegularPacketWCTT(packetFlits, contenderFlits int, buf []uint64) ([]uint64, error) {
	if packetFlits < 1 || contenderFlits < 1 {
		return nil, fmt.Errorf("analysis: packet sizes must be >= 1 flit (got %d, %d)", packetFlits, contenderFlits)
	}
	n := len(m.nodes)
	buf = ensureTable(buf, n*n)
	kernelAllPairsRuns.Add(1)
	// The background context is never cancelled.
	_, _ = m.allPairs(context.Background(), uint64(packetFlits), uint64(contenderFlits), buf)
	return buf, nil
}

// AllPairsWaWPacketWCTT is the source-major all-pairs kernel of
// WaWPacketWCTT, with the same table layout and buffer contract as
// AllPairsRegularPacketWCTT: one wawSourceSweep per source, on the caller.
func (m *Model) AllPairsWaWPacketWCTT(numPackets, slotFlits int, buf []uint64) ([]uint64, error) {
	if numPackets < 1 || slotFlits < 1 {
		return nil, fmt.Errorf("analysis: packet counts and sizes must be >= 1 (got %d, %d)", numPackets, slotFlits)
	}
	n := len(m.nodes)
	buf = ensureTable(buf, n*n)
	kernelAllPairsRuns.Add(1)
	m.wawSourceRows(buf, uint64(numPackets), uint64(slotFlits))
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

// AllCoresRoundTripUBD fills buf with RoundTripUBD(design, core, memory,
// requestBits, replyBits) for every core of the mesh (dense node indexing):
// the wcet engine's per-core UBD row. The request and reply messages of every
// core but the controller's own are two BatchMessageWCTT query lists, so each
// entry sums two MessageWCTT bounds; the core at the controller gets twice
// the ejection-port bound, as on the per-pair path. Both lists poll ctx, and
// a call that meets its error returns it.
func (m *Model) AllCoresRoundTripUBD(ctx context.Context, design network.Design, memory mesh.Node, requestBits, replyBits int, buf []uint64) ([]uint64, error) {
	if !m.p.Dim.Contains(memory) {
		return nil, fmt.Errorf("analysis: node %v outside %v mesh", memory, m.p.Dim)
	}
	one, err := m.LocalAccessWCTT(design, memory)
	if err != nil {
		return nil, err
	}
	n, at := len(m.nodes), m.p.Dim.Index(memory)
	// Query k is the core of dense index k below the controller's, k+1 from it on.
	core := func(k int) mesh.Node {
		if k >= at {
			k++
		}
		return m.nodes[k]
	}
	reqp := getScratch(n - 1)
	defer putScratch(reqp)
	repp := getScratch(n - 1)
	defer putScratch(repp)
	req, err := m.BatchMessageWCTT(ctx, design, n-1, func(k int) (mesh.Node, mesh.Node, int) {
		return core(k), memory, requestBits
	}, *reqp)
	if err != nil {
		return nil, err
	}
	rep, err := m.BatchMessageWCTT(ctx, design, n-1, func(k int) (mesh.Node, mesh.Node, int) {
		return memory, core(k), replyBits
	}, *repp)
	if err != nil {
		return nil, err
	}
	buf = ensureTable(buf, n)
	k := 0
	for i := range buf {
		if i == at {
			buf[i] = saturatingMul(2, one)
			continue
		}
		buf[i] = saturatingAdd(req[k], rep[k])
		k++
	}
	kernelRowSweeps.Add(1)
	return buf, nil
}
