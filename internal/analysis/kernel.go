package analysis

// Incremental all-pairs WCTT kernels: route-prefix sharing across pairs.
//
// The per-pair bounds in wctt.go fold the full XY route for every (src, dst)
// pair — O(hops) work per pair, O(N^2 * hops) = O(N^3) for an all-pairs
// table. Every run of a route's hops is one segment map (segMap, wctt.go)
// that extends by one hop at either end in O(1), so routes that share a run
// share its map: a line sweep (segFold.line) extends one map along a router
// row or column and leaves the map of every position on the way.
//
//   - The regular chained-blocking kernel (allPairs) sweeps every
//     destination's column from its ejection hop out to every source row.
//     Applied to the ejection port's state (0, 1), the map at row y is the
//     column state (t, iv) that every source of router row y shares — the
//     finished waits and the compounded interval I_j. The X hops from turn
//     column dx back to source column x are one more map, closed with the
//     finishing (S-1)*iv + 1 into (A, B) (segFold.close), so a bound is one
//     regularApply: two adds and a multiply, no loop-carried chain. A row's
//     maps are 2*W^2 words, built once per distinct X-contender row (one on
//     every shipped topology).
//
//     Consumers want bounds source-major (the summary's float sum is
//     order-bound, tables are buf[src*N+dst]), so the all-pairs producers
//     (allPairsRun) keep every destination's column states as two row-major
//     planes (colT[y*N+d], colIv[y*N+d]) and fill one router row of sources
//     at a time: a block of W source rows x N destinations, each row written
//     contiguously, read out by the consumer and reused for the next row.
//
//   - The WaW guaranteed-bandwidth table (AllPairsWaWPacketWCTT) is one
//     source-keyed sweep of BatchMessageWCTT's (sweepFrom, batch.go) per
//     source router, every router its destination: the maps extend along the
//     source row to every turn column and down every turn column, and each
//     destination adds its ejection hop.
//
// Saturating + and * on non-negative integers, and any expression of them,
// equal the exact result clamped to MaxUint64 (saturatingMul, wctt.go). The
// walk and the kernels group the same exact polynomial differently, so every
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

// lineScratch pools the row of maps a line sweep of allPairs leaves.
var lineScratch = sync.Pool{New: func() any { return new([]segMap) }}

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

// line extends the map start at position at of router row idx (byRow) or
// router column idx one hop at a time, leaving the map of every position k
// in [lo, hi], which contains at, in ms[k]. Towards sources (toSrc) the maps
// are of routes that end at at and each hop joins at the source end;
// otherwise of routes that start at at and each hop joins at the destination
// end. Hops towards higher positions leave through XPlus or YPlus, towards
// lower ones through XMinus or YMinus.
func (f *segFold) line(ms []segMap, byRow bool, idx, at, lo, hi int, start segMap, toSrc bool) {
	plus, minus, stride := f.planes[mesh.YPlus][idx:], f.planes[mesh.YMinus][idx:], f.w
	if byRow {
		plus, minus, stride = f.planes[mesh.XPlus][idx*f.w:], f.planes[mesh.XMinus][idx*f.w:], 1
	}
	then := f.then()
	ms[at] = start
	for k := at + 1; k <= hi; k++ {
		if toSrc {
			ms[k] = then(ms[k-1], f.hop(minus[k*stride]))
		} else {
			ms[k] = then(f.hop(plus[(k-1)*stride]), ms[k-1])
		}
	}
	for k := at - 1; k >= lo; k-- {
		if toSrc {
			ms[k] = then(ms[k+1], f.hop(plus[k*stride]))
		} else {
			ms[k] = then(f.hop(minus[(k+1)*stride]), ms[k+1])
		}
	}
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
// messages of shape sh, and feeds every source endpoint's row of bounds, in
// index order, to table (when non-nil) or to a summary fold, which it
// returns. ctx is polled on the caller once per router row of destinations
// while it builds the column states, then once per turn column of the X maps
// (W per distinct X row), and then by the turn holder once per router row of
// sources; a cancelled run returns ctx's error after every producer has
// stopped.
func (m *Model) allPairs(ctx context.Context, sh msgShape, table []uint64) (summaryFold, error) {
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
	f, lp := m.fold(sh), lineScratch.Get().(*[]segMap)
	defer lineScratch.Put(lp)
	ms := ensureTable(*lp, max(W, Ht))
	*lp = ms
	for rdIdx := range rn {
		if rdIdx%W == 0 {
			if err := ctx.Err(); err != nil {
				return summaryFold{}, err
			}
		}
		rd := m.rdim.NodeAt(rdIdx)
		f.line(ms, false, rd.X, rd.Y, 0, Ht-1, f.hop(f.planes[mesh.Local][rdIdx]), true)
		for y, s := range ms[:Ht] {
			r.colT[y*rn+rdIdx], r.colIv[y*rn+rdIdx] = saturatingAdd(s.a, s.b), s.p
		}
	}
	for k, y := range m.xRep {
		for dx := range W {
			if err := ctx.Err(); err != nil {
				return summaryFold{}, err
			}
			f.line(ms, true, y, dx, 0, W-1, segMap{p: 1}, true)
			for x, s := range ms[:W] {
				r.maps[2*W*W*k+x*W+dx], r.maps[(2*k+1)*W*W+x*W+dx] = f.close(s)
			}
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

// hopCosts fills cost with the one-flit guaranteed-bandwidth hop cost
// (O-1) + R of every router output, the a of its segment map, in
// NumDirections planes of one entry per router — cost[out*rn+idx], the
// layout of outShare; the Local plane is the ejection term of each
// destination. wawOneFlitFold sums and scans these planes.
func (m *Model) hopCosts(cost []uint64) {
	f, rn := m.fold(msgShape{waw: true, a: 1, b: 1}), m.rdim.Nodes()
	for out, shares := range m.outShare {
		for idx, o := range shares {
			cost[out*rn+idx] = f.hop(o).a
		}
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
	_, _ = m.allPairs(context.Background(), msgShape{a: packetFlits, b: contenderFlits}, buf)
	return buf, nil
}

// AllPairsWaWPacketWCTT is the source-major all-pairs kernel of
// WaWPacketWCTT, with the same table layout and buffer contract as
// AllPairsRegularPacketWCTT: one source-keyed sweep (sweepFrom) per source
// router, on the caller, every router a destination. On the concentrated
// meshes each router row is expanded to the endpoint row, and consecutive
// sources on one router share its sweep.
func (m *Model) AllPairsWaWPacketWCTT(numPackets, slotFlits int, buf []uint64) ([]uint64, error) {
	if numPackets < 1 || slotFlits < 1 {
		return nil, fmt.Errorf("analysis: packet counts and sizes must be >= 1 (got %d, %d)", numPackets, slotFlits)
	}
	n := len(m.nodes)
	buf = ensureTable(buf, n*n)
	kernelAllPairsRuns.Add(1)
	rp := getScratch(m.rdim.Nodes())
	defer putScratch(rp)
	sh := msgShape{waw: true, a: numPackets, b: slotFlits}
	for si := range n {
		if rs := int(m.epRouter[si]); si == 0 || rs != int(m.epRouter[si-1]) {
			m.sweepFrom(m.rdim.NodeAt(rs), sh, *rp)
		}
		m.expandRow(buf[si*n:][:n], *rp)
		buf[si*n+si] = 0
	}
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
