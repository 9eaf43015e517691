// Package analysis implements the worst-case traversal time (WCTT) models of
// the paper: the chained-blocking bound that regular wormhole mesh NoCs with
// round-robin arbitration admit, and the guaranteed-bandwidth bound that the
// WaW + WaP design admits. These bounds are time-composable: they depend only
// on the topology, the routing algorithm, the arbitration policy and the
// maximum packet size — never on the actual load other tasks put on the NoC
// (the analysis always assumes the worst possible contention, assumptions
// (1)–(5) of Section II.A).
//
// # Regular wNoC (round-robin) — chained-blocking bound
//
// For a flow whose XY route visits routers r_1 … r_k through output ports
// o_1 … o_k (o_k is the ejection port at the destination), let c_j be the
// number of input ports of r_j that can legally request o_j (XY-turn rules
// and mesh boundary taken into account). Under worst-case congestion every
// one of those inputs always has a maximum-size (L-flit) packet to send.
// Define the worst-case per-flit service interval seen upstream of hop j:
//
//	I_{k+1} = 1                      (ejection accepts one flit per cycle)
//	I_j     = c_j * I_{j+1}          (round-robin interleaves c_j inputs, each
//	                                  flit needing I_{j+1} cycles downstream)
//
// and the worst-case arbitration/blocking wait of hop j:
//
//	W_j = (c_j - 1) * (H + L * I_{j+1})
//
// (every other contender may be served first, each holding the output for a
// full L-flit packet whose flits drain at the downstream worst-case interval;
// H is the per-packet header/arbitration overhead). The bound is
//
//	WCTT = Σ_j (W_j + R) + (S - 1) * I_1 + 1
//
// with R the per-hop router+link latency and S the analysed packet's size in
// flits. The I_j recursion compounds multiplicatively along the path, which
// is exactly the scalability collapse Table II of the paper shows: the bound
// grows by roughly an order of magnitude per mesh-size increment.
//
// # WaW + WaP — guaranteed-bandwidth bound
//
// With WaP every packet in the network has the minimum size m, so an
// arbitration slot is m flit cycles regardless of the contenders' message
// sizes. With WaW the weighted arbitration guarantees the input port carrying
// a flow the fraction W(I,O) = I/O of every output port it crosses, and the
// flows sharing the input port split it equally, so every flow owns a 1/O_j
// share of output o_j (O_j is the per-destination-normalised number of flows
// crossing o_j, closed forms in the flows package). The worst-case wait for
// one slot at hop j is therefore bounded by (O_j - 1) slots of m flits each,
// giving
//
//	WCTT_WaW = Σ_j ((O_j - 1) * m + R) + (P - 1) * max_j(O_j) * m + 1
//
// where P is the number of minimum-size packets the message is sliced into.
// The bound is dominated by the destination ejection port (O = N*M - 1) and
// grows linearly with the node count — the paper's scalability claim.
package analysis

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/flit"
	"repro/internal/flows"
	"repro/internal/mesh"
	"repro/internal/network"
)

// Params gathers the platform parameters of the WCTT models.
type Params struct {
	// Dim is the endpoint grid (the mesh size; for the concentrated mesh the
	// core grid, whose router grid is derived from Topo).
	Dim mesh.Dim
	// Topo selects the topology the bounds are derived on; the zero value is
	// the paper's 2D mesh.
	Topo mesh.TopoSpec
	// Link describes the link width, control overhead, maximum packet size L
	// and minimum packet size m.
	Link flit.LinkConfig
	// RouterLatency R is the per-hop router+link latency in cycles.
	RouterLatency int
	// HeaderOverhead H is the per-packet arbitration/header overhead in
	// cycles charged for every contender packet in the regular model.
	HeaderOverhead int
}

// DefaultParams returns the model parameters of the paper's platform for a
// mesh of the given dimensions.
func DefaultParams(d mesh.Dim) Params {
	return Params{
		Dim:            d,
		Link:           flit.DefaultLinkConfig(),
		RouterLatency:  1,
		HeaderOverhead: 1,
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if err := p.Dim.Validate(); err != nil {
		return err
	}
	if err := p.Link.Validate(); err != nil {
		return err
	}
	if p.RouterLatency < 1 {
		return fmt.Errorf("analysis: router latency must be >= 1 cycle, got %d", p.RouterLatency)
	}
	if p.HeaderOverhead < 0 {
		return fmt.Errorf("analysis: header overhead must be >= 0, got %d", p.HeaderOverhead)
	}
	return nil
}

// Model computes WCTT bounds for flows of one mesh instance.
//
// Construction precomputes everything the per-flow bounds read — the
// worst-case contender count c(n, out) of the chained-blocking model and the
// per-destination-normalised output share O(n, out) of the guaranteed-
// bandwidth model — into flat per-node-index arrays, so the bound functions
// walk XY routes with pure arithmetic: no maps, no route materialisation, no
// heap allocations. Construction itself is one pass over the routers that
// reads both arrays off the closed forms of each router's position
// (Topology.Ports and flows.TurnLoad), allocating nothing per router.
// A Model is immutable after construction and safe for concurrent use. It
// owns everything it reads — the arrays below are built for it, not shared
// with another model — so dropping the model frees all of it; sharing models
// is the scenario layer's bounded model cache, nothing below it.
type Model struct {
	p     Params
	nodes []mesh.Node // the endpoint grid in index order

	// topo is the resolved topology and rdim its router grid — the index
	// space of the contender/outShare arrays. For the mesh rdim equals
	// p.Dim; for the concentrated mesh it is the reduced router grid and
	// bounds walk it after mapping endpoints through topo.RouterOf.
	topo mesh.Topology
	rdim mesh.Dim

	// contender[out][idx] is the chained-blocking contender count c of
	// output `out` at the router with dense index idx (>= 1). One plane per
	// output, so a kernel sweeping a router row or column in one travel
	// direction reads consecutive words.
	contender [mesh.NumDirections][]uint64
	// outShare[out][idx] is max(1, OutputTotal) of output `out` at router
	// idx — the O_j term of the WaW guaranteed-bandwidth bound.
	outShare [mesh.NumDirections][]uint64

	// epRouter[epIdx] is the dense router index of endpoint epIdx — the
	// identity on the mesh, the concentration map on the concentrated mesh.
	// The kernels use it to expand rows of router-pair bounds to endpoint
	// rows (kernel.go).
	epRouter []int32
	// xRow[y] numbers router row y by its X contender counts, and xRep[k]
	// is the first row numbered k (distinctXRows, kernel.go).
	xRow []int32
	xRep []int
}

// NewModel builds a WCTT model for the given parameters.
func NewModel(p Params) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	topo, err := p.Topo.Build(p.Dim)
	if err != nil {
		return nil, err
	}
	rdim := topo.RouterDim()
	m := &Model{
		p:     p,
		nodes: p.Dim.AllNodes(),
		topo:  topo,
		rdim:  rdim,
	}
	for _, out := range mesh.Directions {
		m.contender[out] = make([]uint64, rdim.Nodes())
		m.outShare[out] = make([]uint64, rdim.Nodes())
	}
	for idx := range rdim.Nodes() {
		n := rdim.NodeAt(idx)
		loads := topo.InputLoads(n)
		legal, outputs := topo.Ports(n)
		for out, ins := range legal {
			// The contenders of assumption (2) are the inputs that may
			// request out. The degenerate Local->Local pair is excluded
			// where a router serves a single endpoint, which never sends
			// to itself; with several endpoints per router (the
			// concentrated mesh) the Local input does carry traffic
			// towards local destinations. The output share sums the same
			// inputs' loads, the weight table's OutputTotal.
			c, o := bits.OnesCount8(ins), 0
			if out == int(mesh.Local) && topo.LocalPairLoad() == 0 {
				c--
			}
			for ; ins != 0 && outputs&(1<<out) != 0; ins &= ins - 1 {
				o += flows.TurnLoad(topo, &loads, mesh.Direction(bits.TrailingZeros8(ins)), mesh.Direction(out))
			}
			m.contender[out][idx] = uint64(max(1, c))
			m.outShare[out][idx] = uint64(max(1, o))
		}
	}
	m.epRouter = make([]int32, len(m.nodes))
	for i, n := range m.nodes {
		m.epRouter[i] = int32(rdim.Index(topo.RouterOf(n)))
	}
	m.xRow, m.xRep = m.distinctXRows()
	return m, nil
}

// MustNewModel is like NewModel but panics on error.
func MustNewModel(p Params) *Model {
	m, err := NewModel(p)
	if err != nil {
		panic(err)
	}
	return m
}

// Params returns the model parameters.
func (m *Model) Params() Params { return m.p }

// saturatingMul multiplies two uint64 values, clamping the product to
// MaxUint64: one widening multiply and a test of the high word — no divide,
// no zero special case. Saturation is the common case, not a corner: the
// regular bound's service interval compounds multiplicatively along the
// route, so on the default platform the longest flows overflow 64 bits from
// about 24x24 and most flows of a 48x48 or 64x64 mesh report MaxUint64.
//
// Together with saturatingAdd it is the exact arithmetic clamped to
// MaxUint64, and so is any expression of the two over non-negative operands:
// min(min(a,M)+min(b,M), M) = min(a+b, M), likewise for *, where
// sat(MaxUint64 * 0) = 0 = exact * 0. The segment maps below rely on it to
// group a route's hops in any order.
func saturatingMul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	if hi != 0 {
		return math.MaxUint64
	}
	return lo
}

// saturatingAdd adds two uint64 values, clamping the sum to MaxUint64.
func saturatingAdd(a, b uint64) uint64 {
	sum, carry := bits.Add64(a, b, 0)
	return sum | -carry // carry is 0 or 1: the mask is 0 or all ones
}

// segMap is the fold of a run of consecutive hops of an XY route. Both
// bounds fold the route from the destination back to the source; the state
// handed upstream is (t, iv), the waits so far and the downstream service
// interval, and a run maps it to (t + a + b*iv, p*iv). For the
// chained-blocking bound one hop through an output with c contenders is
//
//	((c-1)*H + R, (c-1)*L, c)
//
// and for the guaranteed-bandwidth bound one hop through an output of share
// O is ((O-1)*slot + R, 0, O): a is the summed slot waits and p the
// bottleneck share, so runs compose by max in p where the chained-blocking
// runs multiply (segFold.join). Either way a run extends by one hop at
// either end in O(1). Every term is non-negative, so the saturating
// composition is the exact value clamped to MaxUint64 however the hops are
// grouped: every map gives the walk's value, bit for bit
// (FuzzRegularSegmentMap).
type segMap struct{ a, b, p uint64 }

// segFold is the segment algebra of one message shape: the model planes a
// hop reads and the constants of the hop and of the finish.
type segFold struct {
	planes *[mesh.NumDirections][]uint64 // contender counts or output shares
	// h, l and r make a hop's map: (H, L, R) for the chained-blocking
	// bound, (slot, 0, R) for the guaranteed-bandwidth bound.
	h, l, r uint64
	// nk is the finishing term's factor, which makes it p*nk: the S-1
	// trailing flits of S at the first hop's interval p (nk = S-1), or the
	// P-1 trailing packets of P at one slot of the bottleneck share p
	// (nk = (P-1)*slot).
	nk  uint64
	w   int // router grid width
	waw bool
}

// fold returns the segment algebra of messages of shape sh.
func (m *Model) fold(sh msgShape) segFold {
	f := segFold{planes: &m.contender, h: uint64(m.p.HeaderOverhead), l: uint64(sh.b), r: uint64(m.p.RouterLatency),
		nk: uint64(sh.a) - 1, w: m.rdim.Width, waw: sh.waw}
	if sh.waw {
		f.planes, f.h, f.l, f.nk = &m.outShare, uint64(sh.b), 0, saturatingMul(f.nk, uint64(sh.b))
	}
	return f
}

// hop is the map of one hop through an output whose plane entry is v.
func (f *segFold) hop(v uint64) segMap {
	return segMap{saturatingAdd(saturatingMul(v-1, f.h), f.r), saturatingMul(v-1, f.l), v}
}

// join composes the bottleneck terms of two runs: the product of the
// chained-blocking intervals, the larger of the guaranteed-bandwidth shares.
func (f *segFold) join(p, q uint64) uint64 {
	if f.waw {
		return max(p, q)
	}
	return saturatingMul(p, q)
}

// then returns the composition of runs: then()(x, y) is the run x followed,
// upstream, by the run y. The composition is too large to inline as a
// method; returned as a closure, it inlines at the calls of a loop that
// takes it once (segFold.line).
func (f *segFold) then() func(x, y segMap) segMap {
	return func(x, y segMap) segMap {
		return segMap{saturatingAdd(x.a, y.a), saturatingAdd(x.b, saturatingMul(y.b, x.p)), f.join(x.p, y.p)}
	}
}

// close folds the finishing term into the map s of a route's hops upstream
// of the state (t, iv): the route's bound is regularApply(t, iv, A, B).
func (f *segFold) close(s segMap) (A, B uint64) {
	return saturatingAdd(s.a, 1), saturatingAdd(s.b, saturatingMul(s.p, f.nk))
}

// finish is the bound of a route whose map, ejection hop included, is s:
// the map applied to the state (0, 1) the ejection port starts from, closed.
func (f *segFold) finish(s segMap) uint64 {
	// p*nk + 1 in one saturating step, so that finish inlines: the result
	// saturates when the product's high word or the carry is set.
	hi, lo := bits.Mul64(s.p, f.nk)
	lo, carry := bits.Add64(lo, 1, 0)
	return saturatingAdd(saturatingAdd(s.a, s.b), lo|-(carry|min(hi, 1)))
}

// eject returns the bound of a route from the map s of its hops upstream of
// the ejection hop and the Local plane entry v of that hop: the ejection
// port's state (0, 1) carried through the ejection hop and then through s,
// finished. Like then, it is a closure so that it inlines in a loop.
func (f *segFold) eject() func(s segMap, v uint64) uint64 {
	return func(s segMap, v uint64) uint64 {
		h := f.hop(v)
		return f.finish(segMap{a: regularApply(saturatingAdd(h.a, h.b), h.p, s.a, s.b), p: f.join(s.p, h.p)})
	}
}

// regularApply is the bound a closed map (A, B) gives from the state (t, iv).
func regularApply(t, iv, A, B uint64) uint64 {
	return saturatingAdd(saturatingAdd(t, A), saturatingMul(B, iv))
}

// run carries the state (t, iv) upstream through n hops of plane pl, at
// positions i, i+step, ..., by the hop maps applied one at a time: the fold of
// then over the hops, grouped from the downstream end, in operations that
// inline. A state (t, iv) finishes as the map {a: t, p: iv}.
func (f *segFold) run(t, iv uint64, pl []uint64, i, step, n int) (uint64, uint64) {
	for ; n > 0; n-- {
		h := f.hop(pl[i])
		t, iv = regularApply(t, iv, h.a, h.b), f.join(h.p, iv)
		i += step
	}
	return t, iv
}

// walk is the bound of the route from router rs to router rd: the ejection
// port's state (0, 1) carried upstream through its ejection hop, along the Y
// segment back to the turn router at (rd.X, rs.Y) and along the X segment
// back to the source.
func (f *segFold) walk(rs, rd mesh.Node) uint64 {
	W := f.w
	dirX, stepX, dirY, stepY := xyStep(rs, rd)
	at := rd.Y*W + rd.X
	t, iv := f.run(0, 1, f.planes[mesh.Local], at, 0, 1)
	t, iv = f.run(t, iv, f.planes[dirY], at-stepY*W, -stepY*W, (rd.Y-rs.Y)*stepY)
	t, iv = f.run(t, iv, f.planes[dirX], rs.Y*W+rd.X-stepX, -stepX, (rd.X-rs.X)*stepX)
	return f.finish(segMap{a: t, p: iv})
}

// checkFlow validates a (src, dst) flow request with the same errors (and
// the same precedence) the route-materialising implementation reported.
func (m *Model) checkFlow(src, dst mesh.Node) error {
	if err := mesh.CheckEndpoints(m.p.Dim, src, dst); err != nil {
		return err
	}
	if src == dst {
		return fmt.Errorf("analysis: WCTT of a self flow is undefined")
	}
	return nil
}

// xyStep returns the travel directions and unit steps of the XY route from
// src to dst: first along X in dirX (stepX per hop), then along Y in dirY.
func xyStep(src, dst mesh.Node) (dirX mesh.Direction, stepX int, dirY mesh.Direction, stepY int) {
	dirX, stepX = mesh.XPlus, 1
	if dst.X < src.X {
		dirX, stepX = mesh.XMinus, -1
	}
	dirY, stepY = mesh.YPlus, 1
	if dst.Y < src.Y {
		dirY, stepY = mesh.YMinus, -1
	}
	return dirX, stepX, dirY, stepY
}

// RegularPacketWCTT returns the chained-blocking WCTT bound of a packet of
// packetFlits flits from src to dst under the regular design (round-robin
// arbitration), assuming every contender sends packets of contenderFlits
// flits (the network's maximum packet size L). It returns an error when the
// endpoints are invalid.
//
// The route is enumerated destination-first straight from the XY geometry
// (ejection hop, then the Y segment upstream, then the X segment), reading
// the precomputed contender counts by node index — the whole bound is a
// handful of integer operations per hop with zero allocations.
func (m *Model) RegularPacketWCTT(src, dst mesh.Node, packetFlits, contenderFlits int) (uint64, error) {
	if packetFlits < 1 || contenderFlits < 1 {
		return 0, fmt.Errorf("analysis: packet sizes must be >= 1 flit (got %d, %d)", packetFlits, contenderFlits)
	}
	if err := m.checkFlow(src, dst); err != nil {
		return 0, err
	}
	// The bound walks the router grid: endpoints map to their routers first
	// (the identity except on the concentrated mesh, where co-located
	// endpoints collapse to the single ejection hop).
	f := m.fold(msgShape{a: packetFlits, b: contenderFlits})
	return f.walk(m.topo.RouterOf(src), m.topo.RouterOf(dst)), nil
}

// WaWPacketWCTT returns the guaranteed-bandwidth WCTT bound of a message
// sliced into packets of slotFlits flits (the arbitration slot size) under
// WaW weighted arbitration: numPackets packets of slotFlits flits each. For
// the full WaW+WaP design slotFlits is the minimum packet size m; for the
// WaW-only ablation slotFlits is the network's maximum packet size L.
//
// Like RegularPacketWCTT this walks the XY geometry directly over the flat
// per-node output shares, allocation-free.
func (m *Model) WaWPacketWCTT(src, dst mesh.Node, numPackets, slotFlits int) (uint64, error) {
	if numPackets < 1 || slotFlits < 1 {
		return 0, fmt.Errorf("analysis: packet counts and sizes must be >= 1 (got %d, %d)", numPackets, slotFlits)
	}
	if err := m.checkFlow(src, dst); err != nil {
		return 0, err
	}
	f := m.fold(msgShape{waw: true, a: numPackets, b: slotFlits})
	return f.walk(m.topo.RouterOf(src), m.topo.RouterOf(dst)), nil
}

// msgShape is the per-design packetisation of a message bound: which bound
// family applies and its two size arguments, from which Model.fold makes
// the segment algebra. It is the single dispatch the per-pair walk
// (MessageWCTT), the all-pairs kernels and BatchMessageWCTT share, so a
// design can never packetise differently between them.
type msgShape struct {
	// waw selects the guaranteed-bandwidth bound (WaWPacketWCTT); otherwise
	// the chained-blocking bound (RegularPacketWCTT) applies.
	waw bool
	// a, b are the bound's size arguments: (packetFlits, contenderFlits)
	// for the regular family, (numPackets, slotFlits) for the WaW family.
	a, b int
}

// messageShape resolves the packetisation of a message with the given
// payload under the given design.
func (m *Model) messageShape(design network.Design, payloadBits int) (msgShape, error) {
	link := m.p.Link
	switch design {
	case network.DesignRegular:
		packetFlits := link.FlitsForPayload(payloadBits)
		contender := link.MaxPacketFlits
		if contender == 0 || contender < packetFlits {
			contender = packetFlits
		}
		totalFlits := packetFlits
		if link.MaxPacketFlits > 0 && packetFlits > link.MaxPacketFlits {
			// The message exceeds the network maximum packet size and is
			// split into several packets, each replicating the control
			// information. The flits of the follow-up packets are charged
			// at the compounded worst-case interval through the (S-1)*I_1
			// term of the chained-blocking bound, which dominates their
			// per-hop re-arbitration.
			packets := (packetFlits + link.MaxPacketFlits - 1) / link.MaxPacketFlits
			totalFlits = packets * link.MaxPacketFlits
		}
		return msgShape{a: totalFlits, b: contender}, nil
	case network.DesignWaPOnly:
		// Minimum-size packets but plain round-robin arbitration: the
		// chained-blocking recursion still applies, only with L = m; the
		// extra packets of the sliced message are charged at the compounded
		// first-hop interval exactly as the extra flits of a long packet.
		totalFlits, _ := link.WaPFlitsForPayload(payloadBits)
		return msgShape{a: totalFlits, b: link.MinPacketFlits}, nil
	case network.DesignWaWOnly:
		packetFlits := link.FlitsForPayload(payloadBits)
		contender := link.MaxPacketFlits
		if contender == 0 || contender < packetFlits {
			contender = packetFlits
		}
		return msgShape{waw: true, a: 1, b: contender}, nil
	case network.DesignWaWWaP:
		_, packets := link.WaPFlitsForPayload(payloadBits)
		return msgShape{waw: true, a: packets, b: link.MinPacketFlits}, nil
	default:
		return msgShape{}, fmt.Errorf("analysis: unknown design %v", design)
	}
}

// MessageWCTT returns the WCTT bound of a message with the given payload
// under the given design point. The regular-design bound assumes contenders
// send maximum-size packets (L = Link.MaxPacketFlits; when the configuration
// leaves the packet size unlimited, L is taken as the analysed message's own
// packet size, which is the most favourable assumption possible for the
// regular design). Like the packet bounds it dispatches to, it is an
// allocation-free route walk: nothing is cached, so a bound costs the same
// few dozen integer operations the first time and every time.
func (m *Model) MessageWCTT(design network.Design, src, dst mesh.Node, payloadBits int) (uint64, error) {
	sh, err := m.messageShape(design, payloadBits)
	if err != nil {
		return 0, err
	}
	if sh.waw {
		return m.WaWPacketWCTT(src, dst, sh.a, sh.b)
	}
	return m.RegularPacketWCTT(src, dst, sh.a, sh.b)
}

// FlowWCTTOneFlit returns the WCTT bound of a one-flit packet (the
// configuration of Table II) from src to dst for the given design.
func (m *Model) FlowWCTTOneFlit(design network.Design, src, dst mesh.Node) (uint64, error) {
	switch design {
	case network.DesignRegular, network.DesignWaPOnly:
		return m.RegularPacketWCTT(src, dst, 1, 1)
	case network.DesignWaWWaP, network.DesignWaWOnly:
		return m.WaWPacketWCTT(src, dst, 1, 1)
	default:
		return 0, fmt.Errorf("analysis: unknown design %v", design)
	}
}
