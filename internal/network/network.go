// Package network wires routers and NICs into a cycle-accurate wormhole mesh
// NoC simulator. It plays the role of the SoCLib + gNoCSim platform used in
// the paper's evaluation: the same microarchitectural mechanisms (wormhole
// output-port locking, credit-based flow control, round-robin or WaW
// arbitration, regular or WaP packetization) drive the observable latency
// behaviour. The design point (Design) is the only policy input: it selects
// both the arbitration of every router and the packetization of every NIC.
//
// # Simulation model
//
// Time advances in cycles. Every cycle:
//
//  1. Every router decides which flit each of its output ports forwards
//     (arbitration, wormhole locks, credit checks) and the transfers are
//     applied: flits leave the input FIFOs, move across the link and are
//     staged at the downstream router (or delivered to the local NIC for the
//     ejection port). Credits consumed by a forwarded flit are returned to
//     the upstream router at the end of the cycle in which the flit leaves
//     the buffer.
//  2. Every NIC with pending traffic injects at most one flit into the local
//     router's injection buffer (when it has space).
//  3. Staged arrivals are committed, making them visible the next cycle.
//
// A flit therefore advances at most one hop per cycle, giving the canonical
// one-cycle-per-hop router+link latency of the paper's platform.
//
// # The flit-hop path
//
// A queued message is one 40-byte flit.Queued entry in its source NIC, cut
// into flits only as they are injected; a flit is a flit.Word (type,
// destination router, in-flight record index) copied by value. A busy router
// runs one walk per cycle, Router.Forward, over only the outputs that can act
// (a credit, and a lock or a request: the router's port summaries), and
// moves each winner in that walk: popped, charged and staged downstream.
// The network then books each move (hopped): the credit owed upstream, the
// downstream router woken or the ejected flit handed to the local NIC.
// Staging builds the head-of-line byte from the word alone and committing it
// is a counter bump. Only the destination NIC looks up the
// message's record, to count its tails, and a delivery's latency goes into
// one aggregate sampler: the network keeps no per-flow state (per-flow
// numbers are a DeliveryHook's business). On sim-saturated, bench's
// network.ns_per_flit_hop times this path, router.transfers_ns the two-phase
// API the test oracle steps with.
//
// # One engine
//
// Step visits only the routers that hold flits and the NICs that hold
// pending injection traffic (the active set), settles idle WaW replenishment
// lazily when a router wakes (see replenishFrom; only the arbiters that owe
// are replayed), and lets Run, RunUntilDrained and traffic.Drive leap over
// event-idle windows in O(1). A network is single-threaded: one goroutine
// steps it, and the traffic generators, the NICs and the delivery path all
// draw from and recycle into the one arena it owns (Pool). Only a
// rate-driven generator's pseudo-random draws run ahead, a chunk at a time
// on a goroutine of their own that touches neither the network nor its
// pool; the generator builds its messages on the stepping goroutine.
// Parallelism lives a layer up, across scenarios (sweep -jobs,
// -worker-procs). The plain every-router, every-NIC scan the repository
// started with survives as the in-package test oracle (export_test.go) that
// the equivalence and lockstep tests step next to Step.
package network

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/flit"
	"repro/internal/flows"
	"repro/internal/mesh"
	"repro/internal/nic"
	"repro/internal/router"
	"repro/internal/stats"
)

// Design selects the NoC design point evaluated in the paper.
type Design int

const (
	// DesignRegular is the baseline: round-robin arbitration and regular
	// packetization.
	DesignRegular Design = iota
	// DesignWaWWaP is the paper's proposal: WaW weighted arbitration and WaP
	// minimum-size packetization.
	DesignWaWWaP
	// DesignWaWOnly applies the weighted arbitration but keeps regular
	// packetization (ablation).
	DesignWaWOnly
	// DesignWaPOnly applies the minimum-size packetization but keeps
	// round-robin arbitration (ablation).
	DesignWaPOnly
)

// String names the design point.
func (d Design) String() string {
	switch d {
	case DesignRegular:
		return "regular"
	case DesignWaWWaP:
		return "WaW+WaP"
	case DesignWaWOnly:
		return "WaW-only"
	case DesignWaPOnly:
		return "WaP-only"
	default:
		return fmt.Sprintf("Design(%d)", int(d))
	}
}

// weighted reports whether the design arbitrates with WaW.
func (d Design) weighted() bool { return d == DesignWaWWaP || d == DesignWaWOnly }

// packetization returns the packetization scheme of the design.
func (d Design) packetization() nic.Scheme {
	if d == DesignWaWWaP || d == DesignWaPOnly {
		return nic.SchemeWaP
	}
	return nic.SchemeRegular
}

// Config describes a simulated NoC instance. Design alone sets the policies
// the paper compares — WaW or round-robin arbitration, WaP or regular
// packetization; the other fields are the platform they run on.
type Config struct {
	// Dim is the endpoint (traffic) grid. For the mesh it is also the
	// router grid; for the concentrated mesh the router grid is Dim scaled
	// down by the concentration block (see mesh.TopoSpec.Build).
	Dim    mesh.Dim
	Design Design
	// BufferDepth is the capacity, in flits, of every router input FIFO
	// (1..router.MaxBufferDepth).
	BufferDepth int
	Link        flit.LinkConfig

	// Topo selects the network topology; the zero value is the paper's
	// XY-routed 2D mesh, so pre-topology Config literals keep their meaning.
	Topo mesh.TopoSpec

	// Shards is accepted for compatibility and ignored: every value runs the
	// one engine, so results are byte-identical for every shard count.
	// Negative counts are rejected.
	Shards int
}

// DefaultConfig returns a configuration for the given mesh dimensions and
// design point with the paper's platform parameters: 4-flit input buffers
// and the default link.
func DefaultConfig(d mesh.Dim, design Design) Config {
	return Config{
		Dim:         d,
		Design:      design,
		BufferDepth: 4,
		Link:        flit.DefaultLinkConfig(),
	}
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	_, err := c.resolve()
	return err
}

// resolve validates the configuration and builds its topology.
func (c Config) resolve() (mesh.Topology, error) {
	if err := c.Dim.Validate(); err != nil {
		return mesh.Topology{}, err
	}
	if c.BufferDepth < 1 || c.BufferDepth > router.MaxBufferDepth {
		return mesh.Topology{}, fmt.Errorf("network: buffer depth must be in 1..%d, got %d", router.MaxBufferDepth, c.BufferDepth)
	}
	if err := c.Link.Validate(); err != nil {
		return mesh.Topology{}, err
	}
	if c.Shards < 0 {
		return mesh.Topology{}, fmt.Errorf("network: negative shard count %d", c.Shards)
	}
	topo, err := c.Topo.Build(c.Dim)
	if rd := topo.RouterDim(); err == nil && (rd.Width > flit.MaxGridSide || rd.Height > flit.MaxGridSide) {
		err = fmt.Errorf("network: the %v router grid exceeds the limit of %d routers per side", rd, flit.MaxGridSide)
	}
	return topo, err
}

// creditReturn records that the router at dense index `router` owes a credit
// back on output port dir (applied at the end of the cycle).
type creditReturn struct {
	router int32
	dir    mesh.Direction
}

// routerLinks are one router's neighbours by port direction (-1 or nil: none).
type routerLinks struct {
	down    [mesh.NumDirections]*router.Router // the router each output feeds
	downIdx [mesh.NumDirections]int32          // its dense index
	upIdx   [mesh.NumDirections]int32          // dense index of the router feeding each input
}

// Network is a cycle-accurate simulation of one NoC instance.
type Network struct {
	cfg Config

	// topo is the resolved topology instance; rdim caches its router grid,
	// the index space of every per-router array below. For the mesh rdim
	// equals cfg.Dim; for the concentrated mesh it is the reduced router
	// grid.
	topo mesh.Topology
	rdim mesh.Dim

	routers []*router.Router // indexed by rdim.Index
	nics    []*nic.NIC       // indexed by rdim.Index

	// links precomputes every router's neighbours, so the per-cycle loop
	// never recomputes Dim.NodeAt/Dim.Neighbor/Dim.Index.
	links []routerLinks

	// Active-set state. activeList is the sorted visit list of the current
	// cycle; retained and activated are per-cycle scratch; nicList tracks the
	// NICs with queued messages. routerActive marks routers present
	// in activeList or activated; nicActive marks NICs on nicList.
	activeList   []int32
	retained     []int32
	activated    []int32
	nicList      []int32
	routerActive []bool
	nicActive    []bool

	// credits is the reusable end-of-cycle credit-return buffer.
	credits []creditReturn

	// replenishFrom implements lazy WaW replenishment: for a router that
	// has left the active set (empty input FIFOs), it records the first
	// cycle whose request-less arbitration the router has not yet applied,
	// at most the current cycle plus one. The owed cycles are replayed in
	// bulk (Router.CatchUpIdle, which reads only the router's owing WaW
	// outputs) when the router is woken by a staged arrival or a returned
	// credit — the only events that can change the inputs, credits or locks
	// the idle replay depends on. This keeps idle routers out of the
	// per-cycle loop and makes time leaps O(1).
	replenishFrom []uint64

	// pool is the network's one arena of messages, queue blocks and
	// in-flight records (see flit.Pool).
	pool *flit.Pool

	// latency aggregates the total latency (creation at the source NIC to
	// reassembly at the destination NIC) of every delivered message.
	latency stats.Sampler

	injected  uint64 // flits injected by the NICs
	delivered uint64 // messages delivered at the NICs

	cycle uint64

	// DeliveryHook, when non-nil, is invoked for every reassembled message
	// (used by the many-core model to wake up cores waiting on replies), in
	// ascending node order within a cycle. Hooks must not retain the message,
	// and must not mutate or query the network.
	DeliveryHook func(msg *flit.Message, at uint64)
}

// New builds the routers and NICs of a NoC instance.
func New(cfg Config) (*Network, error) {
	topo, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	rdim := topo.RouterDim()
	nodes := rdim.Nodes()
	n := &Network{
		cfg:           cfg,
		topo:          topo,
		rdim:          rdim,
		routers:       make([]*router.Router, nodes),
		nics:          make([]*nic.NIC, nodes),
		links:         make([]routerLinks, nodes),
		routerActive:  make([]bool, nodes),
		nicActive:     make([]bool, nodes),
		replenishFrom: make([]uint64, nodes),
		pool:          &flit.Pool{},
	}
	var weightTable *flows.WeightTable
	if cfg.Design.weighted() {
		weightTable = flows.WeightTableFor(topo)
	}
	for _, node := range rdim.AllNodes() {
		var counts *flows.PortCounts // nil: a round-robin router
		if weightTable != nil {
			counts = weightTable.Counts(node)
		}
		r, err := router.New(topo, node, cfg.BufferDepth, counts, cfg.BufferDepth)
		if err != nil {
			return nil, err
		}
		ni, err := nic.New(topo, node, cfg.Design.packetization(), cfg.Link, n.pool)
		if err != nil {
			return nil, err
		}
		idx := rdim.Index(node)
		n.routers[idx] = r
		n.nics[idx] = ni
	}
	for idx := 0; idx < nodes; idx++ {
		node := rdim.NodeAt(idx)
		l := &n.links[idx]
		for _, dir := range mesh.Directions {
			l.downIdx[dir], l.upIdx[dir.Opposite()] = -1, -1
			if nb, ok := topo.Neighbor(node, dir); ok {
				nbIdx := rdim.Index(nb)
				l.down[dir], l.downIdx[dir], l.upIdx[dir.Opposite()] = n.routers[nbIdx], int32(nbIdx), int32(nbIdx)
			}
		}
		// Every router starts in the active set; the quiescent ones drop
		// out after the first Step visit.
		n.routerActive[idx] = true
		n.activeList = append(n.activeList, int32(idx))
	}
	return n, nil
}

// MustNew is like New but panics on error.
func MustNew(cfg Config) *Network {
	n, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// Topology returns the resolved topology instance the network was built on.
func (n *Network) Topology() mesh.Topology { return n.topo }

// Pool returns the network's arena. Traffic generators attach
// to it so their messages are recycled once consumed; see flit.Pool for the
// ownership rules.
func (n *Network) Pool() *flit.Pool { return n.pool }

// Cycle returns the current simulation cycle.
func (n *Network) Cycle() uint64 { return n.cycle }

// Router returns the router at router-grid node nd (panics when outside the
// grid). For the mesh the router grid is Dim itself.
func (n *Network) Router(nd mesh.Node) *router.Router { return n.routers[n.rdim.Index(nd)] }

// Send queues a message for transmission from its source node's NIC at the
// current cycle and returns the assigned message identifier. Traffic must
// enter the network through Send (not by calling the NIC directly): Send is
// what registers the source NIC with the active-set engine's injection list.
func (n *Network) Send(msg *flit.Message) (uint64, error) {
	if msg == nil {
		return 0, fmt.Errorf("network: nil message")
	}
	if !n.cfg.Dim.Contains(msg.Flow.Src) || !n.cfg.Dim.Contains(msg.Flow.Dst) {
		return 0, fmt.Errorf("network: flow %v outside %v mesh", msg.Flow, n.cfg.Dim)
	}
	idx := n.rdim.Index(n.topo.RouterOf(msg.Flow.Src))
	id, err := n.nics[idx].Send(msg, n.cycle)
	if err == nil {
		n.activateNIC(int32(idx))
		// The NIC has queued a copy of the message; a pool-owned message
		// is fully consumed at this point and can be recycled (a no-op for
		// caller-owned messages).
		n.pool.PutMessage(msg)
	}
	return id, err
}

// activateRouter wakes the router into the next cycle's active set, first
// settling the idle replenishment it is owed for the cycles it was skipped —
// including the currently executing cycle, which a plain every-router scan
// would have visited but the active set will not.
func (n *Network) activateRouter(idx int32) {
	if n.routerActive[idx] {
		return
	}
	n.routers[idx].CatchUpIdle(n.cycle + 1 - n.replenishFrom[idx])
	n.routerActive[idx] = true
	n.activated = append(n.activated, idx)
}

// activateNIC ensures the NIC is on the pending-injection list.
func (n *Network) activateNIC(idx int32) {
	if !n.nicActive[idx] {
		n.nicActive[idx] = true
		n.nicList = append(n.nicList, idx)
	}
}

// hopped finishes a move of router idx whose flit has left its input FIFO
// and, unless ejected, been staged downstream: it queues the freed slot's
// credit for the upstream router, then wakes the downstream router or
// delivers the flit to the local NIC.
func (n *Network) hopped(idx int32, t router.Transfer) {
	// Return the freed buffer slot to whoever filled it.
	if t.In != mesh.Local {
		// The flit travelling in direction t.In came from the neighbour on
		// the opposite side; that neighbour's output port named t.In tracks
		// this buffer's occupancy.
		up := n.links[idx].upIdx[t.In]
		if up < 0 {
			panic(fmt.Sprintf("network: no upstream neighbour for %v input %v", n.routers[idx].Node, t.In))
		}
		n.credits = append(n.credits, creditReturn{router: up, dir: t.In})
	}
	if t.Out != mesh.Local {
		if down := n.links[idx].downIdx[t.Out]; !n.routerActive[down] {
			n.activateRouter(down)
		}
		return
	}
	// Ejection: deliver to the local NIC.
	msg, err := n.nics[idx].Receive(t.Flit, n.cycle)
	if err != nil {
		panic(fmt.Sprintf("network: ejection at %v: %v", n.routers[idx].Node, err))
	}
	if msg != nil {
		n.accountDelivery(msg)
	}
}

// stepNIC injects at most one flit from the NIC into the local router and
// reports whether the NIC still holds queued messages.
func (n *Network) stepNIC(idx int32) bool {
	ni := n.nics[idx]
	r := n.routers[idx]
	if r.InputSpace(mesh.Local) == 0 {
		return ni.PendingMessages() > 0
	}
	w, ok := ni.PopFlit(n.cycle)
	if !ok {
		return false
	}
	if err := r.StageArrival(mesh.Local, w); err != nil {
		panic(fmt.Sprintf("network: injection at %v: %v", r.Node, err))
	}
	n.activateRouter(idx)
	n.injected++
	return ni.PendingMessages() > 0
}

// Step advances the simulation by one cycle, visiting only the nodes that can
// make progress. The engine maintains the invariant that every router holding
// a flit — the only routers whose visit could produce a transfer — is in the
// active set: a router enters the set when a flit is staged into one of its
// input buffers and leaves it as soon as its input FIFOs are empty. A dropped
// router may still owe request-less WaW replenishment; that debt is tracked
// in replenishFrom and replayed in bulk when the router is woken (lazy
// replenishment), so the cycle-by-cycle state evolution remains identical to
// visiting every router and NIC every cycle.
func (n *Network) Step() {
	n.credits = n.credits[:0]
	n.activated = n.activated[:0]
	n.retained = n.retained[:0]

	// Phase 1: router transfers over the active set in ascending index order
	// — the order a full scan uses, so deliveries and DeliveryHook calls are
	// identical.
	for _, idx := range n.activeList {
		r := n.routers[idx]
		for _, t := range r.Forward(&n.links[idx].down) {
			n.hopped(idx, t)
		}
		if r.InputsEmpty() {
			// The router can neither move a flit nor form a request until
			// something arrives; its remaining per-cycle work is pure idle
			// replenishment, deferred to wake-up time.
			n.routerActive[idx] = false
			n.replenishFrom[idx] = n.cycle + 1
		} else {
			n.retained = append(n.retained, idx)
		}
	}

	// Phase 2: NIC injection, visiting only NICs with queued messages and
	// compacting the list in place.
	live := n.nicList[:0]
	for _, idx := range n.nicList {
		if n.stepNIC(idx) {
			live = append(live, idx)
		} else {
			n.nicActive[idx] = false
		}
	}
	n.nicList = live

	// Phase 3: credit returns, then the next cycle's visit list, then commit
	// arrivals for exactly the routers that may hold staged flits — every
	// staging event activated its target, so the merged list covers them all.
	n.applyCredits()
	n.mergeActive()
	for _, idx := range n.activeList {
		if r := n.routers[idx]; r.HasStaged() {
			r.CommitArrivals()
		}
	}
	n.cycle++
}

// applyCredits returns the cycle's queued credits. A credit returning to a
// sleeping router cannot give it work (its inputs are empty), so the router
// stays out of the active set; but the return changes the credit state the
// idle replay depends on, so the owed cycles are settled first, against the
// pre-return credits a full scan would have seen this cycle.
func (n *Network) applyCredits() {
	for _, cr := range n.credits {
		r := n.routers[cr.router]
		if !n.routerActive[cr.router] {
			r.CatchUpIdle(n.cycle + 1 - n.replenishFrom[cr.router])
			n.replenishFrom[cr.router] = n.cycle + 1
		}
		r.ReturnCredit(cr.dir)
	}
}

// mergeActive rebuilds activeList for the next cycle from the routers that
// stayed active after their visit (already in ascending order) and the
// routers activated during the cycle (sorted here). The two sets are
// disjoint by construction of the routerActive flag.
func (n *Network) mergeActive() {
	if len(n.activated) > 1 {
		slices.Sort(n.activated)
	}
	out := n.activeList[:0]
	i, j := 0, 0
	for i < len(n.retained) && j < len(n.activated) {
		if n.retained[i] < n.activated[j] {
			out = append(out, n.retained[i])
			i++
		} else {
			out = append(out, n.activated[j])
			j++
		}
	}
	out = append(out, n.retained[i:]...)
	out = append(out, n.activated[j:]...)
	n.activeList = out
}

// accountDelivery adds msg to the delivery statistics, invokes the delivery
// hook and recycles the message into the pool.
func (n *Network) accountDelivery(msg *flit.Message) {
	n.delivered++
	n.latency.AddUint(msg.DeliveredAt - msg.CreatedAt)
	if n.DeliveryHook != nil {
		n.DeliveryHook(msg, n.cycle)
	}
	// The delivery has been fully reported; a pool-owned message is
	// recycled here, which is why delivery hooks must not retain it.
	n.pool.PutMessage(msg)
}

// Leapable reports whether the network is event-idle: no router holds or is
// owed a flit, no NIC holds a queued message, and therefore stepping
// any number of cycles would only accumulate idle WaW replenishment — which
// the lazy-replenishment bookkeeping tracks without per-cycle work. A leap
// is legal iff no component's earliest-possible-action cycle precedes the
// target, and for an event-idle network that horizon is "never" until new
// traffic is Sent.
func (n *Network) Leapable() bool {
	return len(n.activeList) == 0 && len(n.nicList) == 0
}

// LeapTo advances an event-idle network directly to the given cycle, in O(1):
// the skipped cycles owe nothing but idle replenishment, which is settled
// lazily when a router next wakes. It panics when the network is not
// Leapable or the target precedes the current cycle.
func (n *Network) LeapTo(target uint64) {
	if !n.Leapable() {
		panic("network: LeapTo on a network with pending work")
	}
	if target < n.cycle {
		panic(fmt.Sprintf("network: LeapTo(%d) behind cycle %d", target, n.cycle))
	}
	n.cycle = target
}

// ctxPollMask throttles context polling in the cycle loops: cancellation is
// checked every 4096 cycles, keeping the poll invisible next to the cost of
// a simulated cycle while bounding the cancellation latency.
const ctxPollMask = 1<<12 - 1

// RunUntilDrained steps the simulation until no message remains in any NIC
// injection queue, router buffer or partial reassembly, or until maxCycles
// additional cycles have elapsed. It returns true when the network drained.
// An event-idle network that still is not drained (a message waiting for
// flits that no longer exist anywhere) can never drain, so the budget is
// leapt over instead of stepped through.
func (n *Network) RunUntilDrained(maxCycles int) bool {
	drained, _ := n.runUntilDrained(context.Background(), maxCycles, false)
	return drained
}

// RunUntilDrainedContext is RunUntilDrained with cooperative cancellation:
// the context is polled every few thousand cycles, so a single long
// cycle-accurate run — not just the gaps between sweep points — honours a
// sweep's cancellation. It reports whether the network drained, and ctx's
// error when the run was abandoned first.
func (n *Network) RunUntilDrainedContext(ctx context.Context, maxCycles int) (bool, error) {
	return n.runUntilDrained(ctx, maxCycles, true)
}

func (n *Network) runUntilDrained(ctx context.Context, maxCycles int, poll bool) (bool, error) {
	if maxCycles <= 0 {
		return n.Drained(), nil
	}
	end := n.cycle + uint64(maxCycles)
	for n.cycle < end {
		if n.Drained() {
			return true, nil
		}
		if n.Leapable() {
			n.cycle = end
			break
		}
		if poll && n.cycle&ctxPollMask == 0 {
			if err := ctx.Err(); err != nil {
				return n.Drained(), err
			}
		}
		n.Step()
	}
	return n.Drained(), nil
}

// Reset rewinds the network to its just-constructed state in place: every
// router and NIC is rewound (buffers, credits, wormhole locks, arbiters,
// identifier counters), every queue block and in-flight record goes back to
// the pool, the statistics and the delivery hook are cleared and the cycle
// counter returns to zero. The topology, the design point and the pool are
// retained, so a load curve reuses one constructed
// network across its rate points instead of rebuilding the topology per
// point. A reset network behaves identically to a freshly constructed one.
func (n *Network) Reset() {
	n.activeList = n.activeList[:0]
	for idx := range n.routers {
		n.routers[idx].Reset()
		n.nics[idx].Reset()
		n.routerActive[idx] = true
		n.nicActive[idx] = false
		n.replenishFrom[idx] = 0
		n.activeList = append(n.activeList, int32(idx))
	}
	n.pool.CloseRecords() // no flit names a record any more
	n.retained = n.retained[:0]
	n.activated = n.activated[:0]
	n.nicList = n.nicList[:0]
	n.credits = n.credits[:0]
	n.latency = stats.Sampler{}
	n.injected = 0
	n.delivered = 0
	n.cycle = 0
	n.DeliveryHook = nil
}

// Close is a no-op kept for callers written against the sharded engine,
// whose worker goroutines it released; a network holds no resources beyond
// its memory.
func (n *Network) Close() {}

// Drained reports whether the network holds no traffic: no queued messages,
// no occupied router buffers and no partially reassembled messages.
func (n *Network) Drained() bool {
	// A busy network answers from the head of a list: every NIC with queued
	// messages is on the injection list and every router holding a flit on the
	// visit list. (Only a just-built or just-reset network lists routers
	// that hold nothing.)
	if len(n.nicList) != 0 {
		return false
	}
	for _, idx := range n.activeList {
		if !n.routers[idx].InputsEmpty() {
			return false
		}
	}
	for idx, ni := range n.nics {
		if ni.PendingMessages() > 0 || ni.PendingReassemblies() > 0 || !n.routers[idx].InputsEmpty() {
			return false
		}
	}
	return true
}

// TotalInjectedFlits returns the number of flits injected into the network so
// far.
func (n *Network) TotalInjectedFlits() uint64 { return n.injected }

// TotalDeliveredMessages returns the number of messages fully delivered so
// far.
func (n *Network) TotalDeliveredMessages() uint64 { return n.delivered }

// AggregateLatency returns a copy of the latency sampler of every message
// delivered so far. Its Count, Sum, Min, Max and Mean are exact (latencies
// are integer cycle counts, summed well within float64's exact-integer
// range).
func (n *Network) AggregateLatency() *stats.Sampler {
	agg := n.latency
	return &agg
}
