// Package network wires routers and NICs into a cycle-accurate wormhole mesh
// NoC simulator. It plays the role of the SoCLib + gNoCSim platform used in
// the paper's evaluation: the same microarchitectural mechanisms (wormhole
// output-port locking, credit-based flow control, round-robin or WaW
// arbitration, regular or WaP packetization) drive the observable latency
// behaviour.
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
// A hop dereferences its flit once, when the downstream router stages it
// and records its head-of-line byte; deciding the hop (Router.ComputeTransfers)
// reads only the router's own struct, and committing it is a counter bump
// (see router.Router). At ejection a message that arrives whole in one flit
// bypasses the NIC's reassembly table, and its per-flow statistics are found
// under an integer key (flowKey). The bench keys network.ns_per_flit_hop and
// router.transfers_ns measure this path on the sim-saturated workload.
//
// # Sharded stepping
//
// A network built with Config.Shards > 1 partitions the mesh into stripes of
// whole rows — contiguous ranges of the row-major node index — and steps all
// stripes concurrently on a reusable barrier worker gang, one cycle in two
// phases:
//
//   - Compute: every shard walks its own active set and performs the work of
//     simulation phases 1 and 2 for its nodes only. All state a shard touches
//     is shard-local: its routers' arbitration, FIFOs and locks, its NICs,
//     its message/flit pool arena and its per-flow statistics. Effects that
//     cross a stripe boundary (a flit staged into a neighbouring stripe, a
//     credit returned to one) are not applied; they are recorded in per-peer
//     outboxes.
//   - Commit: after a barrier, every shard applies the boundary effects
//     addressed to it — staged arrivals first (waking the receiving routers,
//     exactly as an in-shard staging would have), then credit returns — in a
//     fixed order: source shards in ascending id, entries in production
//     order, which is ascending node index within each source. It then
//     rebuilds its visit list and commits staged arrivals, as phase 3 does.
//
// Because rows are index-contiguous, a stripe partition is the index-order
// analogue of the column-stripe partitions used by barrier-synchronized NoC
// co-simulators; XY routing crosses a stripe boundary only on Y links, at
// most once per boundary per route. The outboxes are addressed by the id of
// the shard owning the target router — not by stripe adjacency — so the
// torus's Y wrap link (last row to first row) stages exactly like any other
// cross-stripe transfer; see Topology.StripeSafe for the per-topology gate.
// The per-(router, input-port) uniqueness
// of arrivals and the commutativity of credit increments make the commit
// order above reproduce the serial engine's state evolution exactly; the
// one serial-order-sensitive event stream — message deliveries, whose
// sampler arithmetic and DeliveryHook calls are order-dependent — is
// shard-local by construction when no hook is set (a flow's deliveries all
// happen at its destination node), and is replayed in global ascending node
// order at the end of the cycle when a hook is set. Sharded results are
// therefore byte-identical to the serial engine's, which the equivalence
// tests pin across designs, patterns and seeds.
package network

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"

	"repro/internal/arbiter"
	"repro/internal/flit"
	"repro/internal/flows"
	"repro/internal/mesh"
	"repro/internal/nic"
	"repro/internal/router"
	"repro/internal/stats"
	"repro/internal/sweep/pool"
)

// Engine selects the Step scheduling strategy of a Network.
type Engine int

const (
	// EngineActiveSet is the default engine: each cycle it only visits the
	// routers that hold flits and the NICs that hold pending injection
	// traffic. Idle WaW counter replenishment is tracked lazily (see
	// replenishFrom) and settled in bulk when a router wakes, and Run,
	// RunUntilDrained and traffic.Drive leap over event-idle windows in
	// O(1). Its observable behaviour (every flit movement, timestamp,
	// arbitration decision and delivery order) is identical to
	// EngineFullScan; only the wall-clock cost of idle nodes differs.
	// With Config.Shards > 1 the active set is partitioned into row
	// stripes stepped concurrently (see the package comment); the
	// observable behaviour is still identical.
	EngineActiveSet Engine = iota
	// EngineFullScan visits every router and NIC every cycle — the
	// straightforward engine the repository started with, kept as the
	// executable reference that the active-set engine is validated against.
	EngineFullScan
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case EngineActiveSet:
		return "active-set"
	case EngineFullScan:
		return "full-scan"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

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

// Arbitration returns the arbitration policy of the design.
func (d Design) Arbitration() arbiter.Kind {
	if d == DesignWaWWaP || d == DesignWaWOnly {
		return arbiter.KindWeighted
	}
	return arbiter.KindRoundRobin
}

// Packetization returns the packetization scheme of the design.
func (d Design) Packetization() nic.Scheme {
	if d == DesignWaWWaP || d == DesignWaPOnly {
		return nic.SchemeWaP
	}
	return nic.SchemeRegular
}

// Config describes a simulated NoC instance.
type Config struct {
	// Dim is the endpoint (traffic) grid. For the mesh and the torus it is
	// also the router grid; for the concentrated mesh the router grid is
	// Dim scaled down by the concentration block (see mesh.TopoSpec.Build).
	Dim    mesh.Dim
	Design Design
	Router router.Config
	Link   flit.LinkConfig

	// Topo selects the network topology; the zero value is the paper's
	// XY-routed 2D mesh, so pre-topology Config literals keep their meaning.
	Topo mesh.TopoSpec

	// Engine selects the simulation scheduling strategy; the zero value is
	// the active-set engine. The engine is fixed at construction time.
	Engine Engine

	// Shards partitions the mesh into that many row stripes stepped
	// concurrently by the active-set engine (see the package comment);
	// values <= 1 select the serial single-shard engine. The effective
	// count is capped at the mesh height (every stripe holds at least one
	// whole row). Sharding requires EngineActiveSet. Results are
	// byte-identical for every shard count.
	Shards int

	// CustomWeights optionally overrides the topology-derived WaW weights
	// with an application-specific weight table (see
	// flows.WeightTableFromSet). Only meaningful for designs with weighted
	// arbitration; nil selects the paper's time-composable closed-form
	// weights.
	CustomWeights *flows.WeightTable
}

// DefaultConfig returns a configuration for the given mesh dimensions and
// design point with the paper's platform parameters.
func DefaultConfig(d mesh.Dim, design Design) Config {
	rc := router.DefaultConfig()
	rc.Arbitration = design.Arbitration()
	return Config{
		Dim:    d,
		Design: design,
		Router: rc,
		Link:   flit.DefaultLinkConfig(),
	}
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if err := c.Dim.Validate(); err != nil {
		return err
	}
	if err := c.Router.Validate(); err != nil {
		return err
	}
	if err := c.Link.Validate(); err != nil {
		return err
	}
	if c.Engine != EngineActiveSet && c.Engine != EngineFullScan {
		return fmt.Errorf("network: unknown engine %v", c.Engine)
	}
	if c.Shards < 0 {
		return fmt.Errorf("network: negative shard count %d", c.Shards)
	}
	if c.Shards > 1 && c.Engine != EngineActiveSet {
		return fmt.Errorf("network: sharded stepping requires the active-set engine, got %v", c.Engine)
	}
	topo, err := c.Topo.Build(c.Dim)
	if err != nil {
		return err
	}
	if c.Shards > 1 && !topo.StripeSafe() {
		return fmt.Errorf("network: topology %v does not support sharded stepping (StripeSafe), use -shards 1", topo)
	}
	if c.Router.Arbitration != c.Design.Arbitration() {
		return fmt.Errorf("network: design %v requires %v arbitration, config says %v",
			c.Design, c.Design.Arbitration(), c.Router.Arbitration)
	}
	if c.CustomWeights != nil {
		if c.Design.Arbitration() != arbiter.KindWeighted {
			return fmt.Errorf("network: custom weights require a weighted-arbitration design, got %v", c.Design)
		}
		if c.CustomWeights.Dim != topo.RouterDim() {
			return fmt.Errorf("network: custom weight table is for a %v mesh, network is %v", c.CustomWeights.Dim, topo.RouterDim())
		}
	}
	return nil
}

// FlowStats aggregates the delivered-message statistics of one flow.
type FlowStats struct {
	Flow flit.FlowID
	// Latency aggregates total message latencies (creation at the source
	// NIC to reassembly at the destination NIC) in cycles.
	Latency stats.Sampler
	// NetworkLatency aggregates injection-to-delivery latencies in cycles.
	NetworkLatency stats.Sampler
	// Messages is the number of delivered messages.
	Messages uint64
}

// creditReturn records that the router at dense index `router` owes a credit
// back on output port dir (applied at the end of the cycle).
type creditReturn struct {
	router int32
	dir    mesh.Direction
}

// arrival is a flit staged across a shard boundary: the compute phase of the
// sending shard records it, the commit phase of the receiving shard applies
// it.
type arrival struct {
	router int32
	dir    mesh.Direction
	flit   *flit.Flit
}

// shard owns the active-set engine state of one row stripe of the mesh: the
// visit lists, the scratch buffers, the message/flit pool arena its NICs draw
// from, and the per-flow delivery statistics of its nodes. The serial engine
// is the one-shard special case — every Network has at least one shard, and
// the single-shard step never spawns a worker or touches an outbox peer.
//
// During the compute phase a shard mutates only its own state (and its own
// routers/NICs, which no other shard touches); cross-boundary effects go to
// the outboxes. During the commit phase a shard additionally reads the
// outbox slots addressed to it in every peer — the phase barrier makes that
// safe — and mutates only its own routers.
type shard struct {
	id     int32
	lo, hi int32 // owned router index range [lo, hi)

	// Active-set state of this stripe. activeList is the sorted visit list
	// of the current cycle; retained and activated are per-cycle scratch;
	// nicList tracks the stripe's NICs with pending injection flits.
	activeList []int32
	retained   []int32
	activated  []int32
	nicList    []int32

	// creditScratch is the reusable end-of-cycle credit-return buffer for
	// credits whose target router lies in this shard.
	creditScratch []creditReturn

	// outArrivals[t] and outCredits[t] are the boundary effects this
	// shard's compute phase produced for shard t; slot id is unused. The
	// receiving shard drains them in its commit phase.
	outArrivals [][]arrival
	outCredits  [][]creditReturn

	// pool is the shard-owned message/flit free list; the stripe's NICs
	// draw reassembled messages and packetized flits from it and absorbed
	// flits return to it, keeping the pool single-threaded (see flit.Pool).
	// Flits that cross a stripe boundary migrate arenas: popped from the
	// source shard's queues, they are recycled into the pool of the shard
	// that ejects them. For a single-shard network this is the network
	// pool itself.
	pool *flit.Pool

	// flowStats holds the delivered-message statistics of the flows whose
	// destination lies in this stripe, keyed by Network.flowKey. A flow
	// delivers only at its destination router, so its samples are recorded
	// by exactly one shard, in the serial engine's order.
	flowStats map[uint64]*FlowStats

	// pendingDeliveries defers reassembled messages until the end of the
	// cycle when a DeliveryHook is set on a multi-shard network: hook
	// calls (and the order-sensitive sampler arithmetic recorded with
	// them) are replayed serially in global ascending node order.
	pendingDeliveries []*flit.Message

	injected  uint64 // flits injected by this stripe's NICs
	delivered uint64 // messages delivered at this stripe's NICs
}

// Network is a cycle-accurate simulation of one NoC instance.
type Network struct {
	cfg Config

	// topo is the resolved topology instance; rdim caches its router grid,
	// the index space of every per-router array below. For the mesh and the
	// torus rdim equals cfg.Dim; for the concentrated mesh it is the reduced
	// router grid.
	topo mesh.Topology
	rdim mesh.Dim

	routers []*router.Router // indexed by rdim.Index
	nics    []*nic.NIC       // indexed by rdim.Index

	// neighborIdx precomputes, per router index and port direction, the
	// dense index of the neighbouring router (-1 outside the mesh), so the
	// per-cycle loop never recomputes Dim.NodeAt/Dim.Neighbor/Dim.Index.
	neighborIdx [][mesh.NumDirections]int32

	// shards partitions the mesh into row stripes (always at least one).
	// shardOf maps a router index to the id of its owning shard.
	shards  []*shard
	shardOf []int32

	// gang is the barrier worker pool stepping the shards (nil for a
	// single-shard network); computePhase/commitPhase are the prebuilt
	// per-phase closures so the per-cycle Run calls allocate nothing.
	gang         *pool.Gang
	computePhase func(int)
	commitPhase  func(int)

	// routerActive marks routers present in their shard's activeList or
	// activated scratch; nicActive marks NICs on their shard's nicList.
	routerActive []bool
	nicActive    []bool

	// replenishFrom implements lazy WaW replenishment: for a router that
	// has left the active set (empty input FIFOs), it records the first
	// cycle whose request-less arbitration the router has not yet applied.
	// The owed cycles are replayed in bulk (Router.CatchUpIdle) when the
	// router is woken by a staged arrival or a returned credit — the only
	// events that can change the inputs, credits or locks the idle replay
	// depends on. This keeps replenishing-but-idle routers out of the
	// per-cycle loop entirely and is what makes time leaps O(1).
	replenishFrom []uint64

	// pool is the network-owned message free list the traffic generators
	// and Send draw from and recycle into; those calls run between Step
	// calls, never inside one, so the pool stays single-threaded even on a
	// sharded network. On a single-shard network it is also the arena the
	// NICs use (see shard.pool).
	pool *flit.Pool

	cycle uint64

	// DeliveryHook, when non-nil, is invoked for every reassembled message
	// (used by the many-core model to wake up cores waiting on replies).
	// On a sharded network the calls are replayed at the end of the cycle
	// in the serial engine's order; hooks must not retain the message, and
	// must not mutate or query the network.
	DeliveryHook func(msg *flit.Message, at uint64)
}

// New builds the routers and NICs of a NoC instance.
func New(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo, err := cfg.Topo.Build(cfg.Dim)
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
		neighborIdx:   make([][mesh.NumDirections]int32, nodes),
		shardOf:       make([]int32, nodes),
		routerActive:  make([]bool, nodes),
		nicActive:     make([]bool, nodes),
		replenishFrom: make([]uint64, nodes),
		pool:          &flit.Pool{},
	}
	n.buildShards(cfg.EffectiveShards())
	var weightTable *flows.WeightTable
	if cfg.Design.Arbitration() == arbiter.KindWeighted {
		if cfg.CustomWeights != nil {
			weightTable = cfg.CustomWeights
		} else {
			weightTable = flows.CachedWeightTableTopo(topo)
		}
	}
	concentrated := topo.EndpointDim() != rdim
	for _, node := range rdim.AllNodes() {
		var counts *flows.PortCounts
		if weightTable != nil {
			counts = weightTable.Counts(node)
		}
		r, err := router.NewTopo(topo, node, cfg.Router, counts, cfg.Router.BufferDepth)
		if err != nil {
			return nil, err
		}
		ni, err := nic.New(node, cfg.Design.Packetization(), cfg.Link)
		if err != nil {
			return nil, err
		}
		if concentrated {
			// Several endpoint cores share this NIC through the Local port:
			// it owns every endpoint whose attached router is this node.
			rn := node
			ni.SetEndpointOwner(func(ep mesh.Node) bool { return topo.RouterOf(ep) == rn })
		}
		idx := rdim.Index(node)
		ni.AttachPool(n.shards[n.shardOf[idx]].pool)
		n.routers[idx] = r
		n.nics[idx] = ni
	}
	for idx := 0; idx < nodes; idx++ {
		node := rdim.NodeAt(idx)
		for _, dir := range mesh.Directions {
			n.neighborIdx[idx][dir] = -1
			if nb, ok := topo.Neighbor(node, dir); ok {
				n.neighborIdx[idx][dir] = int32(rdim.Index(nb))
			}
		}
		// Every router starts in the active set; the quiescent ones drop
		// out after the first Step visit.
		n.routerActive[idx] = true
		sh := n.shards[n.shardOf[idx]]
		sh.activeList = append(sh.activeList, int32(idx))
	}
	return n, nil
}

// EffectiveShards resolves the configured shard count to the partition the
// network will actually build: at least one, at most one per router-grid row
// (a stripe must hold whole rows to stay index-contiguous; for the mesh and
// the torus the router grid is Dim itself, for the concentrated mesh the
// reduced grid). Configurations with the same effective count build identical
// networks, which is what lets the scenario layer's network cache key on this
// value.
func (c Config) EffectiveShards() int {
	s := c.Shards
	if s < 1 {
		s = 1
	}
	h := c.Dim.Height
	if t, err := c.Topo.Build(c.Dim); err == nil {
		h = t.RouterDim().Height
	}
	if s > h {
		s = h
	}
	return s
}

// buildShards carves the router grid into count row stripes (rows distributed
// as evenly as possible), assigns every router index to its stripe and, for a
// multi-shard network, builds the outboxes and the barrier worker gang.
func (n *Network) buildShards(count int) {
	width := n.rdim.Width
	height := n.rdim.Height
	n.shards = make([]*shard, count)
	for s := 0; s < count; s++ {
		rowLo := s * height / count
		rowHi := (s + 1) * height / count
		sh := &shard{
			id:        int32(s),
			lo:        int32(rowLo * width),
			hi:        int32(rowHi * width),
			flowStats: make(map[uint64]*FlowStats),
		}
		if count == 1 {
			sh.pool = n.pool
		} else {
			sh.pool = &flit.Pool{}
			sh.outArrivals = make([][]arrival, count)
			sh.outCredits = make([][]creditReturn, count)
		}
		n.shards[s] = sh
		for idx := sh.lo; idx < sh.hi; idx++ {
			n.shardOf[idx] = sh.id
		}
	}
	if count > 1 {
		n.gang = pool.NewGang(count)
		n.computePhase = func(w int) { n.computeShard(n.shards[w]) }
		n.commitPhase = func(w int) { n.commitShard(n.shards[w]) }
		// The gang's worker goroutines outlive any reference the collector
		// can see, so release them when the network itself becomes garbage
		// (the cleanup must not reference n, or n would never be collected).
		runtime.AddCleanup(n, func(g *pool.Gang) { g.Close() }, n.gang)
	}
}

// MustNew is like New but panics on error.
func MustNew(cfg Config) *Network {
	n, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Topology returns the resolved topology instance the network was built on.
func (n *Network) Topology() mesh.Topology { return n.topo }

// Shards returns the effective shard count of the engine (1 for the serial
// engines).
func (n *Network) Shards() int { return len(n.shards) }

// Pool returns the network-owned message free list. Traffic generators
// attach to it so their messages are recycled once consumed; see flit.Pool
// for the ownership rules. Generators and Send run between Step calls, so
// the pool needs no synchronization even on a sharded network (whose NICs
// use per-shard arenas instead).
func (n *Network) Pool() *flit.Pool { return n.pool }

// Cycle returns the current simulation cycle.
func (n *Network) Cycle() uint64 { return n.cycle }

// Router returns the router at router-grid node nd (panics when outside the
// grid). For the mesh and the torus the router grid is Dim itself.
func (n *Network) Router(nd mesh.Node) *router.Router { return n.routers[n.rdim.Index(nd)] }

// NIC returns the NIC at router-grid node nd (panics when outside the grid).
func (n *Network) NIC(nd mesh.Node) *nic.NIC { return n.nics[n.rdim.Index(nd)] }

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
		n.activateNIC(n.shards[n.shardOf[idx]], int32(idx))
		// The NIC has packetized the message; a pool-owned message is
		// fully consumed at this point and can be recycled (a no-op for
		// caller-owned messages).
		n.pool.PutMessage(msg)
	}
	return id, err
}

// owed returns the number of cycles in the inclusive range [from, through]
// (zero when the range is empty).
func owed(from, through uint64) uint64 {
	if through < from {
		return 0
	}
	return through - from + 1
}

// activateRouter wakes the router into the next cycle's active set of its
// owning shard s, first settling the idle replenishment it is owed for the
// cycles it was skipped — including the currently executing cycle, which the
// full-scan engine would have visited but the active set will not. The
// caller must be s's own phase work (compute for in-shard events, commit for
// inbound boundary events), which is what keeps the flag and scratch writes
// single-threaded.
func (n *Network) activateRouter(s *shard, idx int32) {
	if n.routerActive[idx] {
		return
	}
	if k := owed(n.replenishFrom[idx], n.cycle); k > 0 {
		n.routers[idx].CatchUpIdle(k)
	}
	n.routerActive[idx] = true
	s.activated = append(s.activated, idx)
}

// activateNIC ensures the NIC is on its shard's pending-injection list.
func (n *Network) activateNIC(s *shard, idx int32) {
	if !n.nicActive[idx] {
		n.nicActive[idx] = true
		s.nicList = append(s.nicList, idx)
	}
}

// stepRouter computes and applies the transfers of one router of shard s:
// pops the forwarded flits, stages them downstream (activating the receiving
// router), delivers ejected flits to the local NIC and queues credit
// returns. Staging and credits that cross a stripe boundary are recorded in
// the outbox for the owning shard instead of applied, preserving the
// shard-locality of the compute phase.
func (n *Network) stepRouter(s *shard, idx int32) {
	r := n.routers[idx]
	transfers := r.ComputeTransfers()
	for i := range transfers {
		t := transfers[i]
		f := r.ApplyTransfer(t)
		// Return the freed buffer slot to whoever filled it.
		if t.In != mesh.Local {
			// The flit travelling in direction t.In came from the
			// neighbour on the opposite side; that neighbour's output
			// port named t.In tracks this buffer's occupancy.
			up := n.neighborIdx[idx][t.In.Opposite()]
			if up < 0 {
				panic(fmt.Sprintf("network: no upstream neighbour for %v input %v", r.Node, t.In))
			}
			if us := n.shardOf[up]; us == s.id {
				s.creditScratch = append(s.creditScratch, creditReturn{router: up, dir: t.In})
			} else {
				s.outCredits[us] = append(s.outCredits[us], creditReturn{router: up, dir: t.In})
			}
		}
		if t.Out == mesh.Local {
			// Ejection: deliver to the local NIC.
			msg, err := n.nics[idx].Receive(f, n.cycle)
			if err != nil {
				panic(fmt.Sprintf("network: ejection at %v: %v", r.Node, err))
			}
			if msg != nil {
				n.recordDelivery(s, msg)
			}
			continue
		}
		down := n.neighborIdx[idx][t.Out]
		if down < 0 {
			panic(fmt.Sprintf("network: no downstream neighbour for %v output %v", r.Node, t.Out))
		}
		if ds := n.shardOf[down]; ds == s.id {
			if err := n.routers[down].StageArrival(t.Out, f); err != nil {
				panic(fmt.Sprintf("network: %v", err))
			}
			n.activateRouter(s, down)
		} else {
			s.outArrivals[ds] = append(s.outArrivals[ds], arrival{router: down, dir: t.Out, flit: f})
		}
	}
}

// stepNIC injects at most one flit from the NIC into the local router and
// reports whether the NIC still holds pending injection flits.
func (n *Network) stepNIC(s *shard, idx int32) bool {
	ni := n.nics[idx]
	if ni.PendingFlits() == 0 {
		return false
	}
	r := n.routers[idx]
	if r.InputSpace(mesh.Local) == 0 {
		return true
	}
	f := ni.PopFlit(n.cycle)
	if f == nil {
		return false
	}
	if err := r.StageArrival(mesh.Local, f); err != nil {
		panic(fmt.Sprintf("network: injection at %v: %v", r.Node, err))
	}
	n.activateRouter(s, idx)
	s.injected++
	return ni.PendingFlits() > 0
}

// Step advances the simulation by one cycle.
func (n *Network) Step() {
	switch {
	case n.cfg.Engine == EngineFullScan:
		n.stepFullScan()
	case len(n.shards) == 1:
		n.stepActiveSet()
	default:
		n.stepSharded()
	}
}

// stepFullScan is the reference engine: every router and NIC is visited
// every cycle, exactly as the original simulator did. (A full-scan network
// always has exactly one shard, which holds its scratch buffers.)
func (n *Network) stepFullScan() {
	s := n.shards[0]
	s.creditScratch = s.creditScratch[:0]

	// Phase 1: router transfers.
	for idx := range n.routers {
		n.stepRouter(s, int32(idx))
	}
	// Phase 2: NIC injection (at most one flit per NIC per cycle).
	for idx := range n.nics {
		n.stepNIC(s, int32(idx))
	}
	// Phase 3: commit arrivals and credit returns.
	for _, r := range n.routers {
		r.CommitArrivals()
	}
	for _, cr := range s.creditScratch {
		n.routers[cr.router].ReturnCredit(cr.dir)
	}
	n.cycle++
}

// stepActiveSet advances one cycle of a single-shard network visiting only
// the nodes that can make progress. The engine maintains the invariant that
// every router holding a flit — the only routers whose full-scan visit could
// produce a transfer — is in the active set: a router enters the set when a
// flit is staged into one of its input buffers and leaves it as soon as its
// input FIFOs are empty. A dropped router may still owe request-less WaW
// replenishment; that debt is tracked in replenishFrom and replayed in bulk
// when the router is woken (lazy replenishment), so the cycle-by-cycle state
// evolution remains identical to stepFullScan's.
func (n *Network) stepActiveSet() {
	s := n.shards[0]
	n.computeShard(s)
	n.commitShard(s)
	n.cycle++
}

// stepSharded advances one cycle of a multi-shard network in two
// barrier-separated phases (see the package comment), then replays any
// deferred delivery-hook calls in global node order and advances the clock.
func (n *Network) stepSharded() {
	n.gang.Run(n.computePhase)
	n.gang.Run(n.commitPhase)
	if n.DeliveryHook != nil {
		n.replayDeliveries()
	}
	n.cycle++
}

// computeShard runs simulation phases 1 and 2 for one shard: router
// transfers over the shard's active set in ascending index order — the order
// the full scan uses, so deliveries and DeliveryHook calls are identical —
// then NIC injection over the shard's pending list, compacting it in place.
func (n *Network) computeShard(s *shard) {
	s.creditScratch = s.creditScratch[:0]
	for t := range s.outArrivals {
		s.outArrivals[t] = s.outArrivals[t][:0]
		s.outCredits[t] = s.outCredits[t][:0]
	}
	s.activated = s.activated[:0]
	s.retained = s.retained[:0]

	// Phase 1: router transfers.
	for _, idx := range s.activeList {
		n.stepRouter(s, idx)
		if n.routers[idx].InputsEmpty() {
			// The router can neither move a flit nor form a request until
			// something arrives; its remaining per-cycle work is pure idle
			// replenishment, deferred to wake-up time.
			n.routerActive[idx] = false
			n.replenishFrom[idx] = n.cycle + 1
		} else {
			s.retained = append(s.retained, idx)
		}
	}

	// Phase 2: NIC injection, visiting only NICs with pending traffic.
	live := s.nicList[:0]
	for _, idx := range s.nicList {
		if n.stepNIC(s, idx) {
			live = append(live, idx)
		} else {
			n.nicActive[idx] = false
		}
	}
	s.nicList = live
}

// commitShard runs simulation phase 3 for one shard. Cross-boundary effects
// addressed to this shard are applied first, in the fixed deterministic
// order documented on the package: staged arrivals (waking their targets
// exactly as the serial engine's phase 1 would have) before credit returns,
// source shards in ascending id, entries in production order. Then credit
// returns are applied — a credit returning to a sleeping router cannot give
// it work (its inputs are empty), so the router stays out of the active set;
// but the return changes the credit state the idle replay depends on, so the
// owed cycles are settled first, against the pre-return credits the
// full-scan engine would have seen this cycle. Finally the next cycle's
// visit list is rebuilt and arrivals are committed for exactly the routers
// that may hold staged flits — every staging event activated its target, so
// the merged list covers them all.
func (n *Network) commitShard(s *shard) {
	if len(n.shards) > 1 {
		for _, src := range n.shards {
			if src.id == s.id {
				continue
			}
			for _, a := range src.outArrivals[s.id] {
				if err := n.routers[a.router].StageArrival(a.dir, a.flit); err != nil {
					panic(fmt.Sprintf("network: %v", err))
				}
				n.activateRouter(s, a.router)
			}
		}
	}
	n.applyCredits(s.creditScratch)
	if len(n.shards) > 1 {
		for _, src := range n.shards {
			if src.id == s.id {
				continue
			}
			n.applyCredits(src.outCredits[s.id])
		}
	}
	n.mergeActive(s)
	for _, idx := range s.activeList {
		if r := n.routers[idx]; r.HasStaged() {
			r.CommitArrivals()
		}
	}
}

// applyCredits returns the queued credits, settling the lazy replenishment
// of sleeping receivers against the pre-return credit state first.
func (n *Network) applyCredits(credits []creditReturn) {
	for _, cr := range credits {
		r := n.routers[cr.router]
		if !n.routerActive[cr.router] {
			if k := owed(n.replenishFrom[cr.router], n.cycle); k > 0 {
				r.CatchUpIdle(k)
			}
			n.replenishFrom[cr.router] = n.cycle + 1
		}
		r.ReturnCredit(cr.dir)
	}
}

// mergeActive rebuilds the shard's activeList for the next cycle from the
// routers that stayed active after their visit (already in ascending order)
// and the routers activated during the cycle (sorted here). The two sets are
// disjoint by construction of the routerActive flag.
func (n *Network) mergeActive(s *shard) {
	if len(s.activated) > 1 {
		slices.Sort(s.activated)
	}
	out := s.activeList[:0]
	i, j := 0, 0
	for i < len(s.retained) && j < len(s.activated) {
		if s.retained[i] < s.activated[j] {
			out = append(out, s.retained[i])
			i++
		} else {
			out = append(out, s.activated[j])
			j++
		}
	}
	out = append(out, s.retained[i:]...)
	out = append(out, s.activated[j:]...)
	s.activeList = out
}

// flowKey packs a flow's endpoint indices as srcIndex<<32 | dstIndex: the
// per-flow statistics key (an integer hashes and compares far cheaper than
// the four-coordinate FlowID), whose numeric order is the (source,
// destination) order AllFlowStats reports.
func (n *Network) flowKey(f flit.FlowID) uint64 {
	return uint64(n.cfg.Dim.Index(f.Src))<<32 | uint64(n.cfg.Dim.Index(f.Dst))
}

// recordDelivery accounts one reassembled message delivered at a node of
// shard s. With a DeliveryHook set on a multi-shard network the whole event
// is deferred: sampler arithmetic and hook calls are order-sensitive, so
// they replay serially at the end of the cycle in the order the serial
// engine would have produced them. Without a hook the event is shard-local
// by construction — a flow delivers only at its destination node — and is
// recorded immediately.
func (n *Network) recordDelivery(s *shard, msg *flit.Message) {
	if n.DeliveryHook != nil && len(n.shards) > 1 {
		s.pendingDeliveries = append(s.pendingDeliveries, msg)
		return
	}
	n.accountDelivery(s, msg)
}

// accountDelivery updates the delivery statistics of shard s for msg,
// invokes the delivery hook and recycles the message into the shard's pool.
func (n *Network) accountDelivery(s *shard, msg *flit.Message) {
	s.delivered++
	key := n.flowKey(msg.Flow)
	fs, ok := s.flowStats[key]
	if !ok {
		fs = &FlowStats{Flow: msg.Flow}
		s.flowStats[key] = fs
	}
	fs.Messages++
	fs.Latency.AddUint(msg.DeliveredAt - msg.CreatedAt)
	// Network latency runs from the injection of the message's first flit
	// (stamped by the destination NIC during reassembly) to the delivery of
	// its last, excluding the source-queueing time included in Latency.
	fs.NetworkLatency.AddUint(msg.DeliveredAt - msg.InjectedAt)
	if n.DeliveryHook != nil {
		n.DeliveryHook(msg, n.cycle)
	}
	// The delivery has been fully reported; a pool-owned message is
	// recycled here, which is why delivery hooks must not retain it.
	s.pool.PutMessage(msg)
}

// replayDeliveries drains every shard's deferred deliveries in ascending
// shard order. Shards own ascending index ranges and append deliveries in
// visit order, so the concatenation is exactly the serial engine's global
// ascending-node-index delivery order (a router ejects at most one flit per
// cycle, so it completes at most one message per cycle).
func (n *Network) replayDeliveries() {
	for _, s := range n.shards {
		if len(s.pendingDeliveries) == 0 {
			continue
		}
		for i, msg := range s.pendingDeliveries {
			s.pendingDeliveries[i] = nil
			n.accountDelivery(s, msg)
		}
		s.pendingDeliveries = s.pendingDeliveries[:0]
	}
}

// Leapable reports whether the network is event-idle: no router holds or is
// owed a flit, no NIC holds pending injection flits, and therefore stepping
// any number of cycles would only accumulate idle WaW replenishment — which
// the lazy-replenishment bookkeeping tracks without per-cycle work. A leap
// is legal iff no component's earliest-possible-action cycle precedes the
// target, and for an event-idle network that horizon is "never" until new
// traffic is Sent; only the full-scan engine (which must visit every node
// every cycle by definition) is never leapable. On a sharded network every
// stripe must be idle — in-flight boundary transfers live in some shard's
// active set or staged buffers between Step calls, so the per-shard check
// covers them.
func (n *Network) Leapable() bool {
	if n.cfg.Engine != EngineActiveSet {
		return false
	}
	for _, s := range n.shards {
		if len(s.activeList) != 0 || len(s.nicList) != 0 {
			return false
		}
	}
	return true
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

// Run advances the simulation by cycles steps, leaping over the tail of the
// window in O(1) once the network goes event-idle (no new traffic can appear
// during Run, so an event-idle network stays idle to the end).
func (n *Network) Run(cycles int) {
	_ = n.run(context.Background(), cycles, false)
}

// RunContext is Run with cooperative cancellation: the context is polled
// every few thousand cycles, so a single long cycle-accurate run — not just
// the gaps between sweep points — honours a sweep's cancellation. It returns
// ctx's error when the run was abandoned, nil when the window completed.
func (n *Network) RunContext(ctx context.Context, cycles int) error {
	return n.run(ctx, cycles, true)
}

func (n *Network) run(ctx context.Context, cycles int, poll bool) error {
	if cycles <= 0 {
		return nil
	}
	end := n.cycle + uint64(cycles)
	for n.cycle < end {
		if n.Leapable() {
			n.cycle = end
			return nil
		}
		if poll && n.cycle&ctxPollMask == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		n.Step()
	}
	return nil
}

// ctxPollMask throttles context polling in the cycle loops: cancellation is
// checked every 4096 cycles, keeping the poll invisible next to the cost of
// a simulated cycle while bounding the cancellation latency.
const ctxPollMask = 1<<12 - 1

// RunUntilDrained steps the simulation until no flits remain in any NIC
// injection queue, router buffer or partial reassembly, or until maxCycles
// additional cycles have elapsed. It returns true when the network drained.
// An event-idle network that still is not drained (a reassembly waiting for
// flits that no longer exist anywhere) can never drain, so the budget is
// leapt over instead of stepped through.
func (n *Network) RunUntilDrained(maxCycles int) bool {
	drained, _ := n.runUntilDrained(context.Background(), maxCycles, false)
	return drained
}

// RunUntilDrainedContext is RunUntilDrained with cooperative cancellation
// (polled every few thousand cycles, like RunContext). It reports whether
// the network drained, and ctx's error when the run was abandoned first.
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

// FlushReplenishment settles the idle WaW replenishment every sleeping
// router is still owed, bringing all arbiter counters up to the state the
// full-scan engine would show after the same number of cycles. The engines'
// observable behaviour never depends on this — woken routers settle their
// debt automatically — but out-of-band inspection of arbiter state (tests,
// checkpoints) must flush first.
func (n *Network) FlushReplenishment() {
	if n.cycle == 0 {
		return
	}
	through := n.cycle - 1 // last fully executed cycle
	for idx := range n.routers {
		if n.routerActive[idx] {
			continue
		}
		if k := owed(n.replenishFrom[idx], through); k > 0 {
			n.routers[idx].CatchUpIdle(k)
		}
		n.replenishFrom[idx] = n.cycle
	}
}

// Reset rewinds the network to its just-constructed state in place: every
// router and NIC is rewound (buffers, credits, wormhole locks, arbiters,
// identifier counters), the statistics and the delivery hook are cleared and
// the cycle counter returns to zero. The topology, the design point, the
// shard partition (with its worker gang) and the message/flit pools are all
// retained, so a sweep worker can reuse one constructed network across
// scenario points instead of rebuilding the topology per point. A reset
// network behaves identically to a freshly constructed one.
func (n *Network) Reset() {
	for idx := range n.routers {
		n.routers[idx].Reset()
		n.nics[idx].Reset()
		n.routerActive[idx] = true
		n.nicActive[idx] = false
		n.replenishFrom[idx] = 0
	}
	for _, s := range n.shards {
		s.activeList = s.activeList[:0]
		for idx := s.lo; idx < s.hi; idx++ {
			s.activeList = append(s.activeList, idx)
		}
		s.retained = s.retained[:0]
		s.activated = s.activated[:0]
		s.nicList = s.nicList[:0]
		s.creditScratch = s.creditScratch[:0]
		for t := range s.outArrivals {
			s.outArrivals[t] = s.outArrivals[t][:0]
			s.outCredits[t] = s.outCredits[t][:0]
		}
		clear(s.pendingDeliveries)
		s.pendingDeliveries = s.pendingDeliveries[:0]
		clear(s.flowStats)
		s.injected = 0
		s.delivered = 0
	}
	n.cycle = 0
	n.DeliveryHook = nil
}

// Close releases the shard worker goroutines of a sharded network. It is
// optional — an unreachable network's workers are released by a GC cleanup —
// and a closed network must not be stepped again. Close on a single-shard
// network is a no-op.
func (n *Network) Close() {
	if n.gang != nil {
		n.gang.Close()
		n.gang = nil
	}
}

// Drained reports whether the network holds no traffic: no pending injection
// flits, no occupied router buffers and no partially reassembled messages.
func (n *Network) Drained() bool {
	if n.cfg.Engine == EngineActiveSet {
		// A busy network answers from the head of a list: every NIC with
		// pending flits is on its shard's injection list and every router
		// holding a flit on its visit list. (Only a just-built or just-reset
		// network lists routers that hold nothing.)
		for _, s := range n.shards {
			if len(s.nicList) != 0 {
				return false
			}
			for _, idx := range s.activeList {
				if !n.routers[idx].InputsEmpty() {
					return false
				}
			}
		}
	}
	for idx, ni := range n.nics {
		if ni.PendingFlits() > 0 || ni.PendingReassemblies() > 0 || !n.routers[idx].InputsEmpty() {
			return false
		}
	}
	return true
}

// FlowStatsFor returns the delivered-message statistics of a flow, or nil
// when the flow has delivered nothing yet. A flow's statistics live in the
// shard owning its destination endpoint's router.
func (n *Network) FlowStatsFor(f flit.FlowID) *FlowStats {
	if !n.cfg.Dim.Contains(f.Src) || !n.cfg.Dim.Contains(f.Dst) {
		return nil
	}
	return n.shards[n.shardOf[n.rdim.Index(n.topo.RouterOf(f.Dst))]].flowStats[n.flowKey(f)]
}

// AllFlowStats returns the statistics of every flow that delivered at least
// one message, in ascending (source index, destination index) order.
func (n *Network) AllFlowStats() []*FlowStats {
	var out []*FlowStats
	for _, s := range n.shards {
		for _, fs := range s.flowStats {
			out = append(out, fs)
		}
	}
	slices.SortFunc(out, func(a, b *FlowStats) int {
		return cmp.Compare(n.flowKey(a.Flow), n.flowKey(b.Flow))
	})
	return out
}

// TotalInjectedFlits returns the number of flits injected into the network so
// far.
func (n *Network) TotalInjectedFlits() uint64 {
	var total uint64
	for _, s := range n.shards {
		total += s.injected
	}
	return total
}

// TotalDeliveredMessages returns the number of messages fully delivered so
// far.
func (n *Network) TotalDeliveredMessages() uint64 {
	var total uint64
	for _, s := range n.shards {
		total += s.delivered
	}
	return total
}

// AggregateLatency merges the message-latency samplers of every flow.
// Count, Sum, Min, Max and Mean of the aggregate are exact (latencies are
// integer cycle counts, summed well within float64's exact-integer range),
// so they do not depend on the merge order.
func (n *Network) AggregateLatency() *stats.Sampler {
	agg := &stats.Sampler{}
	for _, s := range n.shards {
		for _, fs := range s.flowStats {
			agg.Merge(&fs.Latency)
		}
	}
	return agg
}
