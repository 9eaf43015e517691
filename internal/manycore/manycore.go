// Package manycore assembles the full evaluation platform of the paper: a
// mesh NoC (network package), one in-order core per node executing a
// synthetic benchmark profile (workload package) and one or more memory
// controllers (memctrl package). It is used for the average-performance
// experiments of Section IV: the same workload is run on the regular design
// and on WaW+WaP and the execution times are compared, showing that the
// WCTT improvements cost almost no average performance.
package manycore

import (
	"fmt"

	"repro/internal/flit"
	"repro/internal/memctrl"
	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/workload"
)

// Config describes a many-core system instance.
type Config struct {
	// Network is the NoC configuration (mesh size, design point, router and
	// link parameters).
	Network network.Config
	// MemoryNodes lists the nodes with a memory controller attached
	// (typically one, at R(0,0), as in the paper's evaluation).
	MemoryNodes []mesh.Node
	// MemCtrl is the memory controller configuration.
	MemCtrl memctrl.Config
}

// DefaultConfig returns a many-core configuration for the given mesh size
// and design with a single memory controller at R(0,0).
func DefaultConfig(d mesh.Dim, design network.Design) Config {
	return Config{
		Network:     network.DefaultConfig(d, design),
		MemoryNodes: []mesh.Node{{X: 0, Y: 0}},
		MemCtrl:     memctrl.DefaultConfig(),
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Network.Validate(); err != nil {
		return err
	}
	if err := c.MemCtrl.Validate(); err != nil {
		return err
	}
	if len(c.MemoryNodes) == 0 {
		return fmt.Errorf("manycore: at least one memory controller is required")
	}
	seen := make(map[mesh.Node]bool)
	for _, n := range c.MemoryNodes {
		if !c.Network.Dim.Contains(n) {
			return fmt.Errorf("manycore: memory controller %v outside %v mesh", n, c.Network.Dim)
		}
		if seen[n] {
			return fmt.Errorf("manycore: duplicate memory controller at %v", n)
		}
		seen[n] = true
	}
	return nil
}

// coreState tracks one in-order, single-outstanding-miss core executing a
// benchmark profile.
type coreState struct {
	node  mesh.Node
	bench workload.Benchmark

	// Progress.
	retired     float64 // instructions retired so far
	perCycle    float64 // instructions retired per unblocked cycle (1/CPI)
	missEvery   float64 // instructions between NoC-bound misses
	evictEvery  float64 // misses between evictions
	issuedMiss  uint64
	issuedEvict uint64
	totalMiss   uint64

	blocked    bool
	unblockAt  uint64 // used only in WCET computation mode
	finished   bool
	finishedAt uint64
}

// Stats summarises one core's execution.
type Stats struct {
	Node               mesh.Node
	Benchmark          string
	FinishedAt         uint64
	Finished           bool
	MemoryTransactions uint64 // number of memory transactions issued
}

// System is a runnable many-core simulation.
type System struct {
	cfg   Config
	net   *network.Network
	ctrls map[mesh.Node]*memctrl.Controller
	cores map[mesh.Node]*coreState

	// wcet holds the per-core UBDs when WCET computation mode is enabled
	// (see wcetmode.go); nil during normal operation. wcetCycles counts the
	// cycles elapsed in that mode (the idle network is not stepped).
	wcet       *wcetMode
	wcetCycles uint64

	finishedCores int
}

// New builds a many-core system. Cores are assigned with AssignBenchmark
// before running; nodes without a benchmark stay idle.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	net, err := network.New(cfg.Network)
	if err != nil {
		return nil, err
	}
	s := &System{
		cfg:   cfg,
		net:   net,
		ctrls: make(map[mesh.Node]*memctrl.Controller),
		cores: make(map[mesh.Node]*coreState),
	}
	for _, n := range cfg.MemoryNodes {
		ctrl, err := memctrl.New(n, cfg.MemCtrl)
		if err != nil {
			return nil, err
		}
		s.ctrls[n] = ctrl
	}
	net.DeliveryHook = s.onDelivery
	return s, nil
}

// AssignBenchmark places a benchmark on the core at node n. Nodes hosting a
// memory controller can still run a core (the paper's platform attaches the
// memory controller to R(0,0) alongside the node).
func (s *System) AssignBenchmark(n mesh.Node, b workload.Benchmark) error {
	if !s.cfg.Network.Dim.Contains(n) {
		return fmt.Errorf("manycore: node %v outside %v mesh", n, s.cfg.Network.Dim)
	}
	if err := b.Validate(); err != nil {
		return err
	}
	if _, dup := s.cores[n]; dup {
		return fmt.Errorf("manycore: node %v already has a benchmark", n)
	}
	misses := b.MemoryAccesses()
	missEvery := float64(b.Instructions) + 1 // never misses
	if misses > 0 {
		missEvery = float64(b.Instructions) / float64(misses)
	}
	evictEvery := 0.0
	if b.EvictionRatio > 0 {
		evictEvery = 1 / b.EvictionRatio
	}
	s.cores[n] = &coreState{
		node:       n,
		bench:      b,
		perCycle:   1 / b.CPI,
		missEvery:  missEvery,
		evictEvery: evictEvery,
		totalMiss:  misses,
	}
	return nil
}

// AssignEverywhere places the same benchmark on every node of the mesh
// except the given excluded nodes.
func (s *System) AssignEverywhere(b workload.Benchmark, exclude ...mesh.Node) error {
	skip := make(map[mesh.Node]bool)
	for _, n := range exclude {
		skip[n] = true
	}
	for _, n := range s.cfg.Network.Dim.AllNodes() {
		if skip[n] {
			continue
		}
		if err := s.AssignBenchmark(n, b); err != nil {
			return err
		}
	}
	return nil
}

// nearestMemory returns the memory controller node a core uses (the closest
// one; the paper's platform has a single controller).
func (s *System) nearestMemory(n mesh.Node) mesh.Node {
	best := s.cfg.MemoryNodes[0]
	bestDist := n.ManhattanDistance(best)
	for _, m := range s.cfg.MemoryNodes[1:] {
		if d := n.ManhattanDistance(m); d < bestDist {
			best, bestDist = m, d
		}
	}
	return best
}

// onDelivery handles NoC message deliveries: requests and evictions reaching
// a memory controller are queued there, replies reaching a core unblock it.
func (s *System) onDelivery(msg *flit.Message, at uint64) {
	switch msg.Class {
	case flit.ClassRequest, flit.ClassEviction:
		if ctrl, ok := s.ctrls[msg.Flow.Dst]; ok {
			// The controller never rejects correctly addressed traffic.
			if err := ctrl.Accept(msg, at); err != nil {
				panic(fmt.Sprintf("manycore: %v", err))
			}
		}
	case flit.ClassReply:
		if core, ok := s.cores[msg.Flow.Dst]; ok {
			core.blocked = false
		}
	case flit.ClassAck:
		// Evictions are fire-and-forget from the core's point of view.
	}
}

// stepCore advances one core by one cycle.
func (s *System) stepCore(c *coreState, now uint64) {
	if c.finished {
		return
	}
	if c.blocked {
		// In WCET computation mode the stall length is the precomputed UBD;
		// in normal operation the core is woken by the reply delivery hook.
		if s.WCETModeEnabled() && now >= c.unblockAt {
			c.blocked = false
		} else {
			return
		}
	}
	c.retired += c.perCycle
	// Issue a miss when the retired-instruction count crosses the next miss
	// point (single outstanding miss, blocking core).
	if c.issuedMiss < c.totalMiss && c.retired >= float64(c.issuedMiss+1)*c.missEvery {
		if s.WCETModeEnabled() {
			// WCET computation mode: charge the analytical upper bound
			// instead of going through the NoC (Paolieri et al. [17]).
			withEviction := c.evictEvery > 0 && float64(c.issuedEvict+1)*c.evictEvery <= float64(c.issuedMiss+1)
			c.blocked = true
			c.unblockAt = now + s.wcetDelayForMiss(c.node, withEviction)
			c.issuedMiss++
			if withEviction {
				c.issuedEvict++
			}
			return
		}
		mem := s.nearestMemory(c.node)
		if mem == c.node {
			// A core co-located with the memory controller bypasses the NoC;
			// it still pays the memory latency, modelled as a self-addressed
			// request queued directly at the controller.
			local := &flit.Message{
				Flow:        flit.FlowID{Src: c.node, Dst: mem},
				Class:       flit.ClassRequest,
				PayloadBits: 48,
			}
			if err := s.ctrls[mem].Accept(local, now); err != nil {
				panic(fmt.Sprintf("manycore: %v", err))
			}
			c.blocked = true
		} else {
			req := &flit.Message{
				Flow:        flit.FlowID{Src: c.node, Dst: mem},
				Class:       flit.ClassRequest,
				PayloadBits: 48,
			}
			if _, err := s.net.Send(req); err != nil {
				panic(fmt.Sprintf("manycore: %v", err))
			}
			c.blocked = true
		}
		c.issuedMiss++
		// A fraction of the misses also write back a dirty line.
		if c.evictEvery > 0 && float64(c.issuedEvict+1)*c.evictEvery <= float64(c.issuedMiss) {
			if mem != c.node {
				ev := &flit.Message{
					Flow:        flit.FlowID{Src: c.node, Dst: mem},
					Class:       flit.ClassEviction,
					PayloadBits: 512,
				}
				if _, err := s.net.Send(ev); err != nil {
					panic(fmt.Sprintf("manycore: %v", err))
				}
			}
			c.issuedEvict++
		}
		return
	}
	if c.retired >= float64(c.bench.Instructions) && c.issuedMiss >= c.totalMiss {
		c.finished = true
		c.finishedAt = now
		s.finishedCores++
	}
}

// Step advances the whole system by one cycle.
func (s *System) Step() {
	now := s.Cycle()
	for _, c := range s.cores {
		s.stepCore(c, now)
	}
	if s.WCETModeEnabled() {
		// WCET computation mode generates no NoC traffic (delays come from
		// the analytical bounds), so the cycle counter advances without
		// simulating the idle network.
		s.wcetCycles++
		return
	}
	s.net.Step()
	// Memory controllers emit the replies whose service completed.
	for node, ctrl := range s.ctrls {
		for _, reply := range ctrl.Ready(s.net.Cycle()) {
			if reply.Flow.Dst == node {
				// Local (co-located) core: unblock directly.
				if core, ok := s.cores[node]; ok {
					core.blocked = false
				}
				continue
			}
			if _, err := s.net.Send(reply); err != nil {
				panic(fmt.Sprintf("manycore: %v", err))
			}
		}
	}
}

// Run steps the system until every assigned core finished or maxCycles
// elapsed. It returns true when every core finished.
func (s *System) Run(maxCycles int) bool {
	for i := 0; i < maxCycles; i++ {
		if s.Finished() {
			return true
		}
		s.Step()
	}
	return s.Finished()
}

// Finished reports whether every assigned core has completed its benchmark.
func (s *System) Finished() bool { return s.finishedCores == len(s.cores) && len(s.cores) > 0 }

// Cycle returns the current simulation cycle.
func (s *System) Cycle() uint64 { return s.net.Cycle() + s.wcetCycles }

// CoreStats returns the execution summary of the core at node n.
func (s *System) CoreStats(n mesh.Node) (Stats, error) {
	c, ok := s.cores[n]
	if !ok {
		return Stats{}, fmt.Errorf("manycore: no core assigned at %v", n)
	}
	return Stats{
		Node:               c.node,
		Benchmark:          c.bench.Name,
		FinishedAt:         c.finishedAt,
		Finished:           c.finished,
		MemoryTransactions: c.issuedMiss,
	}, nil
}

// MakespanCycles returns the cycle at which the last core finished (0 when
// not all cores finished yet).
func (s *System) MakespanCycles() uint64 {
	if !s.Finished() {
		return 0
	}
	var worst uint64
	for _, c := range s.cores {
		if c.finishedAt > worst {
			worst = c.finishedAt
		}
	}
	return worst
}

// ScaleBenchmark returns a copy of b with its dynamic instruction count
// divided by factor (minimum 1000 instructions), keeping the per-instruction
// characteristics. Used to keep cycle-accurate average-performance runs
// tractable while preserving the compute/communication balance.
func ScaleBenchmark(b workload.Benchmark, factor int) workload.Benchmark {
	if factor < 1 {
		factor = 1
	}
	scaled := b
	scaled.Instructions = b.Instructions / uint64(factor)
	if scaled.Instructions < 1000 {
		scaled.Instructions = 1000
	}
	return scaled
}
