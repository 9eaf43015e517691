package network

import (
	"fmt"

	"repro/internal/mesh"
	"repro/internal/nic"
)

// FullScan is the executable reference Network.Step is validated against: the
// plain scan the repository started with, which visits every router and every
// NIC every cycle and so needs neither the active set nor lazy replenishment.
// It moves flits in two phases per router — Router.ComputeTransfers decides
// every output, then ApplyTransfer and StageArrival move each transfer — so
// the tests hold Step's one-walk Router.Forward to the decision made apart
// from the moves. It shares stepNIC and hopped with Step; every router stays
// flagged active for the network's whole life, so activateRouter never
// settles or queues anything. Inspect and feed the network through Net
// (Send, Router, Cycle, the statistics), but advance it only through the
// oracle's own Step, Run and RunUntilDrained: Net.Step and Net.Drained
// belong to the active-set engine.
type FullScan struct{ Net *Network }

// NIC returns the NIC at router-grid node nd (panics when outside the grid).
func (n *Network) NIC(nd mesh.Node) *nic.NIC { return n.nics[n.rdim.Index(nd)] }

// MustNewFullScan builds a network stepped by the full-scan oracle and panics
// on an invalid configuration.
func MustNewFullScan(cfg Config) FullScan { return FullScan{MustNew(cfg)} }

// Step advances the oracle by one cycle.
func (o FullScan) Step() {
	n := o.Net
	n.credits = n.credits[:0]
	// Phase 1: router transfers.
	for idx, r := range n.routers {
		for _, t := range r.ComputeTransfers() {
			f := r.ApplyTransfer(t)
			if t.Out != mesh.Local {
				if err := n.links[idx].down[t.Out].StageArrival(t.Out, f); err != nil {
					panic(fmt.Sprintf("network: %v", err))
				}
			}
			n.hopped(int32(idx), t)
		}
	}
	// Phase 2: NIC injection (at most one flit per NIC per cycle).
	for idx := range n.nics {
		n.stepNIC(int32(idx))
	}
	// Phase 3: commit arrivals and credit returns.
	for _, r := range n.routers {
		r.CommitArrivals()
	}
	for _, cr := range n.credits {
		n.routers[cr.router].ReturnCredit(cr.dir)
	}
	n.cycle++
}

// Run steps the oracle through cycles cycles, one by one.
func (o FullScan) Run(cycles int) {
	for ; cycles > 0; cycles-- {
		o.Step()
	}
}

// Drained reports whether the network holds no traffic, by looking at every
// NIC and router.
func (o FullScan) Drained() bool {
	for idx, ni := range o.Net.nics {
		if ni.PendingMessages() > 0 || ni.PendingReassemblies() > 0 || !o.Net.routers[idx].InputsEmpty() {
			return false
		}
	}
	return true
}

// RunUntilDrained steps until the network drains or maxCycles have elapsed,
// and reports whether it drained.
func (o FullScan) RunUntilDrained(maxCycles int) bool {
	for ; maxCycles > 0 && !o.Drained(); maxCycles-- {
		o.Step()
	}
	return o.Drained()
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// FlushReplenishment settles the idle WaW replenishment every sleeping
// router is still owed, bringing all arbiter counters up to the state a
// plain every-router scan would show after the same number of cycles. The
// observable behaviour never depends on this — woken routers settle their
// debt automatically — but the tests that compare arbiter state with the
// full-scan oracle must flush first.
func (n *Network) FlushReplenishment() {
	for idx := range n.routers {
		if n.routerActive[idx] {
			continue
		}
		n.routers[idx].CatchUpIdle(n.cycle - n.replenishFrom[idx]) // through the last executed cycle
		n.replenishFrom[idx] = n.cycle
	}
}
