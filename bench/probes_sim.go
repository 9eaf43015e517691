package main

import (
	"math"
	"time"

	"repro/internal/arbiter"
	"repro/internal/network"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// probeArbiters times the arbitration primitives the routers call on every
// busy output port, with all five inputs requesting: a round-robin grant, a
// WaW weighted grant, and the WaW bulk replenishment an idle router catches
// up with when it wakes.
func probeArbiters(res *result) {
	const n = 1 << 20
	all := []bool{true, true, true, true, true}
	granted := 0

	rr := arbiter.NewRoundRobin(len(all))
	start := time.Now()
	for i := 0; i < n; i++ {
		granted += rr.Grant(all)
	}
	res.set("arbiter.rr_grant_ns", float64(time.Since(start).Nanoseconds())/n)

	w := arbiter.NewWeighted([]int{7, 3, 12, 1, 5})
	start = time.Now()
	for i := 0; i < n; i++ {
		granted += w.Grant(all)
	}
	res.set("arbiter.weighted_grant_ns", float64(time.Since(start).Nanoseconds())/n)

	// One grant in sixteen keeps a counter below its weight, so Replenish
	// has something to restore; the grant's cost is inside the figure.
	start = time.Now()
	for i := 0; i < n; i++ {
		if i&15 == 0 {
			granted += w.Grant(all)
		}
		w.Replenish(3)
	}
	res.set("arbiter.weighted_replenish_ns", float64(time.Since(start).Nanoseconds())/n)
	if granted < 0 {
		res.fail("arbiter probe granted nothing")
	}
}

// probeRouters times the router's per-cycle work directly, on the routers of
// throw-away networks: ComputeTransfers plus ApplyTransfer on every router of
// a network stepped into saturation (both designs), and CatchUpIdle on the
// routers of an idle WaW network.
func probeRouters(res *result, s scenario.Spec) error {
	d, err := s.Dim()
	if err != nil {
		return err
	}
	nodes := d.AllNodes()
	var busy time.Duration
	calls := 0
	for _, design := range []network.Design{network.DesignRegular, network.DesignWaWWaP} {
		net, err := network.New(network.DefaultConfig(d, design))
		if err != nil {
			return err
		}
		gen, err := traffic.NewUniformRandom(d, s.Seed, 400, traffic.RequestPayloadBits, math.MaxInt32)
		if err != nil {
			return err
		}
		traffic.AttachNetworkPool(gen, net)
		for i := 0; i < 1000; i++ {
			for _, msg := range gen.Tick(net.Cycle()) {
				if _, err := net.Send(msg); err != nil {
					return err
				}
			}
			net.Step()
		}
		// The network is not stepped again: each router decides and applies
		// transfers until its credits or inputs run out (at most 3 rounds).
		for round := 0; round < 3; round++ {
			for _, nd := range nodes {
				rt := net.Router(nd)
				start := time.Now()
				for _, t := range rt.ComputeTransfers() {
					rt.ApplyTransfer(t)
				}
				busy += time.Since(start)
				calls++
			}
		}
		net.Close()
	}
	res.set("router.transfers_ns", float64(busy.Nanoseconds())/float64(calls))

	idle, err := network.New(network.DefaultConfig(d, network.DesignWaWWaP))
	if err != nil {
		return err
	}
	defer idle.Close()
	const rounds = 200
	start := time.Now()
	for i := 0; i < rounds; i++ {
		for _, nd := range nodes {
			idle.Router(nd).CatchUpIdle(64)
		}
	}
	res.set("router.catchup_idle_ns", float64(time.Since(start).Nanoseconds())/float64(rounds*len(nodes)))
	return nil
}
