package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/flit"
	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// simTotals adds up what the simulator replay saw over the workload's grid
// points. Counts are exact: they repeat bit for bit and compare exactly
// across commits.
type simTotals struct {
	cycles, leapt, steps uint64
	flitHops, flits      uint64
	messages, delivered  uint64
	latencySum           float64
	latencyMax           float64
	occupied, sampled    uint64 // router occupancy samples
	mallocs              uint64
	loopWall             time.Duration
}

// hot accumulates one hot-loop call site (tick, send, step, leap) for the
// roll-up span of a grid point. The replay reads the clock around the call
// only when it has a tracer, so the untraced replay pays nothing; the call
// sites spell the branch out because a closure per call would allocate.
type hot struct {
	calls, ns int64
}

func (h *hot) add(ns int64) {
	h.calls++
	h.ns += ns
}

// simRun is one network under replay with its per-point accumulators.
type simRun struct {
	tr                     *tracer
	op                     int
	net                    *network.Network
	nodes                  []mesh.Node
	tick, send, step, leap hot
	steps                  uint64
	tot                    *simTotals
}

// buildNetwork constructs the grid point's network the way the scenario
// layer configures it.
func buildNetwork(tr *tracer, op int, s scenario.Spec, shards int) (*network.Network, mesh.Dim, error) {
	d, err := s.Dim()
	if err != nil {
		return nil, d, err
	}
	cfg := network.DefaultConfig(d, s.Design)
	cfg.Shards = shards
	id := tr.begin("network", "build", op)
	net, err := network.New(cfg)
	tr.end(id)
	return net, d, err
}

// sample records how many routers hold a flit, every 64th cycle.
func (r *simRun) sample() {
	if r.net.Cycle()&63 != 0 {
		return
	}
	for _, nd := range r.nodes {
		if !r.net.Router(nd).InputsEmpty() {
			r.tot.occupied++
		}
	}
	r.tot.sampled += uint64(len(r.nodes))
}

// inject ticks the generator and sends what it produced.
func (r *simRun) inject(gen traffic.Generator) (sent int, err error) {
	var msgs []*flit.Message
	if r.tr == nil {
		msgs = gen.Tick(r.net.Cycle())
	} else {
		start := r.tr.now()
		msgs = gen.Tick(r.net.Cycle())
		r.tick.add(r.tr.now() - start)
	}
	for _, msg := range msgs {
		if r.tr == nil {
			_, err = r.net.Send(msg)
		} else {
			start := r.tr.now()
			_, err = r.net.Send(msg)
			r.send.add(r.tr.now() - start)
		}
		if err != nil {
			return sent, err
		}
		sent++
	}
	return sent, nil
}

func (r *simRun) stepOnce() {
	r.sample()
	r.steps++
	if r.tr == nil {
		r.net.Step()
		return
	}
	start := r.tr.now()
	r.net.Step()
	r.step.add(r.tr.now() - start)
}

func (r *simRun) leapTo(target uint64) {
	from := r.net.Cycle()
	if r.tr == nil {
		r.net.LeapTo(target)
	} else {
		start := r.tr.now()
		r.net.LeapTo(target)
		r.leap.add(r.tr.now() - start)
	}
	r.tot.leapt += r.net.Cycle() - from
}

// finish folds the point's accumulators into roll-up spans and totals.
func (r *simRun) finish() {
	r.tr.rollup("traffic", "tick", r.op, r.tick.calls, r.tick.ns)
	r.tr.rollup("nic", "send", r.op, r.send.calls, r.send.ns)
	r.tr.rollup("network", "step", r.op, r.step.calls, r.step.ns)
	r.tr.rollup("network", "leap", r.op, r.leap.calls, r.leap.ns)
	for _, nd := range r.nodes {
		rt := r.net.Router(nd)
		for dir := mesh.Direction(0); dir < mesh.NumDirections; dir++ {
			r.tot.flitHops += rt.Forwarded(dir)
		}
	}
	r.tot.flits += r.net.TotalInjectedFlits()
}

// replaySimulate re-composes traffic.Drive for one simulate grid point from
// public calls and returns what the scenario layer would report.
func replaySimulate(tr *tracer, op int, s scenario.Spec, tot *simTotals) (scenario.SimResult, error) {
	point := tr.begin("bench", "point", op)
	defer tr.end(point)
	net, d, err := buildNetwork(tr, op, s, s.Shards)
	if err != nil {
		return scenario.SimResult{}, err
	}
	defer net.Close()
	gen, err := traffic.NewUniformRandom(d, s.Seed, s.Traffic.Rate, traffic.RequestPayloadBits, s.Traffic.Messages)
	if err != nil {
		return scenario.SimResult{}, err
	}
	traffic.AttachNetworkPool(gen, net)
	r := &simRun{tr: tr, op: op, net: net, nodes: d.AllNodes(), tot: tot}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	loopStart := time.Now()
	const maxCycles = 5_000_000 // the scenario layer's default budget
	injected, done := 0, false
	for net.Cycle() < maxCycles {
		n, err := r.inject(gen)
		if err != nil {
			return scenario.SimResult{}, err
		}
		injected += n
		if gen.Done() && net.Drained() {
			done = true
			break
		}
		if net.Leapable() {
			target := uint64(maxCycles)
			if next, ok := gen.NextEvent(net.Cycle() + 1); ok && next < target {
				target = next
			}
			r.leapTo(target)
			continue
		}
		r.stepOnce()
	}
	tot.loopWall += time.Since(loopStart)
	runtime.ReadMemStats(&after)
	tot.mallocs += after.Mallocs - before.Mallocs
	if !done {
		return scenario.SimResult{}, fmt.Errorf("replay of %s did not complete within %d cycles", s.Name, maxCycles)
	}
	r.finish()
	agg := net.AggregateLatency()
	tot.cycles += net.Cycle()
	tot.steps += r.steps
	tot.messages += uint64(injected)
	tot.delivered += net.TotalDeliveredMessages()
	tot.latencySum += agg.Sum()
	tot.latencyMax = math.Max(tot.latencyMax, agg.Max())
	return scenario.SimResult{
		Injected:      injected,
		Delivered:     net.TotalDeliveredMessages(),
		Cycles:        net.Cycle(),
		MinLatency:    agg.Min(),
		MeanLatency:   agg.Mean(),
		MaxLatency:    agg.Max(),
		InjectedFlits: net.TotalInjectedFlits(),
	}, nil
}

// replayLoadCurve re-composes the scenario layer's single-rate load-curve
// point (warm-up window, measurement window, bounded drain) from public
// calls.
func replayLoadCurve(tr *tracer, op int, s scenario.Spec, tot *simTotals) (scenario.LoadCurvePoint, error) {
	point := tr.begin("bench", "point", op)
	defer tr.end(point)
	net, d, err := buildNetwork(tr, op, s, s.Shards)
	if err != nil {
		return scenario.LoadCurvePoint{}, err
	}
	defer net.Close()
	t := s.Traffic
	rate, warmup, measure := t.Rates[0], t.WarmupCycles, t.MeasureCycles
	gen, err := traffic.NewUniformRandom(d, s.Seed, rate, traffic.RequestPayloadBits, math.MaxInt32)
	if err != nil {
		return scenario.LoadCurvePoint{}, err
	}
	traffic.AttachNetworkPool(gen, net)
	r := &simRun{tr: tr, op: op, net: net, nodes: d.AllNodes(), tot: tot}

	var lat, netLat stats.Sampler
	var delivered, inWindow uint64
	start, stop := uint64(warmup), uint64(warmup+measure)
	net.DeliveryHook = func(msg *flit.Message, at uint64) {
		if at >= start && at < stop {
			inWindow++
		}
		if msg.CreatedAt < start {
			return
		}
		delivered++
		lat.AddUint(msg.DeliveredAt - msg.CreatedAt)
		netLat.AddUint(msg.DeliveredAt - msg.InjectedAt)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	loopStart := time.Now()
	offered := 0
	for cycle := 0; cycle < warmup+measure; cycle++ {
		n, err := r.inject(gen)
		if err != nil {
			return scenario.LoadCurvePoint{}, err
		}
		tot.messages += uint64(n)
		if cycle >= warmup {
			offered += n
		}
		r.stepOnce()
	}
	tot.loopWall += time.Since(loopStart)
	runtime.ReadMemStats(&after)
	tot.mallocs += after.Mallocs - before.Mallocs

	id := tr.begin("network", "drain", op)
	drained := net.RunUntilDrained(measure)
	tr.end(id)
	r.finish()
	tot.cycles += net.Cycle()
	tot.steps += r.steps
	tot.delivered += delivered
	tot.latencySum += lat.Sum()
	tot.latencyMax = math.Max(tot.latencyMax, lat.Max())
	return scenario.LoadCurvePoint{
		RatePerMil:         rate,
		Offered:            offered,
		Delivered:          delivered,
		Throughput:         float64(inWindow) / float64(d.Nodes()) / float64(measure) * 1000,
		MinLatency:         lat.Min(),
		MeanLatency:        lat.Mean(),
		MaxLatency:         lat.Max(),
		StdDevLatency:      lat.StdDev(),
		MeanNetworkLatency: netLat.Mean(),
		MaxNetworkLatency:  netLat.Max(),
		Drained:            drained,
	}, nil
}

// replaySim replays every grid point of a simulator workload and checks the
// replay's exact outcome against what the built binary printed.
func replaySim(tr *tracer, specs []scenario.Spec, cli []scenario.Result, res *result) (simTotals, error) {
	var tot simTotals
	for i, s := range specs {
		switch s.Mode {
		case scenario.ModeSimulate:
			got, err := replaySimulate(tr, i, s, &tot)
			if err != nil {
				return tot, err
			}
			if cli[i].Sim == nil || *cli[i].Sim != got {
				res.Failed++
				res.fail("%s: replay %+v differs from the binary's %+v", s.Name, got, cli[i].Sim)
			}
		case scenario.ModeLoadCurve:
			got, err := replayLoadCurve(tr, i, s, &tot)
			if err != nil {
				return tot, err
			}
			if lc := cli[i].LoadCurve; lc == nil || len(lc.Points) != 1 || lc.Points[0] != got {
				res.Failed++
				res.fail("%s: replay %+v differs from the binary's %+v", s.Name, got, cli[i].LoadCurve)
			}
		default:
			return tot, fmt.Errorf("replaySim: mode %v", s.Mode)
		}
	}
	return tot, nil
}

// reportSim turns the traced replay's spans and totals into the simulator
// layers' metrics.
func reportSim(res *result, spans []span, tot simTotals) {
	per := func(layer, name string) (calls int64, nsPerCall float64) {
		calls, busy := busyOf(spans, layer, name, -1)
		return calls, float64(busy) / float64(calls)
	}
	_, tickNS := per("traffic", "tick")
	res.set("traffic.tick_ns", tickNS)
	res.set("traffic.messages", float64(tot.messages))
	_, sendNS := per("nic", "send")
	res.set("nic.send_ns", sendNS)
	res.set("nic.injected_flits", float64(tot.flits))

	_, buildNS := busyOf(spans, "network", "build", -1)
	res.set("network.build_ms", float64(buildNS)/1e6)
	_, stepBusy := busyOf(spans, "network", "step", -1)
	_, stepNS := per("network", "step")
	res.set("network.step_ns", stepNS)
	res.set("network.ns_per_flit_hop", float64(stepBusy)/float64(tot.flitHops))
	res.set("network.mcycles_per_s", float64(tot.cycles)/1e6/tot.loopWall.Seconds())
	_, drainNS := busyOf(spans, "network", "drain", -1)
	res.set("network.drain_ms", float64(drainNS)/1e6)
	res.set("network.step_allocs", float64(tot.mallocs)/float64(tot.steps)*1000)
	res.set("network.occupied_router_share", float64(tot.occupied)/float64(tot.sampled))
	res.set("network.cycles", float64(tot.cycles))
	res.set("network.steps", float64(tot.steps))
	res.set("network.leap_share", float64(tot.leapt)/float64(tot.cycles))
	res.set("network.flit_hops", float64(tot.flitHops))
	res.set("network.delivered_msgs", float64(tot.delivered))
	res.set("network.mean_latency_cycles", tot.latencySum/float64(tot.delivered))
	res.set("network.max_latency_cycles", tot.latencyMax)
}

// probeSharded steps the saturated configuration with one shard and with
// two and reports the two-shard step time and its speed-up over serial. No
// end-to-end metric moves with it at the CLI's default -shards 1; it is
// recorded because ROADMAP gates it.
func probeSharded(res *result, s scenario.Spec, steps int) error {
	stepNS := func(shards int) (float64, error) {
		net, d, err := buildNetwork(nil, 0, s, shards)
		if err != nil {
			return 0, err
		}
		defer net.Close()
		gen, err := traffic.NewUniformRandom(d, s.Seed, s.Traffic.Rates[0], traffic.RequestPayloadBits, math.MaxInt32)
		if err != nil {
			return 0, err
		}
		traffic.AttachNetworkPool(gen, net)
		var busy time.Duration
		for i := 0; i < 2*steps; i++ { // first half fills the network, second half is timed
			for _, msg := range gen.Tick(net.Cycle()) {
				if _, err := net.Send(msg); err != nil {
					return 0, err
				}
			}
			start := time.Now()
			net.Step()
			if i >= steps {
				busy += time.Since(start)
			}
		}
		return float64(busy) / float64(steps), nil
	}
	serial, err := stepNS(1)
	if err != nil {
		return err
	}
	sharded, err := stepNS(2)
	if err != nil {
		return err
	}
	res.set("network.sharded2_step_ns", sharded)
	res.set("network.sharded2_speedup", serial/sharded)
	return nil
}
