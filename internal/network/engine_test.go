// Equivalence tests for the active-set engine: every simulation observable
// (delivered counts, per-flow latency samplers, cycle counts, and even the
// per-cycle buffer/credit microstate) must be identical to the full-scan
// reference engine for every design point, traffic pattern and seed. These
// are the regression tests that let the active-set scheduling be trusted to
// keep golden outputs byte-identical.
package network_test

import (
	"fmt"
	"testing"

	"repro/internal/arbiter"
	"repro/internal/flit"
	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// buildGen constructs one instance of the named generator; each engine run
// gets its own instance so the pseudo-random state is consumed identically.
func buildGen(t *testing.T, pattern string, d mesh.Dim, seed int64) traffic.Generator {
	t.Helper()
	var gen traffic.Generator
	var err error
	switch pattern {
	case "hotspot":
		gen, err = traffic.NewHotspot(d, mesh.Node{X: 0, Y: 0}, seed, 40, traffic.RequestPayloadBits, 300)
	case "uniform":
		gen, err = traffic.NewUniformRandom(d, seed, 80, traffic.CacheLinePayloadBits, 300)
	case "transpose":
		gen, err = traffic.NewPermutation(d, traffic.Transpose, traffic.CacheLinePayloadBits, 8, 20)
	case "neighbor":
		gen, err = traffic.NewPermutation(d, traffic.NearestNeighbor, traffic.RequestPayloadBits, 8, 10)
	default:
		t.Fatalf("unknown pattern %q", pattern)
	}
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// runEngine drives the pattern through a fresh network built on the given
// engine until drained.
func runEngine(t *testing.T, e network.Engine, d mesh.Dim, design network.Design, pattern string, seed int64) *network.Network {
	t.Helper()
	cfg := network.DefaultConfig(d, design)
	cfg.Engine = e
	net, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := buildGen(t, pattern, d, seed)
	if _, done := traffic.Drive(net, gen, 1_000_000); !done {
		t.Fatalf("%v/%v/%s/seed=%d did not drain", e, design, pattern, seed)
	}
	return net
}

func samplerKey(s *stats.Sampler) string {
	return fmt.Sprintf("n=%d sum=%v min=%v max=%v std=%v", s.Count(), s.Sum(), s.Min(), s.Max(), s.StdDev())
}

// flowFingerprint renders every per-flow statistic in AllFlowStats' order,
// which is deterministic: ascending (source index, destination index).
func flowFingerprint(net *network.Network) string {
	out := ""
	for _, fs := range net.AllFlowStats() {
		out += fmt.Sprintf("%v msgs=%d lat{%s} netlat{%s}\n",
			fs.Flow, fs.Messages, samplerKey(&fs.Latency), samplerKey(&fs.NetworkLatency))
	}
	return out
}

// TestAllFlowStatsOrdered: flows are listed by ascending source index, then
// destination index — on one shard and on several, where each shard holds
// only the flows that end in its stripe.
func TestAllFlowStatsOrdered(t *testing.T) {
	d := mesh.MustDim(4, 4)
	for _, shards := range []int{1, 4} {
		fss := runSharded(t, shards, d, network.DesignWaWWaP, "uniform", 3).AllFlowStats()
		if len(fss) < d.Nodes() {
			t.Fatalf("shards=%d: only %d flows delivered", shards, len(fss))
		}
		for i := 1; i < len(fss); i++ {
			a, b := fss[i-1].Flow, fss[i].Flow
			ka := d.Index(a.Src)*d.Nodes() + d.Index(a.Dst)
			kb := d.Index(b.Src)*d.Nodes() + d.Index(b.Dst)
			if ka >= kb {
				t.Fatalf("shards=%d: flow %v listed before %v", shards, a, b)
			}
		}
	}
}

// TestEnginesEquivalent checks that the active-set engine reproduces the
// full-scan engine's results exactly — delivered counts, cycle counts and
// every per-flow latency sampler — across all four design points, several
// traffic patterns and seeds, on square and rectangular meshes.
func TestEnginesEquivalent(t *testing.T) {
	designs := []network.Design{
		network.DesignRegular, network.DesignWaWWaP,
		network.DesignWaWOnly, network.DesignWaPOnly,
	}
	dims := []mesh.Dim{mesh.MustDim(4, 4), mesh.MustDim(4, 2)}
	patterns := []string{"hotspot", "uniform", "transpose", "neighbor"}
	seeds := []int64{1, 7}
	for _, d := range dims {
		for _, design := range designs {
			for _, pattern := range patterns {
				for _, seed := range seeds {
					name := fmt.Sprintf("%v/%v/%s/seed=%d", d, design, pattern, seed)
					t.Run(name, func(t *testing.T) {
						ref := runEngine(t, network.EngineFullScan, d, design, pattern, seed)
						act := runEngine(t, network.EngineActiveSet, d, design, pattern, seed)
						if ref.Cycle() != act.Cycle() {
							t.Errorf("cycles: full-scan %d, active-set %d", ref.Cycle(), act.Cycle())
						}
						if ref.TotalInjectedFlits() != act.TotalInjectedFlits() {
							t.Errorf("injected flits: full-scan %d, active-set %d",
								ref.TotalInjectedFlits(), act.TotalInjectedFlits())
						}
						if ref.TotalDeliveredMessages() != act.TotalDeliveredMessages() {
							t.Errorf("delivered: full-scan %d, active-set %d",
								ref.TotalDeliveredMessages(), act.TotalDeliveredMessages())
						}
						if rf, af := flowFingerprint(ref), flowFingerprint(act); rf != af {
							t.Errorf("flow stats differ:\nfull-scan:\n%s\nactive-set:\n%s", rf, af)
						}
					})
				}
			}
		}
	}
}

// TestEnginesLockstepMicrostate steps both engines side by side under a
// congested hotspot and compares the complete observable microstate — every
// input-buffer occupancy and every credit counter of every router — after
// every cycle. This pins the active-set scheduling to the reference engine
// at cycle granularity, not just at drain time.
func TestEnginesLockstepMicrostate(t *testing.T) {
	d := mesh.MustDim(4, 4)
	for _, design := range []network.Design{network.DesignRegular, network.DesignWaWWaP} {
		t.Run(design.String(), func(t *testing.T) {
			mk := func(e network.Engine) *network.Network {
				cfg := network.DefaultConfig(d, design)
				cfg.Engine = e
				return network.MustNew(cfg)
			}
			ref, act := mk(network.EngineFullScan), mk(network.EngineActiveSet)
			genRef := buildGen(t, "hotspot", d, 3)
			genAct := buildGen(t, "hotspot", d, 3)
			for cycle := 0; cycle < 3000; cycle++ {
				for _, msg := range genRef.Tick(ref.Cycle()) {
					if _, err := ref.Send(msg); err != nil {
						t.Fatal(err)
					}
				}
				for _, msg := range genAct.Tick(act.Cycle()) {
					if _, err := act.Send(msg); err != nil {
						t.Fatal(err)
					}
				}
				ref.Step()
				act.Step()
				for _, nd := range d.AllNodes() {
					rr, ra := ref.Router(nd), act.Router(nd)
					for _, dir := range mesh.Directions {
						if ro, ao := rr.InputOccupancy(dir), ra.InputOccupancy(dir); ro != ao {
							t.Fatalf("cycle %d node %v input %v occupancy: full-scan %d, active-set %d",
								cycle, nd, dir, ro, ao)
						}
						if rr.HasOutput(dir) && rr.Credits(dir) != ra.Credits(dir) {
							t.Fatalf("cycle %d node %v output %v credits: full-scan %d, active-set %d",
								cycle, nd, dir, rr.Credits(dir), ra.Credits(dir))
						}
					}
				}
				if ref.TotalDeliveredMessages() != act.TotalDeliveredMessages() {
					t.Fatalf("cycle %d delivered: full-scan %d, active-set %d",
						cycle, ref.TotalDeliveredMessages(), act.TotalDeliveredMessages())
				}
				if ref.Drained() != act.Drained() {
					t.Fatalf("cycle %d drained: full-scan %v, active-set %v", cycle, ref.Drained(), act.Drained())
				}
				if genRef.Done() && ref.Drained() && act.Drained() {
					break
				}
			}
		})
	}
}

// TestNetworkLatencyExcludesSourceQueueing is the regression test for the
// latency-accounting bugfix: FlowStats.NetworkLatency must measure
// injection-to-delivery, so with a burst of back-to-back messages queueing
// at one source NIC the network latency is strictly below the total latency
// (which includes the source-queueing time), while a solitary message keeps
// the two nearly equal.
func TestNetworkLatencyExcludesSourceQueueing(t *testing.T) {
	d := mesh.MustDim(4, 4)
	net := network.MustNew(network.DefaultConfig(d, network.DesignRegular))
	flow := flit.FlowID{Src: mesh.Node{X: 3, Y: 3}, Dst: mesh.Node{X: 0, Y: 0}}
	// Queue several multi-flit messages at once: all are created at cycle 0
	// but the later ones wait in the injection queue behind the earlier.
	const burst = 5
	for i := 0; i < burst; i++ {
		msg := &flit.Message{Flow: flow, Class: flit.ClassData, PayloadBits: traffic.CacheLinePayloadBits}
		if _, err := net.Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	if !net.RunUntilDrained(100_000) {
		t.Fatal("network did not drain")
	}
	fs := net.FlowStatsFor(flow)
	if fs == nil || fs.Messages != burst {
		t.Fatalf("flow stats missing or incomplete: %+v", fs)
	}
	if fs.NetworkLatency.Count() != burst {
		t.Fatalf("network latency samples = %d, want %d", fs.NetworkLatency.Count(), burst)
	}
	// Every message: network latency <= total latency.
	if fs.NetworkLatency.Max() > fs.Latency.Max() || fs.NetworkLatency.Mean() > fs.Latency.Mean() {
		t.Errorf("network latency exceeds total latency: net %v vs total %v",
			fs.NetworkLatency.String(), fs.Latency.String())
	}
	// The last message of the burst queued behind the earlier ones, so the
	// aggregate network latency must be STRICTLY below the total latency —
	// this is exactly what the old DeliveredAt-CreatedAt accounting got
	// wrong (it made the two samplers identical).
	if fs.NetworkLatency.Sum() >= fs.Latency.Sum() {
		t.Errorf("network latency not strictly below total latency under source queueing: net sum %v, total sum %v",
			fs.NetworkLatency.Sum(), fs.Latency.Sum())
	}
	// The first message of the burst injects immediately, so the smallest
	// network latency should differ from total latency by at most the
	// single-cycle injection offset.
	if fs.Latency.Min()-fs.NetworkLatency.Min() > float64(fs.Messages) {
		t.Errorf("min network latency %v implausibly far from min total latency %v",
			fs.NetworkLatency.Min(), fs.Latency.Min())
	}
}

// stepEngine drives the pattern through a fresh active-set network with a
// plain cycle-by-cycle loop — no Drive, no leaping — as the per-cycle
// reference for the time-leap scheduling.
func stepEngine(t *testing.T, d mesh.Dim, design network.Design, pattern string, seed int64) *network.Network {
	t.Helper()
	net := network.MustNew(network.DefaultConfig(d, design))
	gen := buildGen(t, pattern, d, seed)
	for i := 0; i < 1_000_000; i++ {
		for _, msg := range gen.Tick(net.Cycle()) {
			if _, err := net.Send(msg); err != nil {
				t.Fatal(err)
			}
		}
		if gen.Done() && net.Drained() {
			return net
		}
		net.Step()
	}
	t.Fatalf("%v/%s/seed=%d did not drain", design, pattern, seed)
	return nil
}

// TestLeapMatchesStep pins the time-leap scheduling to the per-cycle loop:
// traffic.Drive (which leaps over event-idle windows, e.g. the gaps between
// permutation rounds) must reach exactly the same final cycle, delivery
// counts and per-flow statistics as stepping every cycle. The permutation
// patterns have long idle gaps, so this exercises real leaps; the random
// patterns pin the no-leap-while-live rule.
func TestLeapMatchesStep(t *testing.T) {
	d := mesh.MustDim(4, 4)
	for _, design := range []network.Design{network.DesignRegular, network.DesignWaWWaP} {
		for _, pattern := range []string{"transpose", "neighbor", "hotspot", "uniform"} {
			t.Run(design.String()+"/"+pattern, func(t *testing.T) {
				ref := stepEngine(t, d, design, pattern, 5)
				leap := runEngine(t, network.EngineActiveSet, d, design, pattern, 5)
				if ref.Cycle() != leap.Cycle() {
					t.Errorf("cycles: stepped %d, leaping Drive %d", ref.Cycle(), leap.Cycle())
				}
				if ref.TotalDeliveredMessages() != leap.TotalDeliveredMessages() {
					t.Errorf("delivered: stepped %d, leaping Drive %d",
						ref.TotalDeliveredMessages(), leap.TotalDeliveredMessages())
				}
				if rf, lf := flowFingerprint(ref), flowFingerprint(leap); rf != lf {
					t.Errorf("flow stats differ:\nstepped:\n%s\nleaping:\n%s", rf, lf)
				}
			})
		}
	}
}

// TestRunLeapsIdleWindow checks the Run/RunUntilDrained leap directly: an
// idle active-set network must cross an arbitrarily long window in one jump
// (cycle counter advanced, WaW counters settled lazily) with state identical
// to the stepped full-scan reference.
func TestRunLeapsIdleWindow(t *testing.T) {
	d := mesh.MustDim(4, 4)
	mk := func(e network.Engine) *network.Network {
		cfg := network.DefaultConfig(d, network.DesignWaWWaP)
		cfg.Engine = e
		return network.MustNew(cfg)
	}
	ref, act := mk(network.EngineFullScan), mk(network.EngineActiveSet)
	for _, net := range []*network.Network{ref, act} {
		// One multi-flit burst so arbiters move off their power-on state.
		msg := &flit.Message{
			Flow:        flit.FlowID{Src: mesh.Node{X: 3, Y: 3}, Dst: mesh.Node{X: 0, Y: 0}},
			Class:       flit.ClassData,
			PayloadBits: traffic.CacheLinePayloadBits,
		}
		if _, err := net.Send(msg); err != nil {
			t.Fatal(err)
		}
		if !net.RunUntilDrained(10_000) {
			t.Fatal("burst did not drain")
		}
	}
	if ref.Cycle() != act.Cycle() {
		t.Fatalf("drain cycle differs: full-scan %d, active-set %d", ref.Cycle(), act.Cycle())
	}
	// A long idle window: the active-set engine leaps it, the full-scan
	// reference steps it; the resulting states must agree exactly.
	const idle = 250_000
	ref.Run(idle)
	act.Run(idle)
	if ref.Cycle() != act.Cycle() {
		t.Fatalf("idle window cycle differs: full-scan %d, active-set %d", ref.Cycle(), act.Cycle())
	}
	act.FlushReplenishment()
	compareArbiterState(t, d, ref, act, int(ref.Cycle()))
}

// compareArbiterState asserts every WaW flit counter of every router matches
// between the two networks (the active-set one must be flushed first).
func compareArbiterState(t *testing.T, d mesh.Dim, ref, act *network.Network, cycle int) {
	t.Helper()
	for _, nd := range d.AllNodes() {
		rr, ra := ref.Router(nd), act.Router(nd)
		for _, dir := range mesh.Directions {
			wr, okR := rr.Arbiter(dir).(*arbiter.Weighted)
			wa, okA := ra.Arbiter(dir).(*arbiter.Weighted)
			if okR != okA {
				t.Fatalf("cycle %d node %v output %v: arbiter kinds differ", cycle, nd, dir)
			}
			if !okR {
				continue
			}
			for i := 0; i < wr.NumInputs(); i++ {
				if wr.Count(i) != wa.Count(i) {
					t.Fatalf("cycle %d node %v output %v input %d: WaW counter full-scan %d, active-set %d",
						cycle, nd, dir, i, wr.Count(i), wa.Count(i))
				}
			}
		}
	}
}

// TestEnginesLockstepArbiterState steps both engines side by side and, after
// every cycle, flushes the active-set engine's lazy replenishment and
// compares every WaW flit counter against the full-scan reference. This pins
// the lazy-replenishment bookkeeping (and its credit/lock gating) to the
// hardware rule at cycle granularity.
func TestEnginesLockstepArbiterState(t *testing.T) {
	d := mesh.MustDim(4, 4)
	mk := func(e network.Engine) *network.Network {
		cfg := network.DefaultConfig(d, network.DesignWaWWaP)
		cfg.Engine = e
		return network.MustNew(cfg)
	}
	ref, act := mk(network.EngineFullScan), mk(network.EngineActiveSet)
	genRef := buildGen(t, "uniform", d, 9)
	genAct := buildGen(t, "uniform", d, 9)
	for cycle := 0; cycle < 4000; cycle++ {
		for _, msg := range genRef.Tick(ref.Cycle()) {
			if _, err := ref.Send(msg); err != nil {
				t.Fatal(err)
			}
		}
		for _, msg := range genAct.Tick(act.Cycle()) {
			if _, err := act.Send(msg); err != nil {
				t.Fatal(err)
			}
		}
		ref.Step()
		act.Step()
		act.FlushReplenishment()
		compareArbiterState(t, d, ref, act, cycle)
		if genRef.Done() && ref.Drained() && act.Drained() {
			break
		}
	}
}

// TestResetMatchesFresh pins Network.Reset: after running an arbitrary
// workload, a reset network must reproduce a fresh network's behaviour
// exactly — same deliveries, same cycle counts, same per-flow statistics —
// across designs and patterns. This is what makes the scenario layer's
// network reuse safe.
func TestResetMatchesFresh(t *testing.T) {
	d := mesh.MustDim(4, 4)
	for _, design := range []network.Design{
		network.DesignRegular, network.DesignWaWWaP,
		network.DesignWaWOnly, network.DesignWaPOnly,
	} {
		for _, pattern := range []string{"hotspot", "uniform", "transpose"} {
			t.Run(design.String()+"/"+pattern, func(t *testing.T) {
				fresh := runEngine(t, network.EngineActiveSet, d, design, pattern, 3)

				reused := network.MustNew(network.DefaultConfig(d, design))
				// Dirty the network with a different workload, then rewind.
				dirty := buildGen(t, "uniform", d, 99)
				if _, done := traffic.Drive(reused, dirty, 1_000_000); !done {
					t.Fatal("dirtying run did not drain")
				}
				reused.Reset()
				if reused.Cycle() != 0 || !reused.Drained() ||
					reused.TotalInjectedFlits() != 0 || reused.TotalDeliveredMessages() != 0 ||
					len(reused.AllFlowStats()) != 0 {
					t.Fatal("Reset did not rewind the network to its initial state")
				}
				gen := buildGen(t, pattern, d, 3)
				if _, done := traffic.Drive(reused, gen, 1_000_000); !done {
					t.Fatal("reused run did not drain")
				}
				if fresh.Cycle() != reused.Cycle() {
					t.Errorf("cycles: fresh %d, reused %d", fresh.Cycle(), reused.Cycle())
				}
				if fresh.TotalDeliveredMessages() != reused.TotalDeliveredMessages() {
					t.Errorf("delivered: fresh %d, reused %d",
						fresh.TotalDeliveredMessages(), reused.TotalDeliveredMessages())
				}
				if ff, rf := flowFingerprint(fresh), flowFingerprint(reused); ff != rf {
					t.Errorf("flow stats differ:\nfresh:\n%s\nreused:\n%s", ff, rf)
				}
			})
		}
	}
}
