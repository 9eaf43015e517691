// Equivalence tests for Network.Step: every simulation observable (delivered
// counts, the delivery log — every message's cycles, in delivery-hook call
// order — cycle counts, and even the per-cycle buffer/credit/arbiter
// microstate) must be identical to the full-scan oracle (network.FullScan,
// export_test.go) for every design point, traffic pattern and seed. These are the regression tests that let
// the active-set scheduling be trusted to keep golden outputs byte-identical.
package network_test

import (
	"fmt"
	"strings"
	"testing"

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

// run is a simulation and the log its delivery hook writes.
type run struct {
	*network.Network
	log *strings.Builder
}

// logDeliveries makes net log every delivery, one line per DeliveryHook call:
// the cycle, the flow, and the message's created, injected and delivered
// cycles. Equal logs mean the same messages delivered at the same cycles in
// the same order, which is strictly stronger than equal per-flow aggregates.
func logDeliveries(net *network.Network) run {
	r := run{net, &strings.Builder{}}
	net.DeliveryHook = func(msg *flit.Message, at uint64) {
		fmt.Fprintf(r.log, "%d %v %d %d %d\n", at, msg.Flow, msg.CreatedAt, msg.InjectedAt, msg.DeliveredAt)
	}
	return r
}

// runStep drives the pattern through a fresh network with traffic.Drive
// (Network.Step plus time leaps) until drained.
func runStep(t *testing.T, cfg network.Config, pattern string, seed int64) run {
	t.Helper()
	net, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := logDeliveries(net)
	if _, done := traffic.Drive(net, buildGen(t, pattern, cfg.Dim, seed), 1_000_000); !done {
		t.Fatalf("%v/%v/%s/seed=%d did not drain", cfg.Dim, cfg.Design, pattern, seed)
	}
	return r
}

// driveOracle runs the generator through the full-scan oracle with the plain
// cycle-by-cycle loop until the generator is done and the network drained.
func driveOracle(t *testing.T, ref network.FullScan, gen traffic.Generator) *network.Network {
	t.Helper()
	for i := 0; i < 1_000_000; i++ {
		sendAll(t, ref.Net, gen)
		if gen.Done() && ref.Drained() {
			return ref.Net
		}
		ref.Step()
	}
	t.Fatalf("full-scan %v/%v did not drain", ref.Net.Config().Dim, ref.Net.Config().Design)
	return nil
}

// runOracle drives the pattern through a fresh full-scan oracle until drained.
func runOracle(t *testing.T, cfg network.Config, pattern string, seed int64) run {
	t.Helper()
	ref := network.MustNewFullScan(cfg)
	r := logDeliveries(ref.Net)
	driveOracle(t, ref, buildGen(t, pattern, cfg.Dim, seed))
	return r
}

// sendAll sends the messages the generator releases at the network's cycle.
func sendAll(t *testing.T, net *network.Network, gen traffic.Generator) {
	t.Helper()
	for _, msg := range gen.Tick(net.Cycle()) {
		if _, err := net.Send(msg); err != nil {
			t.Fatal(err)
		}
	}
}

// compareRuns asserts two finished runs agree on the cycle count, the flit
// and message totals and the delivery log.
func compareRuns(t *testing.T, what string, ref, act run) {
	t.Helper()
	if ref.Cycle() != act.Cycle() {
		t.Errorf("%s cycles: full-scan %d, Step %d", what, ref.Cycle(), act.Cycle())
	}
	if ref.TotalInjectedFlits() != act.TotalInjectedFlits() {
		t.Errorf("%s injected flits: full-scan %d, Step %d", what, ref.TotalInjectedFlits(), act.TotalInjectedFlits())
	}
	if ref.TotalDeliveredMessages() != act.TotalDeliveredMessages() {
		t.Errorf("%s delivered: full-scan %d, Step %d", what, ref.TotalDeliveredMessages(), act.TotalDeliveredMessages())
	}
	compareLogs(t, what, "full-scan", "Step", ref, act)
}

// compareLogs reports the first delivery at which two runs' logs differ.
func compareLogs(t *testing.T, what, refName, actName string, ref, act run) {
	t.Helper()
	r, a := strings.Split(ref.log.String(), "\n"), strings.Split(act.log.String(), "\n")
	for i := 0; i < len(r) && i < len(a); i++ {
		if r[i] != a[i] {
			t.Errorf("%s delivery %d: %s %q, %s %q", what, i+1, refName, r[i], actName, a[i])
			return
		}
	}
	if len(r) != len(a) {
		t.Errorf("%s: %s logged %d deliveries, %s %d", what, refName, len(r)-1, actName, len(a)-1)
	}
}

var (
	allDesigns = []network.Design{
		network.DesignRegular, network.DesignWaWWaP,
		network.DesignWaWOnly, network.DesignWaPOnly,
	}
	allPatterns = []string{"hotspot", "uniform", "transpose", "neighbor"}
)

// TestEnginesEquivalent checks that Step reproduces the full-scan oracle's
// results exactly — delivered counts, cycle counts and the delivery log —
// across all four design points, several traffic patterns and seeds, on
// square and rectangular meshes.
func TestEnginesEquivalent(t *testing.T) {
	for _, d := range []mesh.Dim{mesh.MustDim(4, 4), mesh.MustDim(4, 2)} {
		for _, design := range allDesigns {
			for _, pattern := range allPatterns {
				for _, seed := range []int64{1, 7} {
					name := fmt.Sprintf("%v/%v/%s/seed=%d", d, design, pattern, seed)
					t.Run(name, func(t *testing.T) {
						cfg := network.DefaultConfig(d, design)
						compareRuns(t, "run", runOracle(t, cfg, pattern, seed), runStep(t, cfg, pattern, seed))
					})
				}
			}
		}
	}
}

// lockstep steps the full-scan oracle and a Step network of the same
// configuration side by side under the pattern, calling check after every
// cycle, until both have drained or the cycle budget runs out.
func lockstep(t *testing.T, cfg network.Config, pattern string, seed int64, cycles int,
	check func(cycle int, ref network.FullScan, act *network.Network)) {
	t.Helper()
	ref, act := network.MustNewFullScan(cfg), network.MustNew(cfg)
	genRef := buildGen(t, pattern, cfg.Dim, seed)
	genAct := buildGen(t, pattern, cfg.Dim, seed)
	for cycle := 0; cycle < cycles; cycle++ {
		sendAll(t, ref.Net, genRef)
		sendAll(t, act, genAct)
		ref.Step()
		act.Step()
		check(cycle, ref, act)
		if genRef.Done() && ref.Drained() && act.Drained() {
			break
		}
	}
}

// compareMicrostate asserts the complete observable microstate — every
// input-buffer occupancy and every credit counter of every router, the
// delivered count and the drained flag — matches between the two networks.
func compareMicrostate(t *testing.T, cycle int, ref network.FullScan, act *network.Network) {
	t.Helper()
	for _, nd := range act.Config().Dim.AllNodes() {
		rr, ra := ref.Net.Router(nd), act.Router(nd)
		for _, dir := range mesh.Directions {
			if ro, ao := rr.InputOccupancy(dir), ra.InputOccupancy(dir); ro != ao {
				t.Fatalf("cycle %d node %v input %v occupancy: full-scan %d, Step %d", cycle, nd, dir, ro, ao)
			}
			if rr.Credits(dir) != ra.Credits(dir) {
				t.Fatalf("cycle %d node %v output %v credits: full-scan %d, Step %d",
					cycle, nd, dir, rr.Credits(dir), ra.Credits(dir))
			}
		}
	}
	if rd, ad := ref.Net.TotalDeliveredMessages(), act.TotalDeliveredMessages(); rd != ad {
		t.Fatalf("cycle %d delivered: full-scan %d, Step %d", cycle, rd, ad)
	}
	if ref.Drained() != act.Drained() {
		t.Fatalf("cycle %d drained: full-scan %v, Step %v", cycle, ref.Drained(), act.Drained())
	}
}

// TestEnginesLockstepMicrostate steps Step and the oracle side by side under
// a congested hotspot and compares the complete observable microstate after
// every cycle. This pins the active-set scheduling to the reference at cycle
// granularity, not just at drain time.
func TestEnginesLockstepMicrostate(t *testing.T) {
	for _, design := range []network.Design{network.DesignRegular, network.DesignWaWWaP} {
		t.Run(design.String(), func(t *testing.T) {
			cfg := network.DefaultConfig(mesh.MustDim(4, 4), design)
			lockstep(t, cfg, "hotspot", 3, 3000, func(cycle int, ref network.FullScan, act *network.Network) {
				compareMicrostate(t, cycle, ref, act)
			})
		})
	}
}

// TestDeliveryHookOrder checks that Step calls the DeliveryHook in exactly
// the full-scan oracle's order, with identical arguments and cycle stamps —
// the property the load-curve mode's order-sensitive samplers (Welford mean
// and m2) depend on for byte-identical output.
func TestDeliveryHookOrder(t *testing.T) {
	cfg := network.DefaultConfig(mesh.MustDim(4, 4), network.DesignWaWWaP)
	ref, act := runOracle(t, cfg, "uniform", 11), runStep(t, cfg, "uniform", 11)
	if ref.log.Len() == 0 {
		t.Fatal("reference run delivered nothing")
	}
	compareLogs(t, "hook", "full-scan", "Step", ref, act)
}

// TestNetworkLatencyExcludesSourceQueueing is the regression test for the
// latency-accounting bugfix: a delivered message's InjectedAt stamps the
// injection of its first flit, so network latency (DeliveredAt - InjectedAt)
// measures injection-to-delivery. With a burst of back-to-back messages
// queueing at one source NIC the network latency is strictly below the total
// latency (which includes the source-queueing time), while a solitary
// message keeps the two nearly equal.
func TestNetworkLatencyExcludesSourceQueueing(t *testing.T) {
	d := mesh.MustDim(4, 4)
	net := network.MustNew(network.DefaultConfig(d, network.DesignRegular))
	var lat, netLat stats.Sampler
	net.DeliveryHook = func(msg *flit.Message, _ uint64) {
		lat.AddUint(msg.DeliveredAt - msg.CreatedAt)
		netLat.AddUint(msg.DeliveredAt - msg.InjectedAt)
	}
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
	if netLat.Count() != burst {
		t.Fatalf("network latency samples = %d, want %d", netLat.Count(), burst)
	}
	// Every message: network latency <= total latency.
	if netLat.Max() > lat.Max() || netLat.Mean() > lat.Mean() {
		t.Errorf("network latency exceeds total latency: net %v vs total %v", netLat.String(), lat.String())
	}
	// The last message of the burst queued behind the earlier ones, so the
	// aggregate network latency must be STRICTLY below the total latency —
	// this is exactly what the old DeliveredAt-CreatedAt accounting got
	// wrong (it made the two samplers identical).
	if netLat.Sum() >= lat.Sum() {
		t.Errorf("network latency not strictly below total latency under source queueing: net sum %v, total sum %v",
			netLat.Sum(), lat.Sum())
	}
	// The first message of the burst injects immediately, so the smallest
	// network latency should differ from total latency by at most the
	// single-cycle injection offset.
	if lat.Min()-netLat.Min() > float64(burst) {
		t.Errorf("min network latency %v implausibly far from min total latency %v", netLat.Min(), lat.Min())
	}
}

// stepEngine drives the pattern through a fresh network with a plain
// cycle-by-cycle loop — no Drive, no leaping — as the per-cycle reference for
// the time-leap scheduling.
func stepEngine(t *testing.T, d mesh.Dim, design network.Design, pattern string, seed int64) run {
	t.Helper()
	net := network.MustNew(network.DefaultConfig(d, design))
	r := logDeliveries(net)
	gen := buildGen(t, pattern, d, seed)
	for i := 0; i < 1_000_000; i++ {
		sendAll(t, net, gen)
		if gen.Done() && net.Drained() {
			return r
		}
		net.Step()
	}
	t.Fatalf("%v/%s/seed=%d did not drain", design, pattern, seed)
	return r
}

// TestLeapMatchesStep pins the time-leap scheduling to the per-cycle loop:
// traffic.Drive (which leaps over event-idle windows, e.g. the gaps between
// permutation rounds) must reach exactly the same final cycle, delivery
// counts and delivery log as stepping every cycle. The permutation
// patterns have long idle gaps, so this exercises real leaps; the random
// patterns pin the no-leap-while-live rule.
func TestLeapMatchesStep(t *testing.T) {
	d := mesh.MustDim(4, 4)
	for _, design := range []network.Design{network.DesignRegular, network.DesignWaWWaP} {
		for _, pattern := range []string{"transpose", "neighbor", "hotspot", "uniform"} {
			t.Run(design.String()+"/"+pattern, func(t *testing.T) {
				ref := stepEngine(t, d, design, pattern, 5)
				leap := runStep(t, network.DefaultConfig(d, design), pattern, 5)
				if ref.Cycle() != leap.Cycle() {
					t.Errorf("cycles: stepped %d, leaping Drive %d", ref.Cycle(), leap.Cycle())
				}
				if ref.TotalDeliveredMessages() != leap.TotalDeliveredMessages() {
					t.Errorf("delivered: stepped %d, leaping Drive %d",
						ref.TotalDeliveredMessages(), leap.TotalDeliveredMessages())
				}
				compareLogs(t, "leap", "stepped", "leaping Drive", ref, leap)
			})
		}
	}
}

// TestRunLeapsIdleWindow checks the LeapTo/RunUntilDrained leap directly: an
// idle network must cross an arbitrarily long window in one jump (cycle
// counter advanced, WaW counters settled lazily) with state identical to the
// full-scan oracle, which steps through it.
func TestRunLeapsIdleWindow(t *testing.T) {
	leapsIdleWindow(t, network.DefaultConfig(mesh.MustDim(4, 4), network.DesignWaWWaP))
}

func leapsIdleWindow(t *testing.T, cfg network.Config) {
	t.Helper()
	ref, act := network.MustNewFullScan(cfg), network.MustNew(cfg)
	// One multi-flit burst so arbiters move off their power-on state.
	burst := func() *flit.Message {
		return &flit.Message{
			Flow:        flit.FlowID{Src: mesh.Node{X: 3, Y: 3}, Dst: mesh.Node{X: 0, Y: 0}},
			Class:       flit.ClassData,
			PayloadBits: traffic.CacheLinePayloadBits,
		}
	}
	if _, err := ref.Net.Send(burst()); err != nil {
		t.Fatal(err)
	}
	if _, err := act.Send(burst()); err != nil {
		t.Fatal(err)
	}
	if !ref.RunUntilDrained(10_000) || !act.RunUntilDrained(10_000) {
		t.Fatal("burst did not drain")
	}
	if ref.Net.Cycle() != act.Cycle() {
		t.Fatalf("drain cycle differs: full-scan %d, Step %d", ref.Net.Cycle(), act.Cycle())
	}
	if !act.Leapable() {
		t.Fatal("drained network not leapable")
	}
	const idle = 250_000
	ref.Run(idle)
	act.LeapTo(act.Cycle() + idle)
	if ref.Net.Cycle() != act.Cycle() {
		t.Fatalf("idle window cycle differs: full-scan %d, Step %d", ref.Net.Cycle(), act.Cycle())
	}
	act.FlushReplenishment()
	compareArbiterState(t, cfg.Dim, ref.Net, act, int(act.Cycle()))
}

// compareArbiterState asserts every WaW flit counter of every router matches
// between the two networks (the active-set one must be flushed first).
func compareArbiterState(t *testing.T, d mesh.Dim, ref, act *network.Network, cycle int) {
	t.Helper()
	for _, nd := range d.AllNodes() {
		rr, ra := ref.Router(nd), act.Router(nd)
		for _, dir := range mesh.Directions {
			wr, wa := rr.Arbiter(dir), ra.Arbiter(dir)
			if (wr == nil) != (wa == nil) {
				t.Fatalf("cycle %d node %v output %v: arbiter kinds differ", cycle, nd, dir)
			}
			if wr != nil && *wr != *wa {
				t.Fatalf("cycle %d node %v output %v: WaW arbiter full-scan %+v, Step %+v", cycle, nd, dir, *wr, *wa)
			}
		}
	}
}

// TestEnginesLockstepArbiterState steps Step and the oracle side by side and,
// after every cycle, flushes Step's lazy replenishment and compares every WaW
// flit counter against the full-scan reference. This pins the
// lazy-replenishment bookkeeping (and its credit/lock gating) to the hardware
// rule at cycle granularity.
func TestEnginesLockstepArbiterState(t *testing.T) {
	d := mesh.MustDim(4, 4)
	cfg := network.DefaultConfig(d, network.DesignWaWWaP)
	lockstep(t, cfg, "uniform", 9, 4000, func(cycle int, ref network.FullScan, act *network.Network) {
		act.FlushReplenishment()
		compareArbiterState(t, d, ref.Net, act, cycle)
	})
}

// TestResetMatchesFresh pins Network.Reset: after running an arbitrary
// workload, a reset network must reproduce a fresh network's behaviour
// exactly — same deliveries, same cycle counts, same delivery log —
// across designs and patterns. This is what makes the scenario layer's
// network reuse safe.
func TestResetMatchesFresh(t *testing.T) {
	for _, design := range allDesigns {
		for _, pattern := range []string{"hotspot", "uniform", "transpose"} {
			t.Run(design.String()+"/"+pattern, func(t *testing.T) {
				resetMatchesFresh(t, network.DefaultConfig(mesh.MustDim(4, 4), design), pattern)
			})
		}
	}
}

func resetMatchesFresh(t *testing.T, cfg network.Config, pattern string) {
	t.Helper()
	fresh := runStep(t, cfg, pattern, 3)

	reused := network.MustNew(cfg)
	// Dirty the network with a different workload, then rewind.
	dirty := buildGen(t, "uniform", cfg.Dim, 99)
	if _, done := traffic.Drive(reused, dirty, 1_000_000); !done {
		t.Fatal("dirtying run did not drain")
	}
	reused.Reset()
	if reused.Cycle() != 0 || !reused.Drained() || reused.DeliveryHook != nil ||
		reused.TotalInjectedFlits() != 0 || reused.TotalDeliveredMessages() != 0 ||
		reused.AggregateLatency().Count() != 0 {
		t.Fatal("Reset did not rewind the network to its initial state")
	}
	r := logDeliveries(reused)
	gen := buildGen(t, pattern, cfg.Dim, 3)
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
	if *fresh.AggregateLatency() != *reused.AggregateLatency() {
		t.Errorf("aggregate latency: fresh %v, reused %v", fresh.AggregateLatency(), reused.AggregateLatency())
	}
	compareLogs(t, "reset", "fresh", "reused", fresh, r)
}
