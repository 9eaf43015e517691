// Allocation-regression tests for the zero-allocation cycle loop: the
// drained-network Step and the full steady-state injection loop (generator
// tick, Send, Step) must stay at 0 allocs/op, so the flit/message pooling
// and the scratch-buffer reuse cannot silently regress. Under -race the
// workloads still run (data-race coverage for the pooled paths) but the
// alloc counts are not asserted — the race instrumentation allocates.
package network_test

import (
	"runtime"
	"testing"

	"repro/internal/flit"
	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/traffic"
)

// assertAllocsPerRun runs fn through testing.AllocsPerRun and asserts the
// average is zero (outside -race builds).
func assertAllocsPerRun(t *testing.T, what string, runs int, fn func()) {
	t.Helper()
	allocs := testing.AllocsPerRun(runs, fn)
	if raceEnabled {
		t.Logf("%s: %v allocs/op (not asserted under -race)", what, allocs)
		return
	}
	if allocs != 0 {
		t.Errorf("%s: %v allocs/op, want 0", what, allocs)
	}
}

// TestStepZeroAllocsDrained: stepping an empty network must not allocate,
// for Step (with the inert Config.Shards unset and set) and for the
// full-scan oracle.
func TestStepZeroAllocsDrained(t *testing.T) {
	cfg := network.DefaultConfig(mesh.MustDim(8, 8), network.DesignWaWWaP)
	for _, c := range []struct {
		name   string
		shards int
	}{{"active-set", 0}, {"sharded", 4}} {
		t.Run(c.name, func(t *testing.T) {
			cfg := cfg
			cfg.Shards = c.shards
			net := network.MustNew(cfg)
			net.Step() // settle the initial all-active visit list
			assertAllocsPerRun(t, "drained Step", 1000, net.Step)
		})
	}
	t.Run("full-scan", func(t *testing.T) {
		ref := network.MustNewFullScan(cfg)
		assertAllocsPerRun(t, "drained full-scan Step", 1000, ref.Step)
	})
}

// TestStepZeroAllocsSteadyState drives a sustained pooled-injection workload
// to steady state and then asserts the whole per-cycle loop — generator
// tick, message Send and network Step — performs no heap allocations: the
// pool recycles every message and flit, and the NIC queues and router FIFOs
// reuse their backing arrays.
func TestStepZeroAllocsSteadyState(t *testing.T) {
	for _, design := range []network.Design{network.DesignRegular, network.DesignWaWWaP} {
		t.Run(design.String(), func(t *testing.T) {
			d := mesh.MustDim(4, 4)
			net := network.MustNew(network.DefaultConfig(d, design))
			testSteadyStateZeroAllocs(t, d, net)
		})
	}
	t.Run("sharded", func(t *testing.T) { // Config.Shards is inert: same loop
		d := mesh.MustDim(4, 4)
		cfg := network.DefaultConfig(d, network.DesignWaWWaP)
		cfg.Shards = 4
		testSteadyStateZeroAllocs(t, d, network.MustNew(cfg))
	})
	// Near saturation (an 8x8 mesh accepts about 350 uniform one-flit
	// msgs/node/kcycle) every router forwards on several ports and every
	// input ring wraps every few cycles; the ring FIFOs and the transfer
	// scratch must still allocate nothing.
	for _, design := range []network.Design{network.DesignRegular, network.DesignWaWWaP} {
		t.Run("near-saturation/"+design.String(), func(t *testing.T) {
			d := mesh.MustDim(8, 8)
			gen, err := traffic.NewUniformRandom(d, 5, 300, traffic.RequestPayloadBits, 1<<30)
			if err != nil {
				t.Fatal(err)
			}
			testGeneratorZeroAllocs(t, network.MustNew(network.DefaultConfig(d, design)), gen)
		})
	}
}

func testSteadyStateZeroAllocs(t *testing.T, d mesh.Dim, net *network.Network) {
	t.Helper()
	// The rate must keep the all-to-one pattern below saturation
	// (the ejection port drains one flit per cycle) or the source
	// queues grow without bound and never reach a steady state.
	gen, err := traffic.NewHotspot(d, mesh.Node{X: 0, Y: 0}, 11, 1, traffic.CacheLinePayloadBits, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	testGeneratorZeroAllocs(t, net, gen)
}

// injectionLoop attaches gen to net's pool and returns one cycle of the
// pooled injection loop: generator tick, Send, Step.
func injectionLoop(t *testing.T, net *network.Network, gen traffic.Generator) func() {
	t.Helper()
	traffic.AttachNetworkPool(gen, net)
	return func() {
		for _, msg := range gen.Tick(net.Cycle()) {
			if _, err := net.Send(msg); err != nil {
				t.Fatal(err)
			}
		}
		net.Step()
	}
}

func testGeneratorZeroAllocs(t *testing.T, net *network.Network, gen traffic.Generator) {
	t.Helper()
	cycle := injectionLoop(t, net, gen)
	// Warm up: grow every queue and scratch buffer to its steady-state
	// capacity, and fill the pools.
	for i := 0; i < 5000; i++ {
		cycle()
	}
	assertAllocsPerRun(t, "steady-state tick+send+step", 2000, cycle)
	if net.TotalDeliveredMessages() == 0 {
		t.Fatal("workload delivered nothing; the assertion covered an idle loop")
	}
}

// TestStepNoAllocsColdFlows closes the blind spot of the tests above:
// testing.AllocsPerRun reports a truncated integer average, so an allocation
// on a small share of cycles reads as 0, and their warm-up covers every flow
// first. At sim-sparse's point (16x16, 2 msgs/node/kcycle) most deliveries
// are on a flow that has not delivered before. Past a short warm-up the
// injection loop is counted with runtime.MemStats over 20 000 cycles and
// must stay below 64 mallocs in total, while delivering at least 10 000
// messages.
func TestStepNoAllocsColdFlows(t *testing.T) {
	for _, design := range []network.Design{network.DesignRegular, network.DesignWaWWaP} {
		t.Run(design.String(), func(t *testing.T) {
			d := mesh.MustDim(16, 16)
			net := network.MustNew(network.DefaultConfig(d, design))
			gen, err := traffic.NewUniformRandom(d, 1, 2, traffic.RequestPayloadBits, 1<<30)
			if err != nil {
				t.Fatal(err)
			}
			cycle := injectionLoop(t, net, gen)
			for i := 0; i < 2000; i++ {
				cycle()
			}
			delivered := net.TotalDeliveredMessages()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < 20_000; i++ {
				cycle()
			}
			runtime.ReadMemStats(&after)
			delivered = net.TotalDeliveredMessages() - delivered
			mallocs := after.Mallocs - before.Mallocs
			if delivered < 10_000 {
				t.Fatalf("%d deliveries in the counted window, want at least 10 000", delivered)
			}
			if raceEnabled {
				t.Logf("%d mallocs for %d deliveries (not asserted under -race)", mallocs, delivered)
				return
			}
			if mallocs >= 64 {
				t.Errorf("%d mallocs for %d deliveries, want fewer than 64", mallocs, delivered)
			}
		})
	}
}

// TestResetReleasesInFlightRecords interrupts a 5-packet WaP cache line and a
// 4-flit regular one mid-flight, with more lines queued behind them, and
// resets: every in-flight record and queue block must go back to the pool.
// After each reset the network is drained and partial-free and the pool's
// record slab is empty, and a thousand interrupted rounds take almost no
// allocation (a leaked queue block would be allocated afresh, two a round).
func TestResetReleasesInFlightRecords(t *testing.T) {
	for _, design := range []network.Design{network.DesignWaWWaP, network.DesignRegular} {
		t.Run(design.String(), func(t *testing.T) {
			net := network.MustNew(network.DefaultConfig(mesh.MustDim(4, 4), design))
			src, dst := mesh.Node{X: 0, Y: 0}, mesh.Node{X: 1, Y: 0}
			msg := &flit.Message{Flow: flit.FlowID{Src: src, Dst: dst}, PayloadBits: traffic.CacheLinePayloadBits}
			round := func() {
				for i := 0; i < 40; i++ { // two blocks of queued lines
					msg.ID = 0
					if _, err := net.Send(msg); err != nil {
						t.Fatal(err)
					}
				}
				for net.NIC(dst).PendingReassemblies() == 0 {
					net.Step()
				}
				net.Step() // one more flit of the line arrives
				if net.NIC(dst).PendingReassemblies() != 1 || net.Pool().Record(0) == nil {
					t.Fatal("the first line is not partly delivered")
				}
				net.Reset()
				if !net.Drained() || net.NIC(dst).PendingReassemblies() != 0 || net.NIC(src).PendingMessages() != 0 ||
					net.Pool().Record(0) != nil {
					t.Fatal("Reset left a message queued, in flight or partly delivered")
				}
			}
			round()
			// Counted on one processor, as testing.AllocsPerRun counts: across
			// every processor runtime.MemStats.Mallocs also picks up
			// allocations made elsewhere in the process.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := 0; i < 1000; i++ {
				round()
			}
			runtime.ReadMemStats(&after)
			if mallocs := after.Mallocs - before.Mallocs; mallocs >= 64 && !raceEnabled {
				t.Errorf("1000 interrupted rounds made %d allocations, want fewer than 64", mallocs)
			}
		})
	}
}
