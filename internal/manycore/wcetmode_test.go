package manycore

import (
	"testing"

	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/workload"
)

func TestWCETModeEnableAndRun(t *testing.T) {
	s := MustNew(DefaultConfig(mesh.MustDim(4, 4), network.DesignWaWWaP))
	if s.WCETModeEnabled() {
		t.Fatal("WCET mode should be off by default")
	}
	if err := s.AssignBenchmark(mesh.Node{X: 3, Y: 3}, tinyBenchmark()); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableWCETMode(); err != nil {
		t.Fatal(err)
	}
	if !s.WCETModeEnabled() {
		t.Fatal("WCET mode should be on after EnableWCETMode")
	}
	if !s.Run(20_000_000) {
		t.Fatal("WCET-mode run did not finish")
	}
	// No NoC traffic is generated in WCET mode: delays come from the
	// analytical bound, not from simulated packets.
	if s.net.TotalInjectedFlits() != 0 {
		t.Errorf("WCET mode injected %d flits into the NoC", s.net.TotalInjectedFlits())
	}
	st, err := s.CoreStats(mesh.Node{X: 3, Y: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.MemoryTransactions == 0 {
		t.Error("WCET-mode run should still account the memory transactions")
	}
}

// The execution time observed in WCET computation mode must upper-bound the
// execution time of the same core in normal operation, for both designs and
// regardless of the co-runner load: that is the time-composability argument
// of the paper.
func TestWCETModeUpperBoundsActualExecution(t *testing.T) {
	for _, design := range []network.Design{network.DesignRegular, network.DesignWaWWaP} {
		target := mesh.Node{X: 2, Y: 2}
		bench := tinyBenchmark()

		// Normal operation with every other core also loading the NoC.
		normal := MustNew(DefaultConfig(mesh.MustDim(3, 3), design))
		if err := normal.AssignEverywhere(bench); err != nil {
			t.Fatal(err)
		}
		if !normal.Run(20_000_000) {
			t.Fatalf("%v: normal run did not finish", design)
		}
		normalStats, err := normal.CoreStats(target)
		if err != nil {
			t.Fatal(err)
		}

		// WCET computation mode for the same core alone.
		analysed := MustNew(DefaultConfig(mesh.MustDim(3, 3), design))
		if err := analysed.AssignBenchmark(target, bench); err != nil {
			t.Fatal(err)
		}
		if err := analysed.EnableWCETMode(); err != nil {
			t.Fatal(err)
		}
		if !analysed.Run(200_000_000) {
			t.Fatalf("%v: WCET-mode run did not finish", design)
		}
		wcetStats, err := analysed.CoreStats(target)
		if err != nil {
			t.Fatal(err)
		}

		if wcetStats.FinishedAt < normalStats.FinishedAt {
			t.Errorf("%v: WCET-mode estimate (%d cycles) below the observed execution time under load (%d cycles)",
				design, wcetStats.FinishedAt, normalStats.FinishedAt)
		}
	}
}

// In WCET mode the regular design's estimate for a far core must dwarf the
// WaW+WaP one — the simulation-level counterpart of Table III.
func TestWCETModeRegularVsWaWForFarCore(t *testing.T) {
	measure := func(design network.Design) uint64 {
		s := MustNew(DefaultConfig(mesh.MustDim(8, 8), design))
		far := mesh.Node{X: 7, Y: 7}
		bench := workload.Benchmark{Name: "probe", Instructions: 2000, CPI: 1.0, MissesPer1K: 1}
		if err := s.AssignBenchmark(far, bench); err != nil {
			t.Fatal(err)
		}
		if err := s.EnableWCETMode(); err != nil {
			t.Fatal(err)
		}
		if !s.Run(2_000_000_000) {
			t.Fatalf("%v: WCET-mode run did not finish", design)
		}
		st, _ := s.CoreStats(far)
		return st.FinishedAt
	}
	regular := measure(network.DesignRegular)
	waw := measure(network.DesignWaWWaP)
	if regular < 10*waw {
		t.Errorf("far core WCET-mode estimate: regular %d should be at least 10x the WaW+WaP one %d", regular, waw)
	}
}

func TestWCETModeInvalidPlatform(t *testing.T) {
	cfg := DefaultConfig(mesh.MustDim(2, 2), network.DesignRegular)
	s := MustNew(cfg)
	if err := s.AssignBenchmark(mesh.Node{X: 1, Y: 1}, tinyBenchmark()); err != nil {
		t.Fatal(err)
	}
	// Corrupt the link configuration after construction so the analytical
	// model cannot be built.
	s.cfg.Network.Link.WidthBits = 0
	if err := s.EnableWCETMode(); err == nil {
		t.Error("EnableWCETMode should fail when the analytical model cannot be built")
	}
}
