package manycore

import (
	"testing"

	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/workload"
)

func node(x, y int) mesh.Node { return mesh.Node{X: x, Y: y} }

// MustNew is New for constant arguments; it panics on error.
func MustNew(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// tinyBenchmark is a scaled-down profile that keeps tests fast while still
// exercising the NoC (a few dozen memory transactions per core).
func tinyBenchmark() workload.Benchmark {
	return workload.Benchmark{
		Name:          "tiny",
		Instructions:  4000,
		CPI:           1.2,
		MissesPer1K:   8,
		EvictionRatio: 0.5,
	}
}

func TestConfigValidate(t *testing.T) {
	cfg := DefaultConfig(mesh.MustDim(4, 4), network.DesignRegular)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := cfg
	bad.MemoryNodes = nil
	if err := bad.Validate(); err == nil {
		t.Error("no memory controllers should fail")
	}
	bad = cfg
	bad.MemoryNodes = []mesh.Node{{X: 9, Y: 9}}
	if err := bad.Validate(); err == nil {
		t.Error("memory outside mesh should fail")
	}
	bad = cfg
	bad.MemoryNodes = []mesh.Node{{X: 0, Y: 0}, {X: 0, Y: 0}}
	if err := bad.Validate(); err == nil {
		t.Error("duplicate memory controllers should fail")
	}
	bad = cfg
	bad.MemCtrl.ReplyPayloadBits = 0
	if err := bad.Validate(); err == nil {
		t.Error("invalid memctrl config should fail")
	}
	bad = cfg
	bad.Network.BufferDepth = 0
	if err := bad.Validate(); err == nil {
		t.Error("invalid network config should fail")
	}
	if _, err := New(bad); err == nil {
		t.Error("New should reject invalid config")
	}
}

func TestAssignBenchmarkValidation(t *testing.T) {
	s := MustNew(DefaultConfig(mesh.MustDim(3, 3), network.DesignRegular))
	if err := s.AssignBenchmark(node(9, 9), tinyBenchmark()); err == nil {
		t.Error("node outside mesh should fail")
	}
	if err := s.AssignBenchmark(node(1, 1), workload.Benchmark{}); err == nil {
		t.Error("invalid benchmark should fail")
	}
	if err := s.AssignBenchmark(node(1, 1), tinyBenchmark()); err != nil {
		t.Fatal(err)
	}
	if err := s.AssignBenchmark(node(1, 1), tinyBenchmark()); err == nil {
		t.Error("double assignment should fail")
	}
	if _, err := s.CoreStats(node(2, 2)); err == nil {
		t.Error("stats for an unassigned node should fail")
	}
}

func TestSingleCoreRunCompletes(t *testing.T) {
	for _, design := range []network.Design{network.DesignRegular, network.DesignWaWWaP} {
		s := MustNew(DefaultConfig(mesh.MustDim(4, 4), design))
		if err := s.AssignBenchmark(node(3, 3), tinyBenchmark()); err != nil {
			t.Fatal(err)
		}
		if s.Finished() {
			t.Fatal("system should not be finished before running")
		}
		if !s.Run(2_000_000) {
			t.Fatalf("%v: single core did not finish", design)
		}
		st, err := s.CoreStats(node(3, 3))
		if err != nil {
			t.Fatal(err)
		}
		if !st.Finished || st.FinishedAt == 0 {
			t.Errorf("%v: core not finished: %+v", design, st)
		}
		if st.MemoryTransactions == 0 {
			t.Errorf("%v: core issued no memory traffic", design)
		}
		// The execution must take longer than the pure compute time (the
		// memory round trips are on the critical path of a blocking core).
		if st.FinishedAt <= tinyBenchmark().ComputeCycles() {
			t.Errorf("%v: finish time %d not above compute cycles %d", design, st.FinishedAt, tinyBenchmark().ComputeCycles())
		}
		if s.MakespanCycles() != st.FinishedAt {
			t.Errorf("makespan %d != finish time %d", s.MakespanCycles(), st.FinishedAt)
		}
	}
}

func TestCoreWithoutMissesFinishesInComputeTime(t *testing.T) {
	b := workload.Benchmark{Name: "pure-compute", Instructions: 2000, CPI: 1.0, MissesPer1K: 0}
	s := MustNew(DefaultConfig(mesh.MustDim(3, 3), network.DesignRegular))
	if err := s.AssignBenchmark(node(2, 2), b); err != nil {
		t.Fatal(err)
	}
	if !s.Run(10_000) {
		t.Fatal("pure-compute core did not finish")
	}
	st, _ := s.CoreStats(node(2, 2))
	if st.MemoryTransactions != 0 {
		t.Errorf("pure-compute core issued %d transactions", st.MemoryTransactions)
	}
	// Allow a couple of cycles of slack for the end-of-execution detection.
	if st.FinishedAt > b.ComputeCycles()+3 {
		t.Errorf("finish time %d, want about %d", st.FinishedAt, b.ComputeCycles())
	}
}

func TestColocatedCoreUsesMemoryDirectly(t *testing.T) {
	s := MustNew(DefaultConfig(mesh.MustDim(3, 3), network.DesignRegular))
	if err := s.AssignBenchmark(node(0, 0), tinyBenchmark()); err != nil {
		t.Fatal(err)
	}
	if !s.Run(1_000_000) {
		t.Fatal("co-located core did not finish")
	}
	// No NoC traffic should have been generated: the co-located core talks
	// to its controller directly.
	if s.net.TotalInjectedFlits() != 0 {
		t.Errorf("co-located core injected %d flits into the NoC", s.net.TotalInjectedFlits())
	}
}

func TestFullSystemAllCoresFinish(t *testing.T) {
	for _, design := range []network.Design{network.DesignRegular, network.DesignWaWWaP} {
		s := MustNew(DefaultConfig(mesh.MustDim(4, 4), design))
		if err := s.AssignEverywhere(tinyBenchmark()); err != nil {
			t.Fatal(err)
		}
		if !s.Run(5_000_000) {
			t.Fatalf("%v: not all cores finished (cycle %d)", design, s.Cycle())
		}
		for _, n := range mesh.MustDim(4, 4).AllNodes() {
			st, err := s.CoreStats(n)
			if err != nil {
				t.Fatal(err)
			}
			if !st.Finished {
				t.Errorf("%v: core %v unfinished", design, n)
			}
		}
		if s.MakespanCycles() == 0 {
			t.Errorf("%v: zero makespan", design)
		}
	}
}

// The average-performance claim of the paper: running the same multi-core
// workload on WaW+WaP instead of the regular design costs only a small
// slowdown (the paper reports < 1%; we allow a few percent for the scaled
// workload, which stresses the NoC much more per compute cycle than the real
// suite does).
func TestWaWWaPAveragePerformanceDegradationSmall(t *testing.T) {
	run := func(design network.Design) uint64 {
		s := MustNew(DefaultConfig(mesh.MustDim(4, 4), design))
		if err := s.AssignEverywhere(tinyBenchmark(), node(0, 0)); err != nil {
			t.Fatal(err)
		}
		if !s.Run(10_000_000) {
			t.Fatalf("%v: workload did not finish", design)
		}
		return s.MakespanCycles()
	}
	regular := run(network.DesignRegular)
	waw := run(network.DesignWaWWaP)
	degradation := float64(waw)/float64(regular) - 1
	if degradation > 0.10 {
		t.Errorf("WaW+WaP average-performance degradation = %.1f%%, expected small (paper: <1%%); regular=%d waw=%d",
			degradation*100, regular, waw)
	}
	// And WaW+WaP must not mysteriously become much faster either (it adds
	// packetization overhead, it does not remove work).
	if degradation < -0.10 {
		t.Errorf("WaW+WaP unexpectedly faster by %.1f%%: regular=%d waw=%d", -degradation*100, regular, waw)
	}
}

func TestScaleBenchmark(t *testing.T) {
	b := workload.Benchmark{Name: "x", Instructions: 1_000_000, CPI: 1.2, MissesPer1K: 2}
	s := ScaleBenchmark(b, 100)
	if s.Instructions != 10_000 {
		t.Errorf("scaled instructions = %d", s.Instructions)
	}
	if s.CPI != b.CPI || s.MissesPer1K != b.MissesPer1K {
		t.Error("scaling must not change per-instruction characteristics")
	}
	if ScaleBenchmark(b, 0).Instructions != b.Instructions {
		t.Error("factor < 1 should be clamped to 1")
	}
	if ScaleBenchmark(b, 10_000_000).Instructions != 1000 {
		t.Error("scaling floors at 1000 instructions")
	}
}
