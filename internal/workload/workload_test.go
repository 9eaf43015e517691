package workload

import (
	"testing"

	"repro/internal/mesh"
)

func TestEEMBCProfilesValid(t *testing.T) {
	benches := EEMBCAutomotive()
	if len(benches) != 16 {
		t.Fatalf("expected 16 autobench kernels, got %d", len(benches))
	}
	seen := make(map[string]bool)
	for _, b := range benches {
		if err := b.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
		if seen[b.Name] {
			t.Errorf("duplicate benchmark %s", b.Name)
		}
		seen[b.Name] = true
		if b.ComputeCycles() == 0 {
			t.Errorf("%s: zero compute cycles", b.Name)
		}
		if b.MemoryAccesses() == 0 {
			t.Errorf("%s: zero memory accesses (every kernel misses sometimes)", b.Name)
		}
		if b.Evictions() > b.MemoryAccesses() {
			t.Errorf("%s: more evictions than accesses", b.Name)
		}
	}
	// The suite must contain both cache-friendly and memory-streaming
	// kernels so the normalised WCET map exercises both regimes.
	var minMiss, maxMiss float64
	for i, b := range benches {
		if i == 0 {
			minMiss, maxMiss = b.MissesPer1K, b.MissesPer1K
			continue
		}
		if b.MissesPer1K < minMiss {
			minMiss = b.MissesPer1K
		}
		if b.MissesPer1K > maxMiss {
			maxMiss = b.MissesPer1K
		}
	}
	if maxMiss/minMiss < 5 {
		t.Errorf("miss densities should span a wide range (min %.2f, max %.2f)", minMiss, maxMiss)
	}
}

func TestBenchmarkValidateErrors(t *testing.T) {
	cases := []Benchmark{
		{Name: "", Instructions: 1, CPI: 1},
		{Name: "x", Instructions: 0, CPI: 1},
		{Name: "x", Instructions: 1, CPI: 0},
		{Name: "x", Instructions: 1, CPI: 1, MissesPer1K: -1},
		{Name: "x", Instructions: 1, CPI: 1, EvictionRatio: 1.5},
	}
	for i, b := range cases {
		if err := b.Validate(); err == nil {
			t.Errorf("case %d should be invalid: %+v", i, b)
		}
	}
}

func TestBenchmarkByName(t *testing.T) {
	b, err := BenchmarkByName("matrix")
	if err != nil || b.Name != "matrix" {
		t.Errorf("lookup failed: %v %v", b, err)
	}
	if _, err := BenchmarkByName("doesnotexist"); err == nil {
		t.Error("unknown benchmark should fail")
	}
}

func TestBenchmarkDerivedCounts(t *testing.T) {
	b := Benchmark{Name: "x", Instructions: 1_000_000, CPI: 1.5, MissesPer1K: 2.0, EvictionRatio: 0.5}
	if got := b.ComputeCycles(); got != 1_500_000 {
		t.Errorf("ComputeCycles = %d", got)
	}
	if got := b.MemoryAccesses(); got != 2000 {
		t.Errorf("MemoryAccesses = %d", got)
	}
	if got := b.Evictions(); got != 1000 {
		t.Errorf("Evictions = %d", got)
	}
}

func TestThreeDPathPlanningModel(t *testing.T) {
	app := ThreeDPathPlanning()
	if err := app.Validate(); err != nil {
		t.Fatalf("3DPP model invalid: %v", err)
	}
	if app.Threads != 16 {
		t.Errorf("3DPP threads = %d, want 16 (the paper runs it on 16 cores)", app.Threads)
	}
	var compute uint64
	messages := 0
	for _, p := range app.Phases {
		compute += p.ComputeCycles
		messages += p.MessagesPerThread
	}
	if compute == 0 || messages == 0 {
		t.Error("3DPP must both compute and communicate")
	}
	// The model must exercise all three communication targets.
	targets := make(map[CommTarget]bool)
	for _, p := range app.Phases {
		targets[p.Target] = true
	}
	for _, want := range []CommTarget{TargetMemory, TargetMaster, TargetNeighbors} {
		if !targets[want] {
			t.Errorf("3DPP model misses a %v phase", want)
		}
	}
}

func TestParallelAppValidateErrors(t *testing.T) {
	good := ThreeDPathPlanning()
	bad := good
	bad.Name = ""
	if err := bad.Validate(); err == nil {
		t.Error("empty name should fail")
	}
	bad = good
	bad.Threads = 1
	if err := bad.Validate(); err == nil {
		t.Error("single thread should fail")
	}
	bad = good
	bad.Phases = nil
	if err := bad.Validate(); err == nil {
		t.Error("no phases should fail")
	}
	bad = good
	bad.Phases = []Phase{{Name: "", ComputeCycles: 1}}
	if err := bad.Validate(); err == nil {
		t.Error("unnamed phase should fail")
	}
	bad = good
	bad.Phases = []Phase{{Name: "p", MessagesPerThread: -1}}
	if err := bad.Validate(); err == nil {
		t.Error("negative message count should fail")
	}
	bad = good
	bad.Phases = []Phase{{Name: "p", MessagesPerThread: 1, RequestBits: 0, ReplyBits: 64}}
	if err := bad.Validate(); err == nil {
		t.Error("zero request size with messages should fail")
	}
}

func TestCommTargetString(t *testing.T) {
	if TargetMemory.String() != "memory" || TargetMaster.String() != "master" || TargetNeighbors.String() != "neighbors" {
		t.Error("target names wrong")
	}
	if CommTarget(9).String() != "CommTarget(9)" {
		t.Error("unknown target string")
	}
}

func TestStandardPlacements(t *testing.T) {
	d := mesh.MustDim(8, 8)
	ps, err := StandardPlacements(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 4 {
		t.Fatalf("expected 4 placements, got %d", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		if err := p.Validate(d); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if len(p.Nodes) != 16 {
			t.Errorf("%s: %d nodes, want 16", p.Name, len(p.Nodes))
		}
		names[p.Name] = true
	}
	for _, want := range []string{"P0", "P1", "P2", "P3"} {
		if !names[want] {
			t.Errorf("missing placement %s", want)
		}
	}
	// P0 must be closer to the memory controller at (0,0) than P2 (this
	// drives the placement-sensitivity result of Figure 2(b)).
	mem := mesh.Node{X: 0, Y: 0}
	dist := func(p Placement) int {
		total := 0
		for _, n := range p.Nodes {
			total += n.ManhattanDistance(mem)
		}
		return total
	}
	p0, _ := PlacementByName(d, "P0")
	p2, _ := PlacementByName(d, "P2")
	if dist(p0) >= dist(p2) {
		t.Errorf("P0 (total distance %d) should be closer to memory than P2 (%d)", dist(p0), dist(p2))
	}
}

func TestStandardPlacementsTooSmall(t *testing.T) {
	if _, err := StandardPlacements(mesh.MustDim(4, 4)); err == nil {
		t.Error("4x4 mesh cannot host the standard placements")
	}
}

func TestPlacementByName(t *testing.T) {
	d := mesh.MustDim(8, 8)
	if _, err := PlacementByName(d, "P9"); err == nil {
		t.Error("unknown placement should fail")
	}
	p, err := PlacementByName(d, "P3")
	if err != nil || p.Name != "P3" {
		t.Errorf("lookup failed: %v %v", p, err)
	}
	if _, err := PlacementByName(mesh.MustDim(2, 2), "P0"); err == nil {
		t.Error("too-small mesh should fail")
	}
}

func TestPlacementValidateErrors(t *testing.T) {
	d := mesh.MustDim(8, 8)
	if err := (Placement{Name: "", Nodes: []mesh.Node{{X: 0, Y: 0}}}).Validate(d); err == nil {
		t.Error("unnamed placement should fail")
	}
	if err := (Placement{Name: "p", Nodes: nil}).Validate(d); err == nil {
		t.Error("empty placement should fail")
	}
	if err := (Placement{Name: "p", Nodes: []mesh.Node{{X: 9, Y: 0}}}).Validate(d); err == nil {
		t.Error("node outside mesh should fail")
	}
	if err := (Placement{Name: "p", Nodes: []mesh.Node{{X: 1, Y: 1}, {X: 1, Y: 1}}}).Validate(d); err == nil {
		t.Error("duplicate node should fail")
	}
}
