package wcet

import (
	"context"
	"testing"

	"repro/internal/analysis"
	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/workload"
)

func node(x, y int) mesh.Node { return mesh.Node{X: x, Y: y} }

// mustEngine compiles the platform's engine for maximum packet size l
// (0 = platform default).
func mustEngine(t *testing.T, p Platform, l int) *Engine {
	t.Helper()
	e, err := p.CompileEngine(l, analysis.NewModel)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// figure2Millis returns the two bars of one Figure 2 group: the application's
// WCET estimate in milliseconds under the regular and the WaW+WaP design.
func figure2Millis(t *testing.T, e *Engine, app workload.ParallelApp, pl workload.Placement) (regularMs, wawWaPMs float64) {
	t.Helper()
	reg, err := e.ParallelWCET(network.DesignRegular, app, pl)
	if err != nil {
		t.Fatal(err)
	}
	waw, err := e.ParallelWCET(network.DesignWaWWaP, app, pl)
	if err != nil {
		t.Fatal(err)
	}
	return e.Platform().CyclesToMillis(reg), e.Platform().CyclesToMillis(waw)
}

func TestPlatformValidate(t *testing.T) {
	if err := DefaultPlatform().Validate(); err != nil {
		t.Fatalf("default platform invalid: %v", err)
	}
	p := DefaultPlatform()
	p.Memory = node(9, 9)
	if err := p.Validate(); err == nil {
		t.Error("memory outside mesh should fail")
	}
	p = DefaultPlatform()
	p.MemoryLatency = -1
	if err := p.Validate(); err == nil {
		t.Error("negative memory latency should fail")
	}
	p = DefaultPlatform()
	p.ClockMHz = 0
	if err := p.Validate(); err == nil {
		t.Error("zero clock should fail")
	}
	p = DefaultPlatform()
	p.ReplyBits = 0
	if err := p.Validate(); err == nil {
		t.Error("zero payload should fail")
	}
	p = DefaultPlatform()
	p.Link.WidthBits = 0
	if err := p.Validate(); err == nil {
		t.Error("invalid link should fail")
	}
	p = DefaultPlatform()
	p.Dim = mesh.Dim{}
	if err := p.Validate(); err == nil {
		t.Error("invalid dim should fail")
	}
}

func TestCyclesToMillis(t *testing.T) {
	p := DefaultPlatform() // 500 MHz -> 500000 cycles per ms
	if got := p.CyclesToMillis(500000); got != 1.0 {
		t.Errorf("500000 cycles = %v ms, want 1", got)
	}
	if got := p.CyclesToMillis(0); got != 0 {
		t.Errorf("0 cycles = %v ms", got)
	}
}

func TestBenchmarkWCETBasics(t *testing.T) {
	p := mustEngine(t, DefaultPlatform(), 0)
	bench, err := workload.BenchmarkByName("matrix")
	if err != nil {
		t.Fatal(err)
	}
	// Validation errors.
	if _, err := p.BenchmarkWCET(context.Background(), network.DesignRegular, node(9, 9), bench); err == nil {
		t.Error("core outside mesh should fail")
	}
	if _, err := p.BenchmarkWCET(context.Background(), network.DesignRegular, node(1, 1), workload.Benchmark{}); err == nil {
		t.Error("invalid benchmark should fail")
	}
	// The WCET must exceed the pure compute time (the NoC adds delay) for
	// every design.
	for _, design := range []network.Design{network.DesignRegular, network.DesignWaWWaP} {
		w, err := p.BenchmarkWCET(context.Background(), design, node(3, 3), bench)
		if err != nil {
			t.Fatal(err)
		}
		if w <= bench.ComputeCycles() {
			t.Errorf("%v: WCET %d not above compute %d", design, w, bench.ComputeCycles())
		}
	}
	// A far core must have a (much) larger regular-design WCET than a near
	// core, while under WaW+WaP the difference must be comparatively small.
	farReg, _ := p.BenchmarkWCET(context.Background(), network.DesignRegular, node(7, 7), bench)
	nearReg, _ := p.BenchmarkWCET(context.Background(), network.DesignRegular, node(1, 0), bench)
	farWaw, _ := p.BenchmarkWCET(context.Background(), network.DesignWaWWaP, node(7, 7), bench)
	nearWaw, _ := p.BenchmarkWCET(context.Background(), network.DesignWaWWaP, node(1, 0), bench)
	if farReg <= nearReg {
		t.Error("regular WCET should grow with distance to memory")
	}
	regRatio := float64(farReg) / float64(nearReg)
	wawRatio := float64(farWaw) / float64(nearWaw)
	if regRatio < 10*wawRatio {
		t.Errorf("regular far/near ratio (%.1f) should dwarf the WaW+WaP one (%.2f)", regRatio, wawRatio)
	}
}

// Table III structure: cores next to the memory controller see normalised
// WCET slightly above 1 (the regular design is better there), far-away cores
// see values orders of magnitude below 1, and the number of cores that lose
// with WaW+WaP is a small minority (the paper reports 11 of 64).
func TestTableIIIShape(t *testing.T) {
	table, err := mustEngine(t, DefaultPlatform(), 0).TableIIIParallel(context.Background(), workload.EEMBCAutomotive(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(table) != 8 || len(table[0]) != 8 {
		t.Fatalf("table is %dx%d, want 8x8", len(table), len(table[0]))
	}
	worse := 0
	for y := range table {
		for x := range table[y] {
			v := table[y][x]
			if v <= 0 {
				t.Fatalf("cell (%d,%d) = %v, must be positive", x, y, v)
			}
			if v > 1 {
				worse++
			}
		}
	}
	if worse == 0 {
		t.Error("some cores near the memory controller should be better off with the regular design (paper: 11 of 64)")
	}
	if worse > 20 {
		t.Errorf("%d of 64 cores prefer the regular design; expected a small minority (paper: 11)", worse)
	}
	// The core next to the memory controller must be among the losers, and
	// the slowdown there must stay bounded (paper: at most about 1.5x).
	if table[0][1] <= 1 {
		t.Errorf("core (1,0) next to the memory controller should prefer the regular design, got %.3f", table[0][1])
	}
	if table[0][1] > 3 {
		t.Errorf("slowdown at (1,0) = %.3f, expected bounded (paper: at most ~1.5)", table[0][1])
	}
	// The far corner must gain orders of magnitude.
	if table[7][7] > 0.05 {
		t.Errorf("far corner normalised WCET = %.4f, expected << 1 (paper: 0.0008)", table[7][7])
	}
	// Values must (weakly) decrease away from the memory controller along
	// the first row and the first column (paths of uniform structure): the
	// farther the core, the more WaW+WaP helps. The co-located core at
	// (0,0) is excluded (it uses the local-access bound).
	for x := 2; x < 8; x++ {
		if table[0][x] > table[0][x-1]*1.05 {
			t.Errorf("row 0: normalised WCET should decrease away from the memory: cell (%d,0)=%.4f > cell (%d,0)=%.4f",
				x, table[0][x], x-1, table[0][x-1])
		}
	}
	for y := 2; y < 8; y++ {
		if table[y][0] > table[y-1][0]*1.05 {
			t.Errorf("column 0: normalised WCET should decrease away from the memory: cell (0,%d)=%.4f > cell (0,%d)=%.4f",
				y, table[y][0], y-1, table[y-1][0])
		}
	}
}

func TestTableIIIErrors(t *testing.T) {
	p := DefaultPlatform()
	if _, err := p.TableIIIParallel(context.Background(), nil, 0); err == nil {
		t.Error("empty suite should fail")
	}
	p.Dim = mesh.Dim{}
	if _, err := p.TableIIIParallel(context.Background(), workload.EEMBCAutomotive(), 0); err == nil {
		t.Error("invalid platform should fail")
	}
}

func TestParallelWCETValidation(t *testing.T) {
	p := DefaultPlatform()
	app := workload.ThreeDPathPlanning()
	placements, err := workload.StandardPlacements(p.Dim)
	if err != nil {
		t.Fatal(err)
	}
	e := mustEngine(t, p, 1)
	if _, err := e.ParallelWCET(network.DesignRegular, workload.ParallelApp{}, placements[0]); err == nil {
		t.Error("invalid app should fail")
	}
	if _, err := e.ParallelWCET(network.DesignRegular, app, workload.Placement{Name: "bad", Nodes: []mesh.Node{{X: 0, Y: 0}}}); err == nil {
		t.Error("placement smaller than the thread count should fail")
	}
	if _, err := e.ParallelWCET(network.DesignRegular, app, workload.Placement{}); err == nil {
		t.Error("invalid placement should fail")
	}
	w, err := e.ParallelWCET(network.DesignWaWWaP, app, placements[0])
	if err != nil {
		t.Fatal(err)
	}
	var compute uint64
	for _, p := range app.Phases {
		compute += p.ComputeCycles
	}
	if w <= compute {
		t.Errorf("parallel WCET %d should exceed the pure compute %d", w, compute)
	}
}

// Figure 2(a): the WaW+WaP design outperforms the regular design for every
// maximum packet size, and its advantage grows with the packet size (the
// paper reports 1.4x at L1 up to 3.9x at L8). The WaW+WaP WCET itself must be
// essentially insensitive to the maximum packet size.
func TestFigure2aShape(t *testing.T) {
	p := DefaultPlatform()
	app := workload.ThreeDPathPlanning()
	p0, err := workload.PlacementByName(p.Dim, "P0")
	if err != nil {
		t.Fatal(err)
	}
	var points []Figure2aPoint
	for _, l := range []int{1, 4, 8} {
		pt := Figure2aPoint{MaxPacketFlits: l}
		pt.RegularMs, pt.WaWWaPMs = figure2Millis(t, mustEngine(t, p, l), app, p0)
		points = append(points, pt)
	}
	for _, pt := range points {
		if pt.RegularMs <= 0 || pt.WaWWaPMs <= 0 {
			t.Fatalf("non-positive WCET estimate: %+v", pt)
		}
		if pt.Improvement() <= 1 {
			t.Errorf("L%d: WaW+WaP should outperform the regular design, improvement %.2f", pt.MaxPacketFlits, pt.Improvement())
		}
	}
	if !(points[0].Improvement() < points[1].Improvement() && points[1].Improvement() < points[2].Improvement()) {
		t.Errorf("improvement should grow with the maximum packet size: %.2f, %.2f, %.2f",
			points[0].Improvement(), points[1].Improvement(), points[2].Improvement())
	}
	// WaW+WaP is insensitive to L (within 1%).
	base := points[0].WaWWaPMs
	for _, pt := range points[1:] {
		rel := pt.WaWWaPMs/base - 1
		if rel < -0.01 || rel > 0.01 {
			t.Errorf("WaW+WaP WCET should not depend on the maximum packet size: L1=%.3f ms, L%d=%.3f ms",
				base, pt.MaxPacketFlits, pt.WaWWaPMs)
		}
	}
	if _, err := p.CompileEngine(-1, analysis.NewModel); err == nil {
		t.Error("invalid packet size should fail")
	}
}

// Figure 2(b): under the regular design the WCET varies wildly across
// placements, under WaW+WaP it stays within a narrow band, and WaW+WaP wins
// for every placement.
func TestFigure2bShape(t *testing.T) {
	p := DefaultPlatform()
	app := workload.ThreeDPathPlanning()
	placements, err := workload.StandardPlacements(p.Dim)
	if err != nil {
		t.Fatal(err)
	}
	if len(placements) != 4 {
		t.Fatalf("expected 4 placements, got %d", len(placements))
	}
	e := mustEngine(t, p, 1)
	var points []Figure2bPoint
	for _, pl := range placements {
		pt := Figure2bPoint{Placement: pl.Name}
		pt.RegularMs, pt.WaWWaPMs = figure2Millis(t, e, app, pl)
		points = append(points, pt)
	}
	var regs, waws []float64
	for _, pt := range points {
		if pt.WaWWaPMs >= pt.RegularMs {
			t.Errorf("%s: WaW+WaP (%.3f ms) should beat the regular design (%.3f ms)", pt.Placement, pt.WaWWaPMs, pt.RegularMs)
		}
		regs = append(regs, pt.RegularMs)
		waws = append(waws, pt.WaWWaPMs)
	}
	regVar := Variability(regs)
	wawVar := Variability(waws)
	if regVar < 3 {
		t.Errorf("regular-design WCET should vary strongly across placements (paper: >6x), got %.2fx", regVar)
	}
	if wawVar > 1.6 {
		t.Errorf("WaW+WaP WCET should vary little across placements (paper: ~20%%), got %.2fx", wawVar)
	}
	if wawVar >= regVar {
		t.Errorf("WaW+WaP variability (%.2fx) should be far below the regular one (%.2fx)", wawVar, regVar)
	}
}

func TestVariability(t *testing.T) {
	if Variability(nil) != 0 {
		t.Error("empty variability should be 0")
	}
	if Variability([]float64{0, 1}) != 0 {
		t.Error("zero minimum should return 0")
	}
	if got := Variability([]float64{2, 4, 3}); got != 2 {
		t.Errorf("variability = %v, want 2", got)
	}
}

// TestTableIIIParallelDeterminism pins the parallelised Table III loop to
// its serial output: the per-core averages accumulate in suite order inside
// each core's task and land in index-addressed slots, so the map must be
// bit-identical for one worker and for many.
func TestTableIIIParallelDeterminism(t *testing.T) {
	p := DefaultPlatform()
	suite := workload.EEMBCAutomotive()
	serial, err := p.TableIIIParallel(context.Background(), suite, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{2, 8, 0} {
		parallel, err := p.TableIIIParallel(context.Background(), suite, jobs)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for y := range serial {
			for x := range serial[y] {
				if serial[y][x] != parallel[y][x] {
					t.Fatalf("jobs=%d: cell (%d,%d) differs: serial %v, parallel %v",
						jobs, x, y, serial[y][x], parallel[y][x])
				}
			}
		}
	}
}
