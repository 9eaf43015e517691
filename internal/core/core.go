// Package core holds the experiment grids of the paper's evaluation, shared
// by the command-line tool, the quickstart example and the end-to-end claim
// tests: ready-to-run versions of Tables I–III, Figure 2, the
// average-performance comparison and the area estimate.
//
// Each entry point declares its grid of scenario.Specs and hands them to the
// sweep engine, which executes them across GOMAXPROCS workers with
// deterministic, spec-ordered aggregation. The functions here only translate
// the stable scenario.Result values back into the paper-shaped row types.
package core

import (
	"context"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/area"
	"repro/internal/flows"
	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/wcet"
)

// Design aliases the NoC design points so callers only need this package.
type Design = network.Design

// The two design points compared throughout the paper.
const (
	DesignRegular = network.DesignRegular
	DesignWaWWaP  = network.DesignWaWWaP
)

// NewWCTTModel builds the analytical worst-case traversal time model for a
// width x height mesh with the paper's platform parameters.
func NewWCTTModel(width, height int) (*analysis.Model, error) {
	d, err := mesh.NewDim(width, height)
	if err != nil {
		return nil, err
	}
	return analysis.NewModel(analysis.DefaultParams(d))
}

// TableI returns the arbitration-weight comparison of Table I: the bandwidth
// share every (input port, output port) pair of router R(x,y) receives under
// plain round-robin and under WaW, for a width x height mesh.
func TableI(width, height, x, y int) ([]flows.WeightEntry, error) {
	d, err := mesh.NewDim(width, height)
	if err != nil {
		return nil, err
	}
	n := mesh.Node{X: x, Y: y}
	if !d.Contains(n) {
		return nil, fmt.Errorf("core: router (%d,%d) outside %v mesh", x, y, d)
	}
	return flows.TableIEntries(d, n), nil
}

// TableII returns the WCTT scalability study of Table II (max/mean/min WCTT
// of one-flit packets under worst-case contention) for the given square mesh
// sizes. The per-size/per-design analyses run in parallel through the sweep
// engine, one scenario per (size, design) pair.
func TableII(sizes []int) ([]analysis.TableIIRow, error) {
	results, err := sweep.Expand(context.Background(), scenario.Spec{
		Name:    "table-ii",
		Mode:    scenario.ModeWCTT,
		Sizes:   sizes,
		Designs: []network.Design{DesignRegular, DesignWaWWaP},
	}, sweep.Options{})
	if err != nil {
		return nil, err
	}
	rows := make([]analysis.TableIIRow, 0, len(sizes))
	for i, s := range sizes {
		d, err := mesh.NewDim(s, s)
		if err != nil {
			return nil, err
		}
		rows = append(rows, analysis.TableIIRow{
			Dim:     d,
			Regular: wcttSummary(d, DesignRegular, results[2*i]),
			WaWWaP:  wcttSummary(d, DesignWaWWaP, results[2*i+1]),
		})
	}
	return rows, nil
}

// wcttSummary converts a scenario WCTT result back into the analysis row
// shape.
func wcttSummary(d mesh.Dim, design Design, r scenario.Result) analysis.WCTTSummary {
	if r.WCTT == nil {
		return analysis.WCTTSummary{Design: design, Dim: d}
	}
	return analysis.WCTTSummary{
		Design: design,
		Dim:    d,
		Max:    r.WCTT.MaxCycles,
		Min:    r.WCTT.MinCycles,
		Mean:   r.WCTT.MeanCycles,
		Flows:  r.WCTT.Flows,
	}
}

// TableIII returns the per-core normalised WCET map of Table III (WaW+WaP
// WCET divided by regular-design WCET, averaged over the EEMBC Automotive
// suite) on the paper's 64-core platform. The result is indexed [y][x].
func TableIII() ([][]float64, error) {
	platform := wcet.DefaultPlatform()
	r, err := scenario.Execute(scenario.Spec{
		Name:   "table-iii",
		Mode:   scenario.ModeWCETMap,
		Width:  platform.Dim.Width,
		Height: platform.Dim.Height,
	})
	if err != nil {
		return nil, err
	}
	return r.WCETMap, nil
}

// figure2Specs declares the ModeParallelWCET scenario grid shared by the
// two Figure 2 studies: for every (placement, max packet size) combination
// it emits a regular-design and a WaW+WaP spec, in that order.
func figure2Specs(name string, placements []string, packetSizes []int) []scenario.Spec {
	platform := wcet.DefaultPlatform()
	specs := make([]scenario.Spec, 0, 2*len(placements)*len(packetSizes))
	for _, pl := range placements {
		for _, l := range packetSizes {
			for _, design := range []Design{DesignRegular, DesignWaWWaP} {
				specs = append(specs, scenario.Spec{
					Name:           name,
					Mode:           scenario.ModeParallelWCET,
					Width:          platform.Dim.Width,
					Height:         platform.Dim.Height,
					Design:         design,
					Placement:      pl,
					MaxPacketFlits: l,
				})
			}
		}
	}
	return specs
}

// Figure2a returns the 3DPP WCET estimates of Figure 2(a): regular vs
// WaW+WaP under placement P0 for maximum packet sizes of 1, 4 and 8 flits.
// The six WCET analyses run in parallel through the sweep engine.
func Figure2a() ([]wcet.Figure2aPoint, error) {
	sizes := []int{1, 4, 8}
	results, err := sweep.RunAll(figure2Specs("figure-2a", []string{"P0"}, sizes))
	if err != nil {
		return nil, err
	}
	points := make([]wcet.Figure2aPoint, len(sizes))
	for i, l := range sizes {
		points[i] = wcet.Figure2aPoint{
			MaxPacketFlits: l,
			RegularMs:      results[2*i].WCET.Millis,
			WaWWaPMs:       results[2*i+1].WCET.Millis,
		}
	}
	return points, nil
}

// Figure2b returns the 3DPP placement-sensitivity study of Figure 2(b):
// regular vs WaW+WaP under placements P0–P3 with one-flit maximum packets.
// The eight WCET analyses run in parallel through the sweep engine.
func Figure2b() ([]wcet.Figure2bPoint, error) {
	placements := []string{"P0", "P1", "P2", "P3"}
	results, err := sweep.RunAll(figure2Specs("figure-2b", placements, []int{1}))
	if err != nil {
		return nil, err
	}
	points := make([]wcet.Figure2bPoint, len(placements))
	for i, pl := range placements {
		points[i] = wcet.Figure2bPoint{
			Placement: pl,
			RegularMs: results[2*i].WCET.Millis,
			WaWWaPMs:  results[2*i+1].WCET.Millis,
		}
	}
	return points, nil
}

// AvgPerfResult is the outcome of the average-performance comparison of
// Section IV: the makespan of the same multiprogrammed workload on both
// designs and the relative degradation of WaW+WaP.
type AvgPerfResult struct {
	Dim             mesh.Dim
	Benchmark       string
	RegularCycles   uint64
	WaWWaPCycles    uint64
	DegradationPct  float64
	CoresSimulated  int
	MemTransactions uint64
}

// AveragePerformance runs the same multiprogrammed workload (the given EEMBC
// kernel on every core, scaled down by scaleFactor to keep the cycle-accurate
// simulation tractable) on the regular design and on WaW+WaP and compares
// the makespans. maxCycles bounds each simulation. The two design runs
// execute concurrently through the sweep engine.
func AveragePerformance(width, height int, benchmarkName string, scaleFactor, maxCycles int) (AvgPerfResult, error) {
	results, err := sweep.Expand(context.Background(), scenario.Spec{
		Name:      "avgperf",
		Mode:      scenario.ModeManycore,
		Width:     width,
		Height:    height,
		Workload:  benchmarkName,
		Scale:     scaleFactor,
		MaxCycles: maxCycles,
		Designs:   []network.Design{DesignRegular, DesignWaWWaP},
	}, sweep.Options{})
	if err != nil {
		return AvgPerfResult{}, err
	}
	d, err := mesh.NewDim(width, height)
	if err != nil {
		return AvgPerfResult{}, err
	}
	regular, waw := results[0].Manycore, results[1].Manycore
	return AvgPerfResult{
		Dim:             d,
		Benchmark:       benchmarkName,
		RegularCycles:   regular.MakespanCycles,
		WaWWaPCycles:    waw.MakespanCycles,
		DegradationPct:  (float64(waw.MakespanCycles)/float64(regular.MakespanCycles) - 1) * 100,
		CoresSimulated:  d.Nodes(),
		MemTransactions: waw.MemTransactions,
	}, nil
}

// AreaOverhead returns the NoC area comparison (regular vs WaW+WaP) for a
// width x height mesh with the paper's router parameters.
func AreaOverhead(width, height int) (area.Comparison, error) {
	d, err := mesh.NewDim(width, height)
	if err != nil {
		return area.Comparison{}, err
	}
	return area.Compare(area.DefaultParams(d))
}
