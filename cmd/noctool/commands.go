package main

import (
	"context"
	"flag"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/tablegen"
	"repro/internal/traffic"
)

// newFlagSet builds a flag set with the shared -format flag.
func newFlagSet(name string) (*flag.FlagSet, *string) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	format := fs.String("format", "text", "output format: text, csv, markdown or json")
	return fs, format
}

func render(w io.Writer, t *tablegen.Table, formatName string) error {
	f, err := tablegen.ParseFormat(formatName)
	if err != nil {
		return err
	}
	return t.Render(w, f)
}

// cmdWeights reproduces Table I: the arbitration weights of one router.
func cmdWeights(args []string, w io.Writer) error {
	fs, format := newFlagSet("weights")
	width := fs.Int("width", 2, "mesh width (N)")
	height := fs.Int("height", 2, "mesh height (M)")
	x := fs.Int("x", 1, "router x coordinate")
	y := fs.Int("y", 1, "router y coordinate")
	if err := fs.Parse(args); err != nil {
		return err
	}
	entries, err := core.TableI(*width, *height, *x, *y)
	if err != nil {
		return err
	}
	t := tablegen.New(
		fmt.Sprintf("Table I — arbitration weights of router R(%d,%d) in a %dx%d mesh", *x, *y, *width, *height),
		"pair", "regular mesh", "weighted mesh (WaW)")
	for _, e := range entries {
		t.AddRow(e.Pair.String(), fmt.Sprintf("%.2f", e.Regular), fmt.Sprintf("%.2f", e.WaW))
	}
	return render(w, t, *format)
}

// cmdWCTTTable reproduces Table II: WCTT bounds for growing mesh sizes.
func cmdWCTTTable(args []string, w io.Writer) error {
	fs, format := newFlagSet("wctt-table")
	maxSize := fs.Int("max-size", 8, "largest square mesh size to analyse (the paper uses 8)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *maxSize < 2 {
		return fmt.Errorf("max-size must be at least 2")
	}
	var sizes []int
	for s := 2; s <= *maxSize; s++ {
		sizes = append(sizes, s)
	}
	rows, err := core.TableII(sizes)
	if err != nil {
		return err
	}
	t := tablegen.New("Table II — WCTT values for 1-flit packets (cycles)",
		"NxM", "regular max", "regular mean", "regular min", "WaW+WaP max", "WaW+WaP mean", "WaW+WaP min")
	for _, r := range rows {
		t.AddRow(r.Dim.String(),
			fmt.Sprintf("%d", r.Regular.Max), fmt.Sprintf("%.2f", r.Regular.Mean), fmt.Sprintf("%d", r.Regular.Min),
			fmt.Sprintf("%d", r.WaWWaP.Max), fmt.Sprintf("%.2f", r.WaWWaP.Mean), fmt.Sprintf("%d", r.WaWWaP.Min))
	}
	return render(w, t, *format)
}

// cmdEEMBC reproduces Table III: the per-core normalised WCET map.
func cmdEEMBC(args []string, w io.Writer) error {
	fs, format := newFlagSet("eembc")
	if err := fs.Parse(args); err != nil {
		return err
	}
	table, err := core.TableIII()
	if err != nil {
		return err
	}
	t := tablegen.Matrix("Table III — normalised WCET per core (WaW+WaP / regular), memory at R(0,0)", table, "%.4f")
	return render(w, t, *format)
}

// cmdAvionics reproduces Figure 2: the 3DPP avionics WCET estimates.
func cmdAvionics(args []string, w io.Writer) error {
	fs, format := newFlagSet("avionics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	a, err := core.Figure2a()
	if err != nil {
		return err
	}
	ta := tablegen.New("Figure 2(a) — 3DPP WCET estimate under placement P0 (ms)",
		"max packet size", "regular wNoC", "WaW+WaP", "improvement")
	for _, p := range a {
		ta.AddRow(fmt.Sprintf("L%d", p.MaxPacketFlits),
			fmt.Sprintf("%.2f", p.RegularMs), fmt.Sprintf("%.2f", p.WaWWaPMs),
			fmt.Sprintf("%.2fx", p.Improvement()))
	}
	if err := render(w, ta, *format); err != nil {
		return err
	}
	fmt.Fprintln(w)
	b, err := core.Figure2b()
	if err != nil {
		return err
	}
	tb := tablegen.New("Figure 2(b) — 3DPP WCET estimate across placements, L1 (ms)",
		"placement", "regular wNoC", "WaW+WaP", "improvement")
	for _, p := range b {
		tb.AddRow(p.Placement, fmt.Sprintf("%.2f", p.RegularMs), fmt.Sprintf("%.2f", p.WaWWaPMs),
			fmt.Sprintf("%.2fx", p.RegularMs/p.WaWWaPMs))
	}
	return render(w, tb, *format)
}

// cmdAvgPerf runs the cycle-accurate average-performance comparison.
func cmdAvgPerf(args []string, w io.Writer) error {
	fs, format := newFlagSet("avgperf")
	width := fs.Int("width", 8, "mesh width")
	height := fs.Int("height", 8, "mesh height")
	bench := fs.String("benchmark", "matrix", "EEMBC kernel to run on every core")
	scale := fs.Int("scale", 200, "divide the kernel's instruction count by this factor")
	maxCycles := fs.Int("max-cycles", 50_000_000, "simulation cycle budget per design")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := core.AveragePerformance(*width, *height, *bench, *scale, *maxCycles)
	if err != nil {
		return err
	}
	t := tablegen.New(fmt.Sprintf("Average performance — %s on every core of a %v mesh", res.Benchmark, res.Dim),
		"design", "makespan (cycles)", "degradation")
	t.AddRow("regular wNoC", fmt.Sprintf("%d", res.RegularCycles), "-")
	t.AddRow("WaW+WaP", fmt.Sprintf("%d", res.WaWWaPCycles), fmt.Sprintf("%.2f%%", res.DegradationPct))
	return render(w, t, *format)
}

// cmdArea reports the NoC area overhead of the WaW+WaP modifications.
func cmdArea(args []string, w io.Writer) error {
	fs, format := newFlagSet("area")
	width := fs.Int("width", 8, "mesh width")
	height := fs.Int("height", 8, "mesh height")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cmp, err := core.AreaOverhead(*width, *height)
	if err != nil {
		return err
	}
	t := tablegen.New(fmt.Sprintf("NoC area (gate equivalents) for a %v mesh", cmp.Dim),
		"design", "area", "overhead")
	t.AddRow("regular wNoC", fmt.Sprintf("%.0f", cmp.RegularTotal), "-")
	t.AddRow("WaW+WaP", fmt.Sprintf("%.0f", cmp.WaWWaPTotal), fmt.Sprintf("%.2f%%", cmp.OverheadPercent()))
	return render(w, t, *format)
}

// cmdSimulate runs a cycle-accurate all-to-one hotspot simulation on both
// designs and reports the per-flow latency spread, the measured counterpart
// of Table II's analytical story. The two design runs are declared as
// scenario specs and execute concurrently on the sweep engine.
func cmdSimulate(args []string, w io.Writer) error {
	fs, format := newFlagSet("simulate")
	width := fs.Int("width", 8, "mesh width")
	height := fs.Int("height", 8, "mesh height")
	topology := fs.String("topology", "mesh", "network topology: mesh, cmesh (4 cores/router) or cmesh2")
	messages := fs.Int("messages", 2000, "total number of request messages to inject")
	rate := fs.Int("rate", 30, "per-node injection probability per cycle (percent)")
	seed := fs.Int64("seed", 1, "pseudo-random seed")
	maxCycles := fs.Int("max-cycles", 5_000_000, "simulation cycle budget per design")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := mesh.NewDim(*width, *height)
	if err != nil {
		return err
	}
	ts, err := mesh.ParseTopology(*topology)
	if err != nil {
		return err
	}
	if *rate <= 0 || *rate > 100 {
		return fmt.Errorf("rate must be in 1..100 percent, got %d", *rate)
	}
	target := mesh.Node{X: 0, Y: 0}
	results, err := sweep.Expand(context.Background(), scenario.Spec{
		Name:     "simulate",
		Mode:     scenario.ModeSimulate,
		Topology: *topology,
		Width:    *width,
		Height:   *height,
		Seed:     *seed,
		Traffic: scenario.Traffic{
			Pattern:     "hotspot",
			Rate:        *rate,
			Messages:    *messages,
			PayloadBits: traffic.RequestPayloadBits,
			Target:      target,
		},
		MaxCycles: *maxCycles,
		Designs:   []network.Design{network.DesignRegular, network.DesignWaWWaP},
	}, sweep.Options{})
	if err != nil {
		return err
	}
	topoName := "mesh"
	if ts.Kind != mesh.TopoMesh {
		topoName = ts.String()
	}
	t := tablegen.New(fmt.Sprintf("Hotspot simulation — %d one-flit requests towards %v on a %v %s", *messages, target, d, topoName),
		"design", "delivered", "min latency", "mean latency", "max latency")
	for _, r := range results {
		t.AddRow(r.Design, fmt.Sprintf("%d", r.Sim.Delivered),
			fmt.Sprintf("%.0f", r.Sim.MinLatency), fmt.Sprintf("%.1f", r.Sim.MeanLatency), fmt.Sprintf("%.0f", r.Sim.MaxLatency))
	}
	return render(w, t, *format)
}
