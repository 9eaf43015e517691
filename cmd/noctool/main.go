// Command noctool regenerates every table and figure of the paper
// "Improving Performance Guarantees in Wormhole Mesh NoC Designs"
// (Panic et al., DATE 2016) from the models and simulators of this
// repository.
//
// Usage:
//
//	noctool <command> [flags]
//
// Commands:
//
//	weights     Table I   — WaW arbitration weights of one router
//	wctt-table  Table II  — WCTT scalability across mesh sizes
//	eembc       Table III — per-core normalised WCET of the EEMBC suite
//	avionics    Figure 2  — WCET of the 3DPP avionics application
//	avgperf     Section IV— average-performance comparison
//	area        Section III— NoC area overhead of WaW+WaP
//	simulate    cycle-accurate hotspot simulation of both designs
//	sweep       declarative scenario grid run on the parallel sweep engine
//	serve       long-running timing daemon speaking the JSON-line protocol
//	            of PROTOCOL.md over stdin/stdout, TCP and HTTP
//
// The sweep command additionally offers -mode load-curve, which sweeps
// sustained uniform-random injection rates per design point and emits the
// latency-vs-throughput saturation curve of the mesh (see -rates, -warmup,
// -measure).
//
// Large sweeps scale out and survive interruption: -worker-procs fans the
// grid to `noctool sweep -worker` subprocesses, each the serve daemon on
// stdio (PROTOCOL.md), -out streams every result as a JSON line the
// moment it completes, and -checkpoint/-resume recover an interrupted run
// by recomputing only unfinished scenarios. Output stays byte-identical
// across worker counts and kill/resume schedules.
//
// Every command accepts -format text|csv|markdown|json. The experiment
// commands are thin adapters over the internal/scenario and internal/sweep
// layers, so grids of design points and mesh sizes execute across all CPU
// cores with deterministic aggregation.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// commands maps the sub-command name to its implementation. Every command
// writes its output to the supplied writer so the commands are unit-testable.
var commands = map[string]func(args []string, w io.Writer) error{
	"weights":    cmdWeights,
	"wctt-table": cmdWCTTTable,
	"eembc":      cmdEEMBC,
	"avionics":   cmdAvionics,
	"avgperf":    cmdAvgPerf,
	"area":       cmdArea,
	"simulate":   cmdSimulate,
	"sweep":      cmdSweep,
	"serve":      cmdServe,
}

func usage() {
	fmt.Fprintf(os.Stderr, `noctool — reproduce the DATE 2016 WaW+WaP wormhole-mesh results

Usage:
  noctool <command> [flags]

Commands:
  weights      Table I:   arbitration weights of one router (regular vs WaW)
  wctt-table   Table II:  WCTT bounds across mesh sizes (regular vs WaW+WaP)
  eembc        Table III: per-core normalised WCET of the EEMBC Automotive suite
  avionics     Figure 2:  WCET of the 16-core 3DPP avionics application
  avgperf      average-performance comparison on the cycle-accurate simulator
  area         NoC area overhead of the WaW+WaP modifications
  simulate     cycle-accurate hotspot simulation comparing both designs
  sweep        run a scenario grid (sizes x designs x workloads) in parallel
               (-mode load-curve sweeps injection rates into saturation curves;
               -worker-procs scales out to worker subprocesses, and
               -out/-checkpoint/-resume stream results and survive interruption)
  serve        run the NoC timing daemon: WCTT/WCET queries and scenario
               specs over the JSON-line protocol (stdin/stdout, -listen TCP,
               -http HTTP; see PROTOCOL.md)

Run "noctool <command> -h" for command-specific flags. Every command accepts
-format text|csv|markdown|json; sweep additionally accepts -jobs.
`)
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	name := os.Args[1]
	if name == "-h" || name == "--help" || name == "help" {
		usage()
		return
	}
	cmd, ok := commands[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "noctool: unknown command %q\n\n", name)
		usage()
		os.Exit(2)
	}
	if err := cmd(os.Args[2:], os.Stdout); err != nil {
		if err == flag.ErrHelp {
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "noctool %s: %v\n", name, err)
		os.Exit(1)
	}
}
