// topocompare runs the same cycle-accurate experiment on both topology
// families of the pluggable topology layer — the paper's 2D mesh and the
// 4-cores-per-router concentrated mesh — and tabulates what the geometry
// buys: under uniform random traffic the concentrated mesh trades link
// bandwidth for router count and drains later, while under an all-to-one
// hotspot the topology barely matters because the bottleneck is the
// ejection port.
//
// Per endpoint grid (8x8 and 16x16, always counted in cores) and pattern
// the table reports the drain time, the delivered messages and the mean
// and maximum message latency. Every run uses the identical generator
// seed and workload, so the latency columns are directly comparable.
//
// Run with:
//
//	go run ./examples/topocompare
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/tablegen"
	"repro/internal/traffic"
)

// run drives the pattern through a fresh network of the given topology
// until drained and returns the network for inspection.
func run(spec mesh.TopoSpec, d mesh.Dim, pattern string) *network.Network {
	cfg := network.DefaultConfig(d, network.DesignWaWWaP)
	cfg.Topo = spec
	net := network.MustNew(cfg)
	var gen traffic.Generator
	var err error
	switch pattern {
	case "uniform":
		gen, err = traffic.NewUniformRandom(d, 7, 25, traffic.CacheLinePayloadBits, 40*d.Nodes())
	case "hotspot":
		gen, err = traffic.NewHotspot(d, mesh.Node{X: 0, Y: 0}, 7, 30, traffic.RequestPayloadBits, 600)
	default:
		log.Fatalf("unknown pattern %q", pattern)
	}
	if err != nil {
		log.Fatal(err)
	}
	if _, done := traffic.Drive(net, gen, 50_000_000); !done {
		log.Fatalf("%v %v %s did not drain", spec, d, pattern)
	}
	return net
}

func main() {
	topos := []mesh.TopoSpec{
		{Kind: mesh.TopoMesh},
		{Kind: mesh.TopoCMesh, Conc: 4},
	}
	for _, pattern := range []string{"uniform", "hotspot"} {
		t := tablegen.New(fmt.Sprintf("Topology comparison — WaW+WaP, %s traffic, identical seed and workload", pattern),
			"cores", "topology", "routers", "cycles", "delivered", "mean lat", "max lat")
		for _, size := range []int{8, 16} {
			d := mesh.MustDim(size, size)
			for _, spec := range topos {
				net := run(spec, d, pattern)
				lat := net.AggregateLatency()
				t.AddRow(fmt.Sprintf("%d", d.Nodes()), spec.String(),
					net.Topology().RouterDim().String(),
					fmt.Sprintf("%d", net.Cycle()),
					fmt.Sprintf("%d", net.TotalDeliveredMessages()),
					fmt.Sprintf("%.1f", lat.Mean()),
					fmt.Sprintf("%.0f", lat.Max()))
			}
		}
		if err := t.Render(os.Stdout, tablegen.FormatText); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
}
