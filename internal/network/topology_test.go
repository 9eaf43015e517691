// Topology equivalence tests for the cycle-accurate simulator: on the
// concentrated meshes Step must match the full-scan oracle byte-for-byte, and
// the configuration layer must reject topology/parameter combinations it
// cannot honour.
package network_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/flit"
	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/traffic"
)

// buildTopoGen builds a generator on endpoint grid ep.
func buildTopoGen(t *testing.T, ep mesh.Dim, pattern string, seed int64) traffic.Generator {
	t.Helper()
	var gen traffic.Generator
	var err error
	switch pattern {
	case "uniform":
		gen, err = traffic.NewUniformRandom(ep, seed, 80, traffic.CacheLinePayloadBits, 300)
	case "tornado":
		gen, err = traffic.NewPermutation(ep, traffic.Tornado, traffic.CacheLinePayloadBits, 8, 20)
	case "transpose":
		gen, err = traffic.NewPermutation(ep, traffic.Transpose, traffic.RequestPayloadBits, 8, 10)
	default:
		t.Fatalf("unknown pattern %q", pattern)
	}
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// TestTopologyEnginesAndShardsEquivalent checks that, on both concentrated
// meshes over square, rectangular and odd-height grids, Step and the
// full-scan oracle produce byte-identical results — cycles, flit counts and
// the delivery log — with the inert Config.Shards unset and set.
func TestTopologyEnginesAndShardsEquivalent(t *testing.T) {
	cases := []struct {
		spec mesh.TopoSpec
		dim  mesh.Dim
	}{
		{mesh.TopoSpec{Kind: mesh.TopoCMesh, Conc: 4}, mesh.MustDim(4, 4)},
		{mesh.TopoSpec{Kind: mesh.TopoCMesh, Conc: 4}, mesh.MustDim(8, 4)},
		{mesh.TopoSpec{Kind: mesh.TopoCMesh, Conc: 2}, mesh.MustDim(6, 4)},
		{mesh.TopoSpec{Kind: mesh.TopoCMesh, Conc: 2}, mesh.MustDim(6, 5)},
	}
	designs := []network.Design{network.DesignRegular, network.DesignWaWWaP}
	patterns := []string{"uniform", "tornado", "transpose"}
	for _, c := range cases {
		for _, design := range designs {
			for _, pattern := range patterns {
				name := fmt.Sprintf("%v/%v/%v/%s", c.spec, c.dim, design, pattern)
				t.Run(name, func(t *testing.T) {
					cfg := network.DefaultConfig(c.dim, design)
					cfg.Topo = c.spec
					ref := network.MustNewFullScan(cfg)
					refRun := logDeliveries(ref.Net)
					driveOracle(t, ref, buildTopoGen(t, c.dim, pattern, 7))
					for _, shards := range []int{0, 3} {
						cfg.Shards = shards
						act, err := network.New(cfg)
						if err != nil {
							t.Fatal(err)
						}
						actRun := logDeliveries(act)
						if _, done := traffic.Drive(act, buildTopoGen(t, c.dim, pattern, 7), 1_000_000); !done {
							t.Fatalf("shards=%d did not drain", shards)
						}
						compareRuns(t, fmt.Sprintf("shards=%d", shards), refRun, actRun)
					}
				})
			}
		}
	}
}

// TestCMeshColocatedDelivery checks traffic between cores sharing a router:
// the message turns Local->Local without touching any link.
func TestCMeshColocatedDelivery(t *testing.T) {
	cfg := network.DefaultConfig(mesh.MustDim(4, 4), network.DesignWaWWaP)
	cfg.Topo = mesh.TopoSpec{Kind: mesh.TopoCMesh, Conc: 4}
	n, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flow := flit.FlowID{Src: mesh.Node{X: 0, Y: 0}, Dst: mesh.Node{X: 1, Y: 1}}
	if _, err := n.Send(&flit.Message{Flow: flow, PayloadBits: 48, Class: flit.ClassRequest}); err != nil {
		t.Fatal(err)
	}
	if !n.RunUntilDrained(200) {
		t.Fatal("did not drain")
	}
	if n.TotalDeliveredMessages() != 1 {
		t.Fatal("co-located message not delivered")
	}
	cross := flit.FlowID{Src: mesh.Node{X: 0, Y: 0}, Dst: mesh.Node{X: 3, Y: 3}}
	n2, err := network.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n2.Send(&flit.Message{Flow: cross, PayloadBits: 48, Class: flit.ClassRequest}); err != nil {
		t.Fatal(err)
	}
	if !n2.RunUntilDrained(200) {
		t.Fatal("did not drain")
	}
	if local, far := n.AggregateLatency().Mean(), n2.AggregateLatency().Mean(); local >= far {
		t.Errorf("co-located latency %.0f should beat the diagonal crossing %.0f", local, far)
	}
}

// TestTopologyConfigValidation checks the construction-time rejections.
func TestTopologyConfigValidation(t *testing.T) {
	// Indivisible cmesh grid.
	cfg := network.DefaultConfig(mesh.MustDim(5, 5), network.DesignRegular)
	cfg.Topo = mesh.TopoSpec{Kind: mesh.TopoCMesh, Conc: 4}
	if err := cfg.Validate(); err == nil {
		t.Error("cmesh4 on 5x5 should fail validation")
	}
	// Custom weight tables must cover the ROUTER grid, not the endpoint grid.
	cfg = network.DefaultConfig(mesh.MustDim(4, 4), network.DesignWaWWaP)
	cfg.Topo = mesh.TopoSpec{Kind: mesh.TopoCMesh, Conc: 4}
	net, err := network.New(cfg)
	if err != nil {
		t.Fatalf("cmesh4 on 4x4 should build: %v", err)
	}
	if got, want := net.Topology().RouterDim(), mesh.MustDim(2, 2); got != want {
		t.Errorf("router grid %v, want %v", got, want)
	}
	// Unknown topology kind fails with a parse-style error.
	cfg = network.DefaultConfig(mesh.MustDim(4, 4), network.DesignRegular)
	cfg.Topo = mesh.TopoSpec{Kind: mesh.TopoKind(42)}
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "topology") {
		t.Errorf("unknown topology kind should fail mentioning topology, got %v", err)
	}
}
