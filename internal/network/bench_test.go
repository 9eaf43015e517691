package network_test

import (
	"testing"

	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/traffic"
)

// BenchmarkEngine/saturated-8x8 is Network.Step against the full-scan oracle
// where the active set cannot win, for both designs the sim-saturated workload
// runs. 400 msgs/node/kcycle of one-flit messages is past saturation, every
// router and NIC queue is busy every cycle, so the cost is per flit-hop
// router/arbiter work and the visit lists, wake flags and lazy-replenishment
// stamps are pure overhead. The oracle also moves flits the two-phase way
// (ComputeTransfers, then ApplyTransfer and StageArrival per transfer), so
// the gap is the active set plus Step's one-walk Router.Forward. One op
// rewinds the network and simulates a 3000-cycle window (the source queues
// of a saturated network grow without bound, so the window is fixed instead
// of b.N cycles). On a 2-core Xeon (-benchtime 40x, median of three runs)
// active-set took 67.8 ms regular and 68.8 ms waw+wap per window, full-scan
// 70.0 and 69.0 ms. For a developer to run by hand; CI runs it once as a
// smoke test and compares the sim-saturated workload of bench/ end to end.
//
//	go test -run xxx -bench 'BenchmarkEngine/saturated-8x8/' -benchtime 10x -count 5 ./internal/network/
func BenchmarkEngine(b *testing.B) {
	const window = 3000
	d := mesh.MustDim(8, 8)
	saturated := func(b *testing.B, net *network.Network, step func()) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.Reset()
			gen, err := traffic.NewUniformRandom(d, 3, 400, traffic.RequestPayloadBits, 1<<30)
			if err != nil {
				b.Fatal(err)
			}
			traffic.AttachNetworkPool(gen, net)
			for c := 0; c < window; c++ {
				for _, msg := range gen.Tick(net.Cycle()) {
					if _, err := net.Send(msg); err != nil {
						b.Fatal(err)
					}
				}
				step()
			}
		}
		b.ReportMetric(float64(net.TotalInjectedFlits())/window, "flits/cycle")
	}
	for _, design := range []struct {
		name   string
		design network.Design
	}{{"regular", network.DesignRegular}, {"waw+wap", network.DesignWaWWaP}} {
		cfg := network.DefaultConfig(d, design.design)
		b.Run("saturated-8x8/"+design.name+"/active-set", func(b *testing.B) {
			net := network.MustNew(cfg)
			saturated(b, net, net.Step)
		})
		b.Run("saturated-8x8/"+design.name+"/full-scan", func(b *testing.B) {
			ref := network.MustNewFullScan(cfg)
			saturated(b, ref.Net, ref.Step)
		})
	}
}
