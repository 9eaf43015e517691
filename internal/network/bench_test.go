package network_test

import (
	"testing"

	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/traffic"
)

// BenchmarkEngine is Network.Step against the full-scan oracle at the two
// points of bench/'s simulator workloads, for both designs they run, with
// uniform one-flit messages. One op rewinds the network and simulates a
// fixed window (the source queues of a saturated network grow without bound,
// so the window is fixed instead of b.N cycles). The oracle visits every
// router and NIC every cycle and moves flits the two-phase way
// (ComputeTransfers, then ApplyTransfer and StageArrival per transfer), so
// the gap is the active set plus Step's one-walk Router.Forward.
//
//   - saturated-8x8: 400 msgs/node/kcycle, past saturation, over 3000
//     cycles. Every router and NIC queue is busy every cycle, so the cost is
//     per flit-hop router/arbiter work and the visit lists, wake flags and
//     lazy-replenishment stamps are pure overhead.
//   - sparse-16x16: 2 msgs/node/kcycle over 20 000 cycles, the in-process
//     twin of sim-sparse: about six routers hold a flit per cycle, so the
//     cost is the active set and the few outputs each visit can move.
//
// On a shared 2-core Xeon (-cpu 1 -benchtime 20x, 10 runs alternating with
// the test binary of the per-port walk, medians) walking only the outputs
// that can act took active-set sparse-16x16 from 21.1 to 19.9 ms per window
// (regular) and 23.2 to 19.8 ms (waw+wap); saturated-8x8 stayed at 49.9 →
// 49.7 and 49.5 → 49.6 ms. Single runs spread by up to ±40 %, so the
// end-to-end sim-sparse and sim-saturated workloads of bench/ are the
// measure.
// For a developer to run by hand; CI runs it once as a smoke test and
// compares the sim-sparse and sim-saturated workloads of bench/ end to end.
//
//	go test -run xxx -bench 'BenchmarkEngine/sparse-16x16/' -benchtime 20x -count 5 ./internal/network/
func BenchmarkEngine(b *testing.B) {
	run := func(b *testing.B, net *network.Network, step func(), d mesh.Dim, rate, window int) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			net.Reset()
			gen, err := traffic.NewUniformRandom(d, 3, rate, traffic.RequestPayloadBits, 1<<30)
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
		b.ReportMetric(float64(net.TotalInjectedFlits())/float64(window), "flits/cycle")
	}
	for _, point := range []struct {
		name         string
		d            mesh.Dim
		rate, window int
	}{{"saturated-8x8", mesh.MustDim(8, 8), 400, 3000}, {"sparse-16x16", mesh.MustDim(16, 16), 2, 20_000}} {
		for _, design := range []struct {
			name   string
			design network.Design
		}{{"regular", network.DesignRegular}, {"waw+wap", network.DesignWaWWaP}} {
			cfg := network.DefaultConfig(point.d, design.design)
			prefix := point.name + "/" + design.name
			b.Run(prefix+"/active-set", func(b *testing.B) {
				net := network.MustNew(cfg)
				run(b, net, net.Step, point.d, point.rate, point.window)
			})
			b.Run(prefix+"/full-scan", func(b *testing.B) {
				ref := network.MustNewFullScan(cfg)
				run(b, ref.Net, ref.Step, point.d, point.rate, point.window)
			})
		}
	}
}
