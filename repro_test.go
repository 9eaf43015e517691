// End-to-end integration tests: each test checks one headline claim of the
// paper against the full stack (analytical models, workload models and
// cycle-accurate simulator together). The per-package tests cover the
// mechanisms; these tests cover the story.
package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/flit"
	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/traffic"
	"repro/internal/wcet"
)

// Claim (Table II / abstract): the WCTT bounds of the regular wNoC "poorly
// scale with network size", while the proposed design's bounds are scalable —
// for the 64-core mesh the paper reports a max-WCTT gap of four orders of
// magnitude.
func TestClaimWCTTScalability(t *testing.T) {
	rows, err := core.TableII([]int{2, 3, 4, 5, 6, 7, 8}) // the sizes of the paper's Table II
	if err != nil {
		t.Fatal(err)
	}
	last := rows[len(rows)-1]
	if last.Dim != mesh.MustDim(8, 8) {
		t.Fatalf("last row is %v, want 8x8", last.Dim)
	}
	gap := float64(last.Regular.Max) / float64(last.WaWWaP.Max)
	if gap < 1000 {
		t.Errorf("8x8 max-WCTT gap = %.0fx, expected >= 3 orders of magnitude (paper: ~15,000x)", gap)
	}
	// And the small-mesh regular design is not yet broken: for 2x2 the two
	// designs are within a small factor of each other.
	first := rows[0]
	smallGap := float64(first.Regular.Max) / float64(first.WaWWaP.Max)
	if smallGap > 3 {
		t.Errorf("2x2 gap = %.1fx; the scalability problem should only appear as the mesh grows", smallGap)
	}
}

// Claim (abstract): WCET estimates of single-threaded applications decrease
// by large factors for most cores, while a minority of well-placed cores see
// a bounded slowdown.
func TestClaimEEMBCWCETReduction(t *testing.T) {
	table, err := core.TableIII()
	if err != nil {
		t.Fatal(err)
	}
	var improved, degraded int
	var bestImprovement float64 = 1
	for _, row := range table {
		for _, v := range row {
			if v > 1 {
				degraded++
				if v > 2 {
					t.Errorf("no core should slow down by more than ~2x, found %.2f", v)
				}
			} else if v < bestImprovement {
				bestImprovement = v
			}
			if v < 0.5 {
				improved++
			}
		}
	}
	if degraded >= improved {
		t.Errorf("more degraded (%d) than clearly improved (%d) cores", degraded, improved)
	}
	if 1/bestImprovement < 100 {
		t.Errorf("best core improves only %.0fx, expected orders of magnitude", 1/bestImprovement)
	}
}

// Claim (abstract): the parallel avionics application's WCET estimate
// improves by a factor that grows with the allowed packet size, and the
// proposed design bounds the impact of placement.
func TestClaimAvionicsWCET(t *testing.T) {
	a, err := core.Figure2a()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(a); i++ {
		if a[i].Improvement() <= a[i-1].Improvement() {
			t.Errorf("improvement should grow with the packet size: %+v", a)
		}
	}
	b, err := core.Figure2b()
	if err != nil {
		t.Fatal(err)
	}
	var regs, waws []float64
	for _, p := range b {
		regs = append(regs, p.RegularMs)
		waws = append(waws, p.WaWWaPMs)
	}
	if wcet.Variability(waws) > 1.5 {
		t.Errorf("WaW+WaP placement variability %.2fx, expected narrow (paper ~20%%)", wcet.Variability(waws))
	}
	if wcet.Variability(regs) < 2*wcet.Variability(waws) {
		t.Errorf("regular placement variability (%.1fx) should dwarf WaW+WaP's (%.2fx)",
			wcet.Variability(regs), wcet.Variability(waws))
	}
}

// Claim (Section IV): the average-performance cost of the guarantees is
// negligible.
func TestClaimAveragePerformance(t *testing.T) {
	res, err := core.AveragePerformance(4, 4, "canrdr", 100, 30_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.DegradationPct > 5 {
		t.Errorf("average-performance degradation %.2f%%, paper reports < 1%%", res.DegradationPct)
	}
}

// Claim (Section III): the hardware additions cost less than 5% NoC area.
func TestClaimAreaOverhead(t *testing.T) {
	cmp, err := core.AreaOverhead(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.OverheadPercent() >= 5 || cmp.OverheadPercent() <= 0 {
		t.Errorf("area overhead %.2f%%, expected in (0, 5)", cmp.OverheadPercent())
	}
}

// Claim (Section II.B / Figure 1(b)): chained round-robin arbitration shares
// bandwidth unfairly between near and far flows, and the WaW+WaP design
// removes most of that gap. Verified on the cycle-accurate simulator with a
// saturating all-to-one pattern.
func TestClaimFairnessUnderCongestion(t *testing.T) {
	measureGap := func(design network.Design) float64 {
		d := mesh.MustDim(6, 1)
		net := network.MustNew(network.DefaultConfig(d, design))
		worst := map[flit.FlowID]uint64{}
		net.DeliveryHook = func(m *flit.Message, _ uint64) {
			worst[m.Flow] = max(worst[m.Flow], m.DeliveredAt-m.CreatedAt)
		}
		dst := mesh.Node{X: 0, Y: 0}
		near := mesh.Node{X: 1, Y: 0}
		far := mesh.Node{X: 5, Y: 0}
		const msgs = 60
		for i := 0; i < msgs; i++ {
			for _, src := range d.AllNodes() {
				if src == dst {
					continue
				}
				msg := &flit.Message{Flow: flit.FlowID{Src: src, Dst: dst}, PayloadBits: traffic.RequestPayloadBits, Class: flit.ClassRequest}
				if _, err := net.Send(msg); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !net.RunUntilDrained(1_000_000) {
			t.Fatalf("%v: did not drain", design)
		}
		nearMax := worst[flit.FlowID{Src: near, Dst: dst}]
		farMax := worst[flit.FlowID{Src: far, Dst: dst}]
		return float64(farMax) / float64(nearMax)
	}
	regGap := measureGap(network.DesignRegular)
	wawGap := measureGap(network.DesignWaWWaP)
	if wawGap >= regGap {
		t.Errorf("WaW+WaP should narrow the far/near worst-latency gap: regular %.2fx, WaW+WaP %.2fx", regGap, wawGap)
	}
}
