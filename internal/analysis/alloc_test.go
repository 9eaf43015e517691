// Allocation-regression tests for the analytical fast path: the route walk,
// the per-flow bounds and the whole one-flit Table II summary must stay at 0
// allocs/op, and a model build at a constant count independent of the grid,
// so the flat-indexed engine cannot silently regress to
// map-and-route-materialising behaviour. Under -race the workloads still run
// but the counts are not asserted (the instrumentation allocates), mirroring
// the simulator's TestStepZeroAllocs* convention.
package analysis

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/flows"
	"repro/internal/mesh"
	"repro/internal/network"
)

// assertAllocsPerRun runs fn through testing.AllocsPerRun and asserts the
// average is zero (outside -race builds).
func assertAllocsPerRun(t *testing.T, what string, runs int, fn func()) {
	t.Helper()
	allocs := testing.AllocsPerRun(runs, fn)
	if raceEnabled {
		t.Logf("%s: %v allocs/op (not asserted under -race)", what, allocs)
		return
	}
	if allocs != 0 {
		t.Errorf("%s: %v allocs/op, want 0", what, allocs)
	}
}

// TestRouteWalkZeroAllocs: the callback walker must not allocate.
func TestRouteWalkZeroAllocs(t *testing.T) {
	d := mesh.MustDim(8, 8)
	src, dst := mesh.Node{X: 7, Y: 7}, mesh.Node{X: 0, Y: 0}
	hops := 0
	assertAllocsPerRun(t, "WalkXY", 1000, func() {
		hops = 0
		if err := mesh.WalkXY(d, src, dst, func(mesh.Hop) bool { hops++; return true }); err != nil {
			t.Fatal(err)
		}
	})
	if hops != src.ManhattanDistance(dst)+1 {
		t.Fatalf("walked %d hops, want %d", hops, src.ManhattanDistance(dst)+1)
	}
}

// TestPacketWCTTZeroAllocs: both per-flow bounds, and the MessageWCTT point
// query every serve bound goes through, are pure arithmetic over the
// model's flat precomputed state.
func TestPacketWCTTZeroAllocs(t *testing.T) {
	m := MustNewModel(DefaultParams(mesh.MustDim(8, 8)))
	src, dst := mesh.Node{X: 7, Y: 7}, mesh.Node{X: 0, Y: 0}
	var sink uint64
	assertAllocsPerRun(t, "RegularPacketWCTT", 1000, func() {
		v, err := m.RegularPacketWCTT(src, dst, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		sink += v
	})
	assertAllocsPerRun(t, "WaWPacketWCTT", 1000, func() {
		v, err := m.WaWPacketWCTT(src, dst, 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		sink += v
	})
	for _, spec := range []mesh.TopoSpec{{Kind: mesh.TopoMesh}, {Kind: mesh.TopoCMesh, Conc: 2}} {
		p := DefaultParams(mesh.MustDim(8, 8))
		p.Topo = spec
		tm := MustNewModel(p)
		for _, design := range allDesigns {
			assertAllocsPerRun(t, "MessageWCTT/"+spec.String()+"/"+design.String(), 1000, func() {
				v, err := tm.MessageWCTT(design, src, dst, 512)
				if err != nil {
					t.Fatal(err)
				}
				sink += v
			})
		}
	}
	if sink == 0 {
		t.Fatal("bounds were zero; the assertions covered dead code")
	}
}

// TestNewModelAllocs: a model is built in one pass over the routers that
// reads its contender and output-share planes off closed forms, so it makes
// the same few allocations — the struct, its planes, the endpoint list and
// map, the distinct-row numbering — on any grid; per-router legal-input
// slices (about 120 000 allocations at 64x64) would scale with the routers.
// The simulator's weight table is likewise a constant handful.
func TestNewModelAllocs(t *testing.T) {
	const maxModelAllocs = 20
	for _, spec := range []mesh.TopoSpec{{Kind: mesh.TopoMesh}, {Kind: mesh.TopoCMesh, Conc: 4}} {
		var counts []float64
		for _, size := range []int{8, 64} {
			p := DefaultParams(mesh.MustDim(size, size))
			p.Topo = spec
			counts = append(counts, testing.AllocsPerRun(20, func() { MustNewModel(p) }))
		}
		t.Logf("%v: NewModel %v allocs at 8x8 and 64x64", spec, counts)
		if !raceEnabled && (counts[0] != counts[1] || counts[1] > maxModelAllocs) {
			t.Errorf("%v: NewModel made %v allocs at 8x8 and %v at 64x64, want the same count, at most %d", spec, counts[0], counts[1], maxModelAllocs)
		}
	}
	var counts []float64
	for _, size := range []int{2, 8, 64} {
		topo := mesh.Plain(mesh.MustDim(size, size))
		counts = append(counts, testing.AllocsPerRun(20, func() { flows.WeightTableFor(topo) }))
	}
	t.Logf("WeightTableFor: %v allocs at 2x2, 8x8 and 64x64", counts)
	if !raceEnabled && (counts[0] != counts[1] || counts[1] != counts[2]) {
		t.Errorf("WeightTableFor made %v allocs at 2x2, 8x8 and 64x64, want one constant", counts)
	}
}

// TestOneFlitSummaryZeroAllocs: the whole O(N^2) Table II cell — every
// ordered pair of an 8x8 mesh — must run allocation-free for both designs.
// The summary streams the all-pairs kernels, so this also pins the pooled
// column states, source-row block and rows at steady-state zero
// (AllocsPerRun's warmup iteration fills the pool).
func TestOneFlitSummaryZeroAllocs(t *testing.T) {
	m := MustNewModel(DefaultParams(mesh.MustDim(8, 8)))
	for _, design := range []network.Design{network.DesignRegular, network.DesignWaWWaP} {
		var last WCTTSummary
		assertAllocsPerRun(t, "SummarizeOneFlitWCTT/"+design.String(), 20, func() {
			s, err := m.SummarizeOneFlitWCTT(design)
			if err != nil {
				t.Fatal(err)
			}
			last = s
		})
		if last.Flows != 64*63 {
			t.Fatalf("%v: summarised %d flows, want %d", design, last.Flows, 64*63)
		}
	}
}

// TestRegularSummaryStreams: a regular summary's transient memory is the
// column states (two planes of N*H words), the X-segment maps of each distinct
// X-contender row (2*W^2 words, one row on the mesh) and one source-row block
// (W*N bounds), never an N^2 table. With the scratch pool emptied by two GC
// cycles, one 48x48 summary at GOMAXPROCS 1 may allocate streamBudget, 2.6
// MiB; the N^2 table alone would be 42 MiB. The producers' slices add up to
// that one block, so four producers may allocate no more than one, bar
// producerOverhead (one full-row block per extra producer would be 0.85 MiB
// each).
func TestRegularSummaryStreams(t *testing.T) {
	m := MustNewModel(DefaultParams(mesh.MustDim(48, 48)))
	if len(m.xRep) != 1 {
		t.Fatalf("the 48x48 mesh has %d distinct X-contender rows, want 1", len(m.xRep))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cold := func(procs int) uint64 {
		runtime.GOMAXPROCS(procs)
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := m.SummarizeOneFlitWCTT(network.DesignRegular)
		runtime.ReadMemStats(&after)
		if err != nil || s.Flows != 2304*2303 {
			t.Fatalf("summary %+v, err %v", s, err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	one, four := cold(1), cold(4)
	t.Logf("cold 48x48 regular summary: %d bytes at GOMAXPROCS 1, %d at 4 (budget %d)", one, four, streamBudget(48, 48))
	if one > streamBudget(48, 48) {
		t.Fatalf("cold 48x48 regular summary at GOMAXPROCS 1 allocated %d bytes, want <= %d", one, streamBudget(48, 48))
	}
	if four > one+producerOverhead {
		t.Fatalf("cold 48x48 regular summary allocated %d bytes at GOMAXPROCS 4, %d at 1; four producers may add at most %d", four, one, producerOverhead)
	}
}

// streamBudget is the bytes a cold regular summary on a W x H mesh may
// allocate: its scratch words (column states 2*H*N, the X-segment maps of one
// distinct row 2*W^2, a block W*N, one endpoint row N), the 4096-word buffer
// the empty pool's New makes first, and 8 KiB for the runtime.
func streamBudget(W, H int) uint64 {
	n := W * H
	return uint64(8*(2*H*n+2*W*W+W*n+n)) + 8*4096 + 8<<10
}

// producerOverhead bounds what P > 1 producers may allocate beside the
// scratch one producer uses: their goroutines, turn channels and shared run
// (about 3 KiB in 16 allocations at P = 4).
const producerOverhead = 16 << 10

// TestKernelZeroAllocs: the all-pairs kernels and the all-cores round-trip
// row (two pooled BatchMessageWCTT lists) with a warm caller buffer are pure
// table fills — 0 allocs for the whole N^2 (or N) sweep, i.e. 0 allocs/pair,
// for a regular and a WaW design, on both the identity-map mesh and the
// row-expansion concentrated mesh (whose router rows are pooled).
func TestKernelZeroAllocs(t *testing.T) {
	d := mesh.MustDim(8, 8)
	mm := MustNewModel(DefaultParams(d))
	cp := DefaultParams(d)
	cp.Topo = mesh.TopoSpec{Kind: mesh.TopoCMesh, Conc: 4}
	cm := MustNewModel(cp)
	var sink uint64
	for _, tc := range []struct {
		name string
		m    *Model
	}{{"mesh", mm}, {"cmesh4", cm}} {
		buf := make([]uint64, d.Nodes()*d.Nodes())
		assertAllocsPerRun(t, tc.name+"/AllPairsRegularPacketWCTT", 20, func() {
			var err error
			buf, err = tc.m.AllPairsRegularPacketWCTT(4, 4, buf)
			if err != nil {
				t.Fatal(err)
			}
			sink += buf[1]
		})
		assertAllocsPerRun(t, tc.name+"/AllPairsWaWPacketWCTT", 20, func() {
			var err error
			buf, err = tc.m.AllPairsWaWPacketWCTT(5, 1, buf)
			if err != nil {
				t.Fatal(err)
			}
			sink += buf[1]
		})
		row := make([]uint64, d.Nodes())
		for _, design := range []network.Design{network.DesignRegular, network.DesignWaWWaP} {
			assertAllocsPerRun(t, tc.name+"/AllCoresRoundTripUBD/"+design.String(), 100, func() {
				var err error
				row, err = tc.m.AllCoresRoundTripUBD(context.Background(), design, mesh.Node{X: 3, Y: 2}, 48, 512, row)
				if err != nil {
					t.Fatal(err)
				}
				sink += row[1]
			})
		}
	}
	if sink == 0 {
		t.Fatal("kernel outputs were zero; the assertions covered dead code")
	}
}
