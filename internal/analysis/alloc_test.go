// Allocation-regression tests for the analytical fast path: the route walk,
// the per-flow bounds and the whole one-flit Table II summary must stay at 0
// allocs/op so the flat-indexed engine cannot silently regress to
// map-and-route-materialising behaviour. Under -race the workloads still run
// but the counts are not asserted (the instrumentation allocates), mirroring
// the simulator's TestStepZeroAllocs* convention.
package analysis

import (
	"runtime"
	"testing"

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

// TestRouteWalkZeroAllocs: the callback walker and the caller-buffer walker
// (with a warm buffer) must not allocate.
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
	buf := make([]mesh.Hop, 0, d.Width+d.Height)
	assertAllocsPerRun(t, "AppendXYHops (warm buffer)", 1000, func() {
		var err error
		buf, err = mesh.AppendXYHops(buf[:0], d, src, dst)
		if err != nil {
			t.Fatal(err)
		}
	})
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
// column states (N*H pairs) plus one source-row block (W*(N+8) bounds), never
// an N^2 table. With the scratch pool emptied by two GC cycles, one 48x48
// summary may allocate 2.6 MiB of them; the N^2 table alone would be 42 MiB.
// The producers' slices add up to that one block, so four producers may
// allocate no more than one, bar producerOverhead (one full-row block per
// extra producer would be 0.85 MiB each).
func TestRegularSummaryStreams(t *testing.T) {
	m := MustNewModel(DefaultParams(mesh.MustDim(48, 48)))
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
		got := after.TotalAlloc - before.TotalAlloc
		if got > 8<<20 {
			t.Fatalf("cold 48x48 regular summary at GOMAXPROCS %d allocated %d bytes, want <= 8 MiB", procs, got)
		}
		return got
	}
	one, four := cold(1), cold(4)
	t.Logf("cold 48x48 regular summary: %d bytes at GOMAXPROCS 1, %d at 4", one, four)
	if four > one+producerOverhead {
		t.Fatalf("cold 48x48 regular summary allocated %d bytes at GOMAXPROCS 4, %d at 1; four producers may add at most %d", four, one, producerOverhead)
	}
}

// producerOverhead bounds what P > 1 producers may allocate beside the
// scratch one producer uses: their goroutines, turn channels and shared run
// (about 3 KiB in 16 allocations at P = 4).
const producerOverhead = 16 << 10

// TestKernelZeroAllocs: the all-pairs and row kernels with a warm caller
// buffer are pure table fills — 0 allocs for the whole N^2 (or N) sweep,
// i.e. 0 allocs/pair, on both the identity-map mesh and the
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
		assertAllocsPerRun(t, tc.name+"/AllSourcesMessageWCTT", 100, func() {
			var err error
			row, err = tc.m.AllSourcesMessageWCTT(network.DesignRegular, mesh.Node{}, 48, row)
			if err != nil {
				t.Fatal(err)
			}
			sink += row[1]
		})
		assertAllocsPerRun(t, tc.name+"/AllDestinationsMessageWCTT", 100, func() {
			var err error
			row, err = tc.m.AllDestinationsMessageWCTT(network.DesignWaWWaP, mesh.Node{}, 512, row)
			if err != nil {
				t.Fatal(err)
			}
			sink += row[1]
		})
	}
	if sink == 0 {
		t.Fatal("kernel outputs were zero; the assertions covered dead code")
	}
}
