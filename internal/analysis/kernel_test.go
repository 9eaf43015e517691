package analysis

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/mesh"
	"repro/internal/network"
)

// kernelTopoSpecs lists the analytical topologies the kernels must cover:
// the plain mesh (identity endpoint/router map) and both concentrated
// meshes (router-table expansion path).
var kernelTopoSpecs = []mesh.TopoSpec{
	{Kind: mesh.TopoMesh},
	{Kind: mesh.TopoCMesh, Conc: 2},
	{Kind: mesh.TopoCMesh, Conc: 4},
}

// kernelDims are the grids of the kernel equivalence matrix: squares, a
// rectangle (asymmetric X/Y sweeps) and a large mesh.
func kernelDims(t *testing.T) []mesh.Dim {
	t.Helper()
	dims := []mesh.Dim{mesh.MustDim(4, 4), mesh.MustDim(5, 3), mesh.MustDim(8, 8)}
	if !testing.Short() {
		dims = append(dims, mesh.MustDim(16, 16))
	}
	return dims
}

// kernelModels builds one model per valid (dim, topo) combination of the
// kernel matrix.
func kernelModels(t *testing.T) []*Model {
	t.Helper()
	return modelsFor(kernelDims(t))
}

// modelsFor builds one model per valid (dim, topo) combination; invalid
// combinations (a concentrated mesh on an indivisible grid) are skipped —
// NewModel's rejection of those is pinned by
// TestCMeshModelRejectsIndivisibleGrid.
func modelsFor(dims []mesh.Dim) []*Model {
	var models []*Model
	for _, d := range dims {
		for _, spec := range kernelTopoSpecs {
			p := DefaultParams(d)
			p.Topo = spec
			m, err := NewModel(p)
			if err != nil {
				continue
			}
			models = append(models, m)
		}
	}
	return models
}

// wideSlotModel is an 8x8 mesh whose minimum packet is two flits: a 512-bit
// WaW+WaP message is P = 3 packets of slot = 2 flits, so the (P-1)*maxShare*
// slot admission term and a hop-cost table with slot > 1 are live through the
// message-level kernels (on the default link slot is 1 whenever P > 1).
func wideSlotModel() *Model {
	p := DefaultParams(mesh.MustDim(8, 8))
	p.Link.MinPacketFlits = 2
	return MustNewModel(p)
}

// saturatingModels are the grids on which the chained-blocking bound
// overflows 64 bits on the longer routes, so the clamp to MaxUint64 decides
// part of every row — of the column states and the X-segment maps, both line
// sweeps of segment maps (segFold.line), and of their application
// (regularApply): square meshes from 32x32 up, one-dimensional stretches in X
// (contender count 2 per hop, the slowest compounding) and in Y, a rectangle,
// and both concentrated meshes on 64x64 endpoints. Building them costs milliseconds; only walking
// all their pairs is expensive, and the callers choose how much of that to do.
func saturatingModels() []*Model {
	var models []*Model
	for _, d := range []mesh.Dim{mesh.MustDim(64, 3), mesh.MustDim(3, 64), mesh.MustDim(32, 32), mesh.MustDim(32, 64),
		mesh.MustDim(48, 48), mesh.MustDim(64, 64)} {
		models = append(models, MustNewModel(DefaultParams(d)))
	}
	for _, conc := range []int{2, 4} {
		p := DefaultParams(mesh.MustDim(64, 64))
		p.Topo = mesh.TopoSpec{Kind: mesh.TopoCMesh, Conc: conc}
		models = append(models, MustNewModel(p))
	}
	return models
}

// compareTable checks an all-pairs table against the per-pair bound want:
// every entry bit-identical, self-flow entries 0.
func compareTable(t *testing.T, m *Model, what string, tab []uint64, want func(src, dst mesh.Node) (uint64, error)) {
	t.Helper()
	nodes := m.Params().Dim.AllNodes()
	n := len(nodes)
	for si, src := range nodes {
		for di, dst := range nodes {
			var ref uint64
			if src != dst {
				var err error
				if ref, err = want(src, dst); err != nil {
					t.Fatal(err)
				}
			}
			if got := tab[si*n+di]; got != ref {
				t.Fatalf("%v %v %s %v->%v: kernel %d != pairwise %d", m.Params().Topo, m.Params().Dim, what, src, dst, got, ref)
			}
		}
	}
}

// allPairsMessageWCTT runs the all-pairs kernel a message of the given payload
// selects: the same per-design packetisation as the point query MessageWCTT
// (messageShape), so the tables below are compared entry for entry with it.
func (m *Model) allPairsMessageWCTT(design network.Design, payloadBits int, buf []uint64) ([]uint64, error) {
	sh, err := m.messageShape(design, payloadBits)
	if err != nil {
		return nil, err
	}
	if sh.waw {
		return m.AllPairsWaWPacketWCTT(sh.a, sh.b, buf)
	}
	return m.AllPairsRegularPacketWCTT(sh.a, sh.b, buf)
}

// TestAllPairsMatchesPairwise pins every entry of the all-pairs kernel
// tables bit-identical to the per-pair route walk, across designs, dims
// and topologies, for both the one-flit (Table II) configuration and
// realistic message payloads.
func TestAllPairsMatchesPairwise(t *testing.T) {
	payloads := []int{48, 512}
	// Beside the kernel matrix: the wide-slot link, the two saturating
	// stretches (cheap at 192 nodes) and, outside -short, a 32x32 mesh whose
	// corner-to-corner region saturates.
	models := append(kernelModels(t), wideSlotModel(),
		MustNewModel(DefaultParams(mesh.MustDim(64, 3))), MustNewModel(DefaultParams(mesh.MustDim(3, 64))))
	if !testing.Short() {
		models = append(models, MustNewModel(DefaultParams(mesh.MustDim(32, 32))))
	}
	var buf []uint64
	for _, m := range models {
		for _, design := range allDesigns {
			var err error
			if buf, err = m.AllPairsOneFlitWCTT(design, buf); err != nil {
				t.Fatal(err)
			}
			compareTable(t, m, design.String()+" one-flit", buf, func(src, dst mesh.Node) (uint64, error) {
				return m.FlowWCTTOneFlit(design, src, dst)
			})
			for _, bits := range payloads {
				if buf, err = m.allPairsMessageWCTT(design, bits, buf); err != nil {
					t.Fatal(err)
				}
				compareTable(t, m, fmt.Sprintf("%v message(%d bits)", design, bits), buf, func(src, dst mesh.Node) (uint64, error) {
					return m.MessageWCTT(design, src, dst, bits)
				})
			}
		}
		// Packet shapes no default-link message produces: P > 1 together
		// with slot > 1 (admission term and hop-cost table both scaled), and
		// a long packet among shorter contenders ((S-1)*interval live).
		// Mutations these catch: reading a hop cost from the wrong port's
		// plane (any shape — every output has its own share), and dropping
		// the slot factor from either the table or the admission term (only
		// slot > 1, and for the latter only P > 1).
		var err error
		if buf, err = m.AllPairsWaWPacketWCTT(5, 3, buf); err != nil {
			t.Fatal(err)
		}
		compareTable(t, m, "WaW P=5 slot=3", buf, func(src, dst mesh.Node) (uint64, error) {
			return m.WaWPacketWCTT(src, dst, 5, 3)
		})
		if buf, err = m.AllPairsRegularPacketWCTT(6, 3, buf); err != nil {
			t.Fatal(err)
		}
		compareTable(t, m, "regular S=6 L=3", buf, func(src, dst mesh.Node) (uint64, error) {
			return m.RegularPacketWCTT(src, dst, 6, 3)
		})
	}
}

// TestRowKernelsMatchPairwise pins AllCoresRoundTripUBD, the wcet engine's
// per-core UBD row built from two BatchMessageWCTT query lists, to the
// per-pair RoundTripUBD for every core: with the controller at a corner, the
// far corner and an inner node of the kernel matrix, and at every node of
// every mesh, cmesh2 and cmesh4 grid up to 6x6 — the first and the last core
// of the query lists, co-located cmesh cores and the 1x1 grid, whose lists
// are empty, included.
func TestRowKernelsMatchPairwise(t *testing.T) {
	for _, m := range saturatingModels() {
		checkSaturationBoundary(t, m)
	}
	var row []uint64
	check := func(m *Model, memory mesh.Node) {
		t.Helper()
		d := m.Params().Dim
		for _, design := range allDesigns {
			var err error
			if row, err = m.AllCoresRoundTripUBD(context.Background(), design, memory, 48, 512, row); err != nil {
				t.Fatal(err)
			}
			if len(row) != d.Nodes() {
				t.Fatalf("%v %v %v memory %v: row of %d entries, want %d", m.Params().Topo, d, design, memory, len(row), d.Nodes())
			}
			for i, core := range d.AllNodes() {
				want, err := m.RoundTripUBD(design, core, memory, 48, 512)
				if err != nil {
					t.Fatal(err)
				}
				if row[i] != want {
					t.Fatalf("%v %v %v AllCoresRoundTripUBD core %v memory %v: kernel %d != pairwise %d",
						m.Params().Topo, d, design, core, memory, row[i], want)
				}
			}
		}
	}
	for _, m := range append(kernelModels(t), wideSlotModel()) {
		d := m.Params().Dim
		for _, memory := range []mesh.Node{{X: 0, Y: 0}, {X: d.Width - 1, Y: d.Height - 1}, {X: d.Width / 2, Y: d.Height / 3}} {
			check(m, memory)
		}
	}
	var small []mesh.Dim
	for w := 1; w <= 6; w++ {
		for h := 1; h <= 6; h++ {
			small = append(small, mesh.MustDim(w, h))
		}
	}
	for _, m := range modelsFor(small) {
		for _, memory := range m.Params().Dim.AllNodes() {
			check(m, memory)
		}
	}
}

// batchToRow is the bound of design's payloadBits-bit message from every
// endpoint to dst, as one BatchMessageWCTT query list, laid out by dense
// source index with the dst entry 0.
func batchToRow(t *testing.T, m *Model, design network.Design, dst mesh.Node, payloadBits int, row []uint64) []uint64 {
	t.Helper()
	nodes := m.Params().Dim.AllNodes()
	at := m.Params().Dim.Index(dst)
	got, err := m.BatchMessageWCTT(context.Background(), design, len(nodes)-1, func(k int) (mesh.Node, mesh.Node, int) {
		if k >= at {
			k++
		}
		return nodes[k], dst, payloadBits
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return append(append(append(row[:0], got[:at]...), 0), got[at:]...)
}

// TestRegularKernelsDistinctXRows: no shipped topology has two router rows
// with different X contender counts, so every kernel run builds one row of
// X-segment maps. Here the counts of some rows are redrawn — rows 1 and 3
// alike, row 4 on its own, in both travel directions — and the all-pairs
// table, a summary at 1 and 4 producers and, for every destination, the
// BatchMessageWCTT row from every source must still match the per-pair walk
// over the same counts.
func TestRegularKernelsDistinctXRows(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	m := MustNewModel(DefaultParams(mesh.MustDim(17, 16)))
	W := m.rdim.Width
	for x := 0; x < W; x++ {
		for _, y := range []int{1, 3} {
			m.contender[mesh.XPlus][y*W+x] += uint64(x % 3)
		}
		m.contender[mesh.XMinus][4*W+x] += uint64(1 + x%2)
	}
	m.xRow, m.xRep = m.distinctXRows()
	if len(m.xRep) != 3 || m.xRow[1] != m.xRow[3] || m.xRow[4] == m.xRow[0] {
		t.Fatalf("distinct X rows %v (first rows %v); want rows 1 and 3 together, row 4 alone and the rest together", m.xRow, m.xRep)
	}
	want := func(src, dst mesh.Node) (uint64, error) { return m.RegularPacketWCTT(src, dst, 6, 3) }
	tab, err := m.AllPairsRegularPacketWCTT(6, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	compareTable(t, m, "regular S=6 L=3, redrawn X rows", tab, want)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		got, err1 := m.SummarizeOneFlitWCTT(network.DesignRegular)
		ref, err2 := pairwiseSummary(m, network.DesignRegular)
		if err1 != nil || err2 != nil || got != ref {
			t.Fatalf("GOMAXPROCS %d: summary %+v (%v), pairwise %+v (%v)", procs, got, err1, ref, err2)
		}
	}
	var row []uint64
	for _, design := range []network.Design{network.DesignRegular, network.DesignWaPOnly} {
		for _, dst := range m.rdim.AllNodes() {
			row = batchToRow(t, m, design, dst, 512, row)
			for i, src := range m.rdim.AllNodes() {
				if v, _ := m.MessageWCTT(design, src, dst, 512); src != dst && row[i] != v {
					t.Fatalf("%v BatchMessageWCTT %v->%v: %d, pairwise %d", design, src, dst, row[i], v)
				}
			}
		}
	}
}

// checkSaturationBoundary is the row-level oracle of the clamp identity: the
// kernels regroup the walk's saturating fold (column states, then one
// X-segment map per source), and that gives the same value only because
// saturating + and * equal the exact result clamped to MaxUint64. For
// destinations at the corners, an edge and the centre it compares the whole
// BatchMessageWCTT row from every source (one group: the column states and
// X-segment maps every regular kernel is made of) with the per-pair walk, and requires
// the row to contain saturation boundaries — a finite bound next to a
// MaxUint64 one along a source row (the X maps) or along a source column (the
// column states) — so the sources around the first saturated one, in both
// directions, are among those compared.
//
// Mutations this catches: a wrapping + in regularApply or regularColStates
// turns a saturated source near a boundary into a finite value; treating a
// total >= 2^63 as saturated turns the last finite source before a boundary
// into MaxUint64. The map steps themselves (regularSegHop) take no shipped
// grid's intermediate sums past 2^64, so FuzzRegularSegmentMap guards them.
func checkSaturationBoundary(t *testing.T, m *Model) {
	t.Helper()
	d := m.Params().Dim
	nodes := d.AllNodes()
	boundaries := 0
	var row []uint64
	for _, dst := range []mesh.Node{{}, {X: d.Width - 1}, {Y: d.Height - 1}, {X: d.Width - 1, Y: d.Height - 1},
		{X: d.Width / 2}, {X: d.Width / 2, Y: d.Height / 2}} {
		for _, design := range []network.Design{network.DesignRegular, network.DesignWaPOnly} {
			row = batchToRow(t, m, design, dst, 512, row)
			for i, src := range nodes {
				if src == dst {
					continue
				}
				want, err := m.MessageWCTT(design, src, dst, 512)
				if err != nil {
					t.Fatal(err)
				}
				if row[i] != want {
					t.Fatalf("%v %v %v %v->%v: kernel %d != pairwise %d (saturated: kernel %v, pairwise %v)",
						m.Params().Topo, d, design, src, dst, row[i], want, row[i] == math.MaxUint64, want == math.MaxUint64)
				}
				sat := want == math.MaxUint64
				if src.X+1 < d.Width && sat != (row[i+1] == math.MaxUint64) {
					boundaries++
				}
				if src.Y+1 < d.Height && sat != (row[i+d.Width] == math.MaxUint64) {
					boundaries++
				}
			}
		}
	}
	if boundaries == 0 {
		t.Fatalf("%v %v: no saturation boundary in any sampled row; the grid no longer exercises the clamp", m.Params().Topo, d)
	}
}

// summaryModels extends the kernel matrix with the grids where the summary's
// streaming is most exposed: degenerate 1xN / Nx1 / 1x1 meshes (empty row or
// column sweeps, no flows at all), a wide rectangle whose source-row blocks
// are far from square (mesh and both concentrations), the two saturating
// stretches, a 17x16 mesh that runs on several producers whose column slices
// cannot be equal (17 is no multiple of 2, 3 or 4) and — outside -short — a
// 32x32 mesh, where most regular bounds saturate at 2^64-1 and the in-order
// float sum is exactly where a changed fold order would show.
func summaryModels(t *testing.T) []*Model {
	t.Helper()
	models := append(kernelModels(t),
		modelsFor([]mesh.Dim{mesh.MustDim(1, 1), mesh.MustDim(1, 7), mesh.MustDim(7, 1), mesh.MustDim(16, 8),
			mesh.MustDim(64, 3), mesh.MustDim(3, 64), mesh.MustDim(17, 16)})...)
	if !testing.Short() {
		models = append(models, MustNewModel(DefaultParams(mesh.MustDim(32, 32))))
	}
	return models
}

// saturatingSummaryModels are the grids on which the REGULAR summary is
// checked alone: mostly MaxUint64, so the clamp decides most of every block.
// The per-pair oracle walks O(N^2 * hops) hops, so -short samples 32x32 only
// (summaryModels covers it otherwise) and the full run takes 48x48, 64x64
// and both concentrations of 32x64 endpoints — except under the race
// detector, which is 5-10x slower and has nothing to find in single-threaded
// arithmetic; there the row-level checkSaturationBoundary covers these grids.
func saturatingSummaryModels() []*Model {
	if testing.Short() {
		return []*Model{MustNewModel(DefaultParams(mesh.MustDim(32, 32)))}
	}
	if raceEnabled {
		return nil
	}
	models := []*Model{MustNewModel(DefaultParams(mesh.MustDim(48, 48))), MustNewModel(DefaultParams(mesh.MustDim(64, 64)))}
	for _, conc := range []int{2, 4} {
		p := DefaultParams(mesh.MustDim(32, 64))
		p.Topo = mesh.TopoSpec{Kind: mesh.TopoCMesh, Conc: conc}
		models = append(models, MustNewModel(p))
	}
	return models
}

// TestSummarizeMatchesPairwise pins the kernel-backed summary — including
// its float mean (the in-order sum of the bounds divided by their count),
// which is fold-order-sensitive — to the plain per-pair loop over the route
// walk across designs, dims and topologies.
func TestSummarizeMatchesPairwise(t *testing.T) {
	check := func(m *Model, design network.Design) WCTTSummary {
		t.Helper()
		fast, err1 := m.SummarizeOneFlitWCTT(design)
		ref, err2 := pairwiseSummary(m, design)
		if err1 != nil || err2 != nil {
			t.Fatalf("%v %v %v: errors %v / %v", m.Params().Topo, m.Params().Dim, design, err1, err2)
		}
		if fast != ref {
			t.Fatalf("%v %v %v: kernel summary %+v != pairwise %+v", m.Params().Topo, m.Params().Dim, design, fast, ref)
		}
		return fast
	}
	for _, m := range summaryModels(t) {
		for _, design := range allDesigns {
			check(m, design)
		}
	}
	for _, m := range saturatingSummaryModels() {
		if s := check(m, network.DesignRegular); s.Max != math.MaxUint64 {
			t.Fatalf("%v %v: regular summary max %d is not saturated; the grid no longer covers the saturating fold",
				m.Params().Topo, m.Params().Dim, s.Max)
		}
	}
}

// TestSummaryIndependentOfProcs: the all-pairs producers split each router
// row of sources into min(GOMAXPROCS, 4) column slices, and nothing they
// produce may depend on how many there are. The WaW summaries (the closed
// form) and the WaW table (one row sweep per source) run on the caller, and
// must not depend on the core count either. Under GOMAXPROCS 1, 2, 3, 4 and 8
// every summary (all four designs, float mean included) and both all-pairs
// tables must equal the GOMAXPROCS 1 result, on grids whose router width is
// no multiple of the producer count, a saturating 48x48 mesh (slices whose
// sources saturate far from the destination column) and both
// concentrated meshes (one producer whatever GOMAXPROCS, feeding one or two
// endpoint rows per router row). Up to 16x16 routers the
// GOMAXPROCS 1 summary is also checked against the per-pair fold. The 48x48
// mesh is left to the plain run: under the race detector its tables cost a
// few hundred MiB, and the other parallel grids give the detector the same
// producers to watch.
func TestSummaryIndependentOfProcs(t *testing.T) {
	dims := []mesh.Dim{mesh.MustDim(1, 40), mesh.MustDim(40, 1), mesh.MustDim(17, 9), mesh.MustDim(33, 16), mesh.MustDim(31, 31)}
	if !raceEnabled {
		dims = append(dims, mesh.MustDim(48, 48))
	}
	var models []*Model
	for _, d := range dims {
		models = append(models, MustNewModel(DefaultParams(d)))
	}
	for _, c := range []struct {
		d    mesh.Dim
		conc int
	}{{mesh.MustDim(16, 8), 2}, {mesh.MustDim(32, 32), 4}} {
		p := DefaultParams(c.d)
		p.Topo = mesh.TopoSpec{Kind: mesh.TopoCMesh, Conc: c.conc}
		models = append(models, MustNewModel(p))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var regular, waw []uint64
	for _, m := range models {
		name := fmt.Sprintf("%v %v", m.Params().Topo, m.Params().Dim)
		runtime.GOMAXPROCS(1)
		want := make(map[network.Design]WCTTSummary)
		for _, design := range allDesigns {
			s, err := m.SummarizeOneFlitWCTT(design)
			if err != nil {
				t.Fatal(err)
			}
			want[design] = s
			if m.rdim.Nodes() <= 16*16 {
				if ref, err := pairwiseSummary(m, design); err != nil || s != ref {
					t.Fatalf("%s %v: summary %+v != pairwise %+v (%v)", name, design, s, ref, err)
				}
			}
		}
		wantRegular, err := m.AllPairsRegularPacketWCTT(1, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantWaW, err := m.AllPairsWaWPacketWCTT(1, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{2, 3, 4, 8} {
			runtime.GOMAXPROCS(procs)
			for _, design := range allDesigns {
				if s, err := m.SummarizeOneFlitWCTT(design); err != nil || s != want[design] {
					t.Fatalf("%s %v GOMAXPROCS %d: summary %+v (%v), want %+v", name, design, procs, s, err, want[design])
				}
			}
			if regular, err = m.AllPairsRegularPacketWCTT(1, 1, regular); err != nil {
				t.Fatal(err)
			}
			if waw, err = m.AllPairsWaWPacketWCTT(1, 1, waw); err != nil {
				t.Fatal(err)
			}
			for i := range wantRegular {
				if regular[i] != wantRegular[i] || waw[i] != wantWaW[i] {
					t.Fatalf("%s GOMAXPROCS %d: table entry %d is (regular %d, WaW %d), want (%d, %d)",
						name, procs, i, regular[i], waw[i], wantRegular[i], wantWaW[i])
				}
			}
		}
	}
}

// TestWaWSummaryClosedForm pins the WaW+WaP and WaW-only summaries, which
// wawOneFlitFold answers without visiting a pair, to the in-order fold of the
// WaW table AllPairsWaWPacketWCTT(1, 1), one group sweep per source router —
// mean bits, max, min and flows; every total here is below 2^53, where the
// correctly rounded mean is the in-order float sum's — on grids where the
// per-pair walk is too slow to be the oracle: meshes of
// 48x48, 64x64, 33x16 and 1x40, cmesh4 on 32x32 endpoints and cmesh2 on
// 16x8. Under the race detector the two large meshes are left out: their
// tables are 42 and 134 MB, and the arithmetic is single-threaded.
func TestWaWSummaryClosedForm(t *testing.T) {
	dims := []mesh.Dim{mesh.MustDim(33, 16), mesh.MustDim(1, 40)}
	if !raceEnabled {
		dims = append(dims, mesh.MustDim(48, 48), mesh.MustDim(64, 64))
	}
	var models []*Model
	for _, d := range dims {
		models = append(models, MustNewModel(DefaultParams(d)))
	}
	for _, c := range []struct {
		d    mesh.Dim
		conc int
	}{{mesh.MustDim(32, 32), 4}, {mesh.MustDim(16, 8), 2}} {
		p := DefaultParams(c.d)
		p.Topo = mesh.TopoSpec{Kind: mesh.TopoCMesh, Conc: c.conc}
		models = append(models, MustNewModel(p))
	}
	var tab []uint64
	for _, m := range models {
		name := fmt.Sprintf("%v %v", m.Params().Topo, m.Params().Dim)
		var err error
		if tab, err = m.AllPairsWaWPacketWCTT(1, 1, tab); err != nil {
			t.Fatal(err)
		}
		d := m.Params().Dim
		n := d.Nodes()
		for _, design := range []network.Design{network.DesignWaWWaP, network.DesignWaWOnly} {
			want, err := summarizePairs(m, design, func(src, dst mesh.Node) (uint64, error) {
				return tab[(src.Y*d.Width+src.X)*n+dst.Y*d.Width+dst.X], nil
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.SummarizeOneFlitWCTT(design)
			if err != nil || got != want || math.Float64bits(got.Mean) != math.Float64bits(want.Mean) {
				t.Fatalf("%s %v: closed-form summary %+v (%v), table fold %+v", name, design, got, err, want)
			}
		}
	}
}

// TestWaWSummaryClosedFormRandomShares breaks the grids' mirror symmetry. The
// output shares of a topology mirror left to right and top to bottom, so a
// scan that got one travel direction wrong could still find the global max
// and min on the mirror image of the route it mishandled. Here every output
// share of a fixed-seed stream of grids (mesh, cmesh2 and cmesh4, rectangles
// and one-wide strips included) is redrawn at random, and the closed-form
// summaries must still equal the per-pair fold over the same shares. Each
// output direction draws its shares below its own scale (2, 10^3 or 10^6),
// so that which direction dominates the extreme routes changes from grid to
// grid.
func TestWaWSummaryClosedFormRandomShares(t *testing.T) {
	rng := rand.New(rand.NewSource(0x3a57))
	scales := []int{2, 1000, 1000000}
	for it := 0; it < 200; it++ {
		p := DefaultParams(mesh.MustDim(1+rng.Intn(12), 1+rng.Intn(12)))
		p.Topo = kernelTopoSpecs[rng.Intn(len(kernelTopoSpecs))]
		m, err := NewModel(p)
		if err != nil {
			// Indivisible concentrated grid — redraw as a plain mesh.
			p.Topo = mesh.TopoSpec{Kind: mesh.TopoMesh}
			m = MustNewModel(p)
		}
		for _, shares := range m.outShare {
			scale := scales[rng.Intn(len(scales))]
			for i := range shares {
				shares[i] = 1 + uint64(rng.Intn(scale))
			}
		}
		for _, design := range []network.Design{network.DesignWaWWaP, network.DesignWaWOnly} {
			got, err1 := m.SummarizeOneFlitWCTT(design)
			want, err2 := pairwiseSummary(m, design)
			if err1 != nil || err2 != nil || got != want {
				t.Fatalf("iter %d: %v %v %v: closed-form summary %+v (%v) != pairwise %+v (%v)",
					it, p.Topo, p.Dim, design, got, err1, want, err2)
			}
		}
	}
}

// TestWaWSummaryClosedFormLimits: the 1x1 grid, which has no flow, still
// gives the zero summary. The closed form answers 128x128, the largest mesh
// the daemon accepts, from a total in (10^13, 2^53], where the mean is the
// float quotient of every pair's bound. It also answers 256x256 and 272x256,
// whose totals pass 2^53, in milliseconds, and with -short too. Their totals
// and correctly rounded means are pinned as constants: they come from
// folding every source's row of the WaW table (4.3·10^9 and 4.8·10^9 pairs)
// into a 128-bit accumulator, which takes tens of seconds. The in-order float sum of
// the 272x256 bounds is 2 ulps above the correctly rounded mean
// (0x41474abeabfec001).
func TestWaWSummaryClosedFormLimits(t *testing.T) {
	wawDesigns := []network.Design{network.DesignWaWWaP, network.DesignWaWOnly}
	one := MustNewModel(DefaultParams(mesh.MustDim(1, 1)))
	for _, design := range wawDesigns {
		if s, err := one.SummarizeOneFlitWCTT(design); err != nil || s != (WCTTSummary{Design: design, Dim: mesh.MustDim(1, 1)}) {
			t.Fatalf("1x1 %v: summary %+v (%v), want the zero summary", design, s, err)
		}
	}
	m := MustNewModel(DefaultParams(mesh.MustDim(128, 128)))
	if hi, lo := wawOneFlitTotalOf(m); hi != 0 || lo < 1e13 || lo > maxExactSum {
		t.Fatalf("128x128: total (%d, %d); want one in (10^13, 2^53]", hi, lo)
	} else {
		for _, design := range wawDesigns {
			s, err := m.SummarizeOneFlitWCTT(design)
			if err != nil || s.Flows != 16384*16383 || s.Mean != float64(lo)/float64(s.Flows) {
				t.Fatalf("128x128 %v: summary %+v (%v); want every pair and the mean %d / %d", design, s, err, lo, s.Flows)
			}
		}
	}
	for _, c := range []struct {
		w, h     int
		total    uint64
		flows    int
		max, min uint64
		meanBits uint64
	}{
		{256, 256, 12337798216417280, 4294901760, 8454016, 65537, 0x4145eaaaaaaaaaab},
		{272, 256, 14802248328544256, 4848545792, 8984568, 69633, 0x41474abeabfebfff},
	} {
		m := MustNewModel(DefaultParams(mesh.MustDim(c.w, c.h)))
		if hi, lo := wawOneFlitTotalOf(m); hi != 0 || lo != c.total || lo <= maxExactSum {
			t.Fatalf("%dx%d: total (%d, %d), want (0, %d) past 2^53", c.w, c.h, hi, lo, c.total)
		}
		for _, design := range wawDesigns {
			start := time.Now()
			s, err := m.SummarizeOneFlitWCTT(design)
			took := time.Since(start)
			want := WCTTSummary{Design: design, Dim: mesh.MustDim(c.w, c.h), Max: c.max, Min: c.min, Mean: math.Float64frombits(c.meanBits), Flows: c.flows}
			if err != nil || s != want {
				t.Fatalf("%dx%d %v: summary %+v (%v), want %+v (mean bits %#x, got %#x)",
					c.w, c.h, design, s, err, want, c.meanBits, math.Float64bits(s.Mean))
			}
			t.Logf("%dx%d %v: summary in %v", c.w, c.h, design, took)
		}
	}
}

// wawOneFlitTotalOf is the exact total wawOneFlitFold divides by the flow
// count.
func wawOneFlitTotalOf(m *Model) (hi, lo uint64) {
	rn := m.rdim.Nodes()
	cost := make([]uint64, mesh.NumDirections*rn)
	m.hopCosts(cost)
	return m.wawOneFlitTotal(func(out mesh.Direction) []uint64 { return cost[int(out)*rn:][:rn] })
}

// pollCtx is a context that reports cancellation from its cancelAt-th Err
// poll on and counts the polls, so a test can cancel a summary at an exact
// row and see how soon it returned.
type pollCtx struct {
	context.Context
	polls, cancelAt int
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.polls >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestSummarizeContextCancel: a 64x64 summary polls its context once per row
// of sources, and a regular one first once per turn column of its X maps (64
// more, one distinct X row); cancelled halfway it returns at that very poll —
// within one column's or row's work — with the context's error and no partial
// result, and the pooled scratch it abandoned serves the next summary
// unharmed. A regular summary is cancelled halfway through each phase. With
// one producer and with four alike: the turn holder polls, and a cancelled
// summary joins every producer before it returns, so no goroutine outlives
// it.
func TestSummarizeContextCancel(t *testing.T) {
	m := MustNewModel(DefaultParams(mesh.MustDim(64, 64)))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		checkSummaryCancel(t, m, procs)
	}
}

// checkSummaryCancel is TestSummarizeContextCancel under the current
// GOMAXPROCS (procs, for the messages).
func checkSummaryCancel(t *testing.T, m *Model, procs int) {
	t.Helper()
	for _, c := range []struct {
		design   network.Design
		polls    int
		cancelAt []int
	}{{network.DesignRegular, 128, []int{33, 97}}, {network.DesignWaWWaP, 64, []int{33}}} {
		design := c.design
		whole := &pollCtx{Context: context.Background(), cancelAt: math.MaxInt}
		want, err := m.SummarizeOneFlitWCTTContext(whole, design)
		if err != nil || whole.polls != c.polls {
			t.Fatalf("GOMAXPROCS %d %v: uncancelled summary: err %v, %d polls (want %d)", procs, design, err, whole.polls, c.polls)
		}
		for _, at := range c.cancelAt {
			checkCancelAt(t, m, design, procs, at, want)
		}
	}
}

// checkCancelAt cancels design's summary at poll at, and checks that it
// returns there, leaves no producer behind and does not count as a run, and
// that the next summary is want.
func checkCancelAt(t *testing.T, m *Model, design network.Design, procs, at int, want WCTTSummary) {
	t.Helper()
	goroutines := runtime.NumGoroutine()
	runs, _, _ := KernelCounters()
	half := &pollCtx{Context: context.Background(), cancelAt: at}
	got, err := m.SummarizeOneFlitWCTTContext(half, design)
	if !errors.Is(err, context.Canceled) || got != (WCTTSummary{}) {
		t.Fatalf("GOMAXPROCS %d %v: cancelled summary returned %+v, err %v; want the zero summary and context.Canceled", procs, design, got, err)
	}
	if half.polls != at {
		t.Fatalf("GOMAXPROCS %d %v: cancelled at poll %d but polled %d times; the summary must return at the first failing poll", procs, design, at, half.polls)
	}
	// A joined producer may still be on its way out of the scheduler when
	// the summary returns; it must be gone within a second. (The count may
	// also end lower: the starting one can include a previous summary's
	// producers on their way out.)
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("GOMAXPROCS %d %v: %d goroutines after a cancelled summary, %d before", procs, design, n, goroutines)
	}
	if after, _, _ := KernelCounters(); after != runs {
		t.Fatalf("GOMAXPROCS %d %v: a cancelled summary counted as a kernel run", procs, design)
	}
	if again, err := m.SummarizeOneFlitWCTT(design); err != nil || again != want {
		t.Fatalf("GOMAXPROCS %d %v: summary after a cancelled one: %+v, err %v; want %+v", procs, design, again, err, want)
	}
}

// stripDeadlineBound is how long a regular summary on a 1500x1 strip may
// take to report a 5 ms deadline. Its X maps are 2*W^2 = 4.5 million words.
// On a two-core Intel Xeon host, in a test process that had run
// TestSummarizeMatchesPairwise first, building them to the end before the
// first poll took 69 ms (342 ms under -race); polling once per turn column,
// the summary returned after 31 ms (32 ms under -race), most of it spent
// zeroing the 54 MB of scratch it reserves up front.
const stripDeadlineBound = 150 * time.Millisecond

// TestStripSummaryDeadline: a regular summary builds its X maps, O(W^2) work,
// before the producers feed their first source row, so a wide strip polls its
// context once per turn column of the maps, on the caller. Under a 5 ms
// deadline a 1500x1 summary must return the deadline error and no partial
// result within stripDeadlineBound. The strip is small enough that reserving
// its scratch stays well inside the bound in a process whose heap must zero
// the memory it reuses; TestSummarizeContextCancel pins the poll schedule
// itself.
func TestStripSummaryDeadline(t *testing.T) {
	m := MustNewModel(DefaultParams(mesh.MustDim(1500, 1)))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	s, err := m.SummarizeOneFlitWCTTContext(ctx, network.DesignRegular)
	took := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) || s != (WCTTSummary{}) {
		t.Fatalf("1500x1 regular summary under a 5 ms deadline: %+v, err %v; want the zero summary and the deadline error", s, err)
	}
	if took > stripDeadlineBound {
		t.Fatalf("the deadline error took %v, want at most %v", took, stripDeadlineBound)
	}
	t.Logf("deadline error after %v", took)
}

// TestKernelFuzzRandomDims is the randomized-dim comparison of the
// satellite checklist: a fixed-seed stream of (dim, topology, design,
// payload) draws, each checked kernel-vs-pairwise over every ordered pair,
// and the draw's one-flit summary against the per-pair fold.
// It runs under -race in CI (the equivalence step), where the pooled
// scratch tables and the shared weight-table caches really race.
func TestKernelFuzzRandomDims(t *testing.T) {
	rng := rand.New(rand.NewSource(0x9c16))
	iters := 30
	if testing.Short() {
		iters = 8
	}
	payloads := []int{16, 48, 512, 4096}
	for it := 0; it < iters; it++ {
		w, h := 1+rng.Intn(12), 1+rng.Intn(12)
		d := mesh.MustDim(w, h)
		spec := kernelTopoSpecs[rng.Intn(len(kernelTopoSpecs))]
		p := DefaultParams(d)
		p.Topo = spec
		m, err := NewModel(p)
		if err != nil {
			// Indivisible concentrated grid — redraw as a plain mesh.
			p.Topo = mesh.TopoSpec{Kind: mesh.TopoMesh}
			m = MustNewModel(p)
		}
		design := allDesigns[rng.Intn(len(allDesigns))]
		bits := payloads[rng.Intn(len(payloads))]
		tab, err := m.allPairsMessageWCTT(design, bits, nil)
		if err != nil {
			t.Fatal(err)
		}
		n := d.Nodes()
		nodes := d.AllNodes()
		for si, src := range nodes {
			for di, dst := range nodes {
				if src == dst {
					continue
				}
				want, err := m.MessageWCTT(design, src, dst, bits)
				if err != nil {
					t.Fatal(err)
				}
				if tab[si*n+di] != want {
					t.Fatalf("iter %d: %v %v %v %d bits %v->%v: kernel %d != pairwise %d",
						it, p.Topo, d, design, bits, src, dst, tab[si*n+di], want)
				}
			}
		}
		fast, err1 := m.SummarizeOneFlitWCTT(design)
		ref, err2 := pairwiseSummary(m, design)
		if err1 != nil || err2 != nil || fast != ref {
			t.Fatalf("iter %d: %v %v %v: kernel summary %+v (%v) != pairwise %+v (%v)",
				it, p.Topo, d, design, fast, err1, ref, err2)
		}
	}
}

// TestKernelCountersAdvance pins the effectiveness counters the serve stats
// verb surfaces (and bench/ compares exactly): an all-pairs table adds one
// all-pairs run, every AllCoresRoundTripUBD call exactly one row sweep
// whatever the design, and the retired third result stays 0.
func TestKernelCountersAdvance(t *testing.T) {
	ap0, rs0, _ := KernelCounters()
	m := MustNewModel(DefaultParams(mesh.MustDim(4, 4)))
	if _, err := m.AllPairsOneFlitWCTT(network.DesignRegular, nil); err != nil {
		t.Fatal(err)
	}
	ap1, rs1, retired := KernelCounters()
	if ap1 != ap0+1 || rs1 != rs0 || retired != 0 {
		t.Fatalf("kernel counters after an all-pairs table: all-pairs %d->%d (want +1), row sweeps %d->%d (want +0), retired %d (must be 0)",
			ap0, ap1, rs0, rs1, retired)
	}
	for _, design := range allDesigns {
		if _, err := m.AllCoresRoundTripUBD(context.Background(), design, mesh.Node{X: 1, Y: 2}, 48, 512, nil); err != nil {
			t.Fatal(err)
		}
		ap2, rs2, _ := KernelCounters()
		if ap2 != ap1 || rs2 != rs1+1 {
			t.Fatalf("%v: AllCoresRoundTripUBD moved all-pairs %d->%d (want +0), row sweeps %d->%d (want +1)", design, ap1, ap2, rs1, rs2)
		}
		rs1 = rs2
	}
}
