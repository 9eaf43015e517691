package analysis

import (
	"math"
	"math/rand"
	"testing"

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
// NewModel's rejection of those is pinned by TestTorusModelRejected.
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

// TestAllPairsMatchesPairwise pins every entry of the all-pairs kernel
// tables bit-identical to the per-pair route walk, across designs, dims
// and topologies, for both the one-flit (Table II) configuration and
// realistic message payloads.
func TestAllPairsMatchesPairwise(t *testing.T) {
	payloads := []int{48, 512}
	for _, m := range kernelModels(t) {
		d := m.Params().Dim
		n := d.Nodes()
		nodes := d.AllNodes()
		var buf []uint64
		for _, design := range allDesigns {
			var err error
			buf, err = m.AllPairsOneFlitWCTT(design, buf)
			if err != nil {
				t.Fatal(err)
			}
			for si, src := range nodes {
				for di, dst := range nodes {
					got := buf[si*n+di]
					if src == dst {
						if got != 0 {
							t.Fatalf("%v %v %v: self-flow entry %v->%v = %d, want 0", m.Params().Topo, d, design, src, dst, got)
						}
						continue
					}
					want, err := m.FlowWCTTOneFlit(design, src, dst)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("%v %v %v one-flit %v->%v: kernel %d != pairwise %d",
							m.Params().Topo, d, design, src, dst, got, want)
					}
				}
			}
			for _, bits := range payloads {
				var err error
				buf, err = m.AllPairsMessageWCTT(design, bits, buf)
				if err != nil {
					t.Fatal(err)
				}
				for si, src := range nodes {
					for di, dst := range nodes {
						got := buf[si*n+di]
						if src == dst {
							if got != 0 {
								t.Fatalf("%v %v %v: self-flow entry = %d, want 0", m.Params().Topo, d, design, got)
							}
							continue
						}
						want, err := m.MessageWCTT(design, src, dst, bits)
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Fatalf("%v %v %v message(%d bits) %v->%v: kernel %d != pairwise %d",
								m.Params().Topo, d, design, bits, src, dst, got, want)
						}
					}
				}
			}
		}
	}
}

// TestRowKernelsMatchPairwise pins the single-row kernels (the wcet
// engine's building blocks) to the per-pair path: fixed-destination rows,
// fixed-source rows and the combined per-core round-trip UBD row.
func TestRowKernelsMatchPairwise(t *testing.T) {
	for _, m := range kernelModels(t) {
		d := m.Params().Dim
		nodes := d.AllNodes()
		anchors := []mesh.Node{{X: 0, Y: 0}, {X: d.Width - 1, Y: d.Height - 1}, {X: d.Width / 2, Y: d.Height / 3}}
		var row []uint64
		for _, design := range allDesigns {
			for _, anchor := range anchors {
				var err error
				row, err = m.AllSourcesMessageWCTT(design, anchor, 48, row)
				if err != nil {
					t.Fatal(err)
				}
				for i, src := range nodes {
					if src == anchor {
						if row[i] != 0 {
							t.Fatalf("%v %v %v: self entry = %d, want 0", m.Params().Topo, d, design, row[i])
						}
						continue
					}
					want, err := m.MessageWCTT(design, src, anchor, 48)
					if err != nil {
						t.Fatal(err)
					}
					if row[i] != want {
						t.Fatalf("%v %v %v AllSources %v->%v: kernel %d != pairwise %d",
							m.Params().Topo, d, design, src, anchor, row[i], want)
					}
				}
				row, err = m.AllDestinationsMessageWCTT(design, anchor, 512, row)
				if err != nil {
					t.Fatal(err)
				}
				for i, dst := range nodes {
					if dst == anchor {
						if row[i] != 0 {
							t.Fatalf("%v %v %v: self entry = %d, want 0", m.Params().Topo, d, design, row[i])
						}
						continue
					}
					want, err := m.MessageWCTT(design, anchor, dst, 512)
					if err != nil {
						t.Fatal(err)
					}
					if row[i] != want {
						t.Fatalf("%v %v %v AllDestinations %v->%v: kernel %d != pairwise %d",
							m.Params().Topo, d, design, anchor, dst, row[i], want)
					}
				}
				row, err = m.AllCoresRoundTripUBD(design, anchor, 48, 512, row)
				if err != nil {
					t.Fatal(err)
				}
				for i, core := range nodes {
					want, err := m.RoundTripUBD(design, core, anchor, 48, 512)
					if err != nil {
						t.Fatal(err)
					}
					if row[i] != want {
						t.Fatalf("%v %v %v AllCoresRoundTripUBD core %v memory %v: kernel %d != pairwise %d",
							m.Params().Topo, d, design, core, anchor, row[i], want)
					}
				}
			}
		}
	}
}

// summaryModels extends the kernel matrix with the grids where the summary's
// streaming is most exposed: degenerate 1xN / Nx1 / 1x1 meshes (empty row or
// column sweeps, no flows at all), a wide rectangle whose source-row blocks
// are far from square (mesh and both concentrations), and — outside -short —
// a 32x32 mesh, where most regular bounds saturate at 2^64-1 and the
// in-order float sum is exactly where a changed fold order would show.
func summaryModels(t *testing.T) []*Model {
	t.Helper()
	models := append(kernelModels(t),
		modelsFor([]mesh.Dim{mesh.MustDim(1, 1), mesh.MustDim(1, 7), mesh.MustDim(7, 1), mesh.MustDim(16, 8)})...)
	if !testing.Short() {
		models = append(models, MustNewModel(DefaultParams(mesh.MustDim(32, 32))))
	}
	return models
}

// TestSummarizeMatchesPairwise pins the kernel-backed summary — including
// its float mean (the in-order sum of the bounds divided by their count),
// which is fold-order-sensitive — to the plain per-pair loop over the route
// walk across designs, dims and topologies.
func TestSummarizeMatchesPairwise(t *testing.T) {
	saturated := false
	for _, m := range summaryModels(t) {
		for _, design := range allDesigns {
			fast, err1 := m.SummarizeOneFlitWCTT(design)
			ref, err2 := pairwiseSummary(m, design)
			if err1 != nil || err2 != nil {
				t.Fatalf("%v %v %v: errors %v / %v", m.Params().Topo, m.Params().Dim, design, err1, err2)
			}
			if fast != ref {
				t.Fatalf("%v %v %v: kernel summary %+v != pairwise %+v",
					m.Params().Topo, m.Params().Dim, design, fast, ref)
			}
			saturated = saturated || fast.Max == math.MaxUint64
		}
	}
	if !testing.Short() && !saturated {
		t.Fatal("no summary saturated; the 32x32 case no longer covers the saturating fold")
	}
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
		tab, err := m.AllPairsMessageWCTT(design, bits, nil)
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

// TestKernelCountersAdvance sanity-checks the effectiveness counters the
// serve stats verb surfaces: all-pairs runs and row sweeps move when their
// kernels run, and the retired third result stays 0.
func TestKernelCountersAdvance(t *testing.T) {
	ap0, rs0, _ := KernelCounters()
	m := MustNewModel(DefaultParams(mesh.MustDim(4, 4)))
	if _, err := m.AllPairsOneFlitWCTT(network.DesignRegular, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AllSourcesMessageWCTT(network.DesignRegular, mesh.Node{}, 48, nil); err != nil {
		t.Fatal(err)
	}
	ap1, rs1, retired := KernelCounters()
	if ap1 <= ap0 || rs1 <= rs0 || retired != 0 {
		t.Fatalf("kernel counters: all-pairs %d->%d, row sweeps %d->%d (both must advance), retired %d (must be 0)",
			ap0, ap1, rs0, rs1, retired)
	}
}
