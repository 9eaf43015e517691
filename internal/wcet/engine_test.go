package wcet

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/workload"
)

// referenceBenchmarkWCET is the pre-engine implementation — revalidate the
// platform, rebuild the analytical model, recompute both round-trip UBDs —
// kept as the naive reference path the equivalence tests pin the compiled
// engine against.
func (p Platform) referenceBenchmarkWCET(design network.Design, core mesh.Node, b workload.Benchmark) (uint64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if err := b.Validate(); err != nil {
		return 0, err
	}
	if !p.Dim.Contains(core) {
		return 0, fmt.Errorf("wcet: core %v outside %v mesh", core, p.Dim)
	}
	m, err := analysis.NewModel(p.ModelParams(0))
	if err != nil {
		return 0, err
	}
	loadUBD, err := m.RoundTripUBD(design, core, p.Memory, p.RequestBits, p.ReplyBits)
	if err != nil {
		return 0, err
	}
	evictUBD, err := m.RoundTripUBD(design, core, p.Memory, p.EvictionBits, p.AckBits)
	if err != nil {
		return 0, err
	}
	mem := uint64(p.MemoryLatency)
	wcet := b.ComputeCycles()
	wcet += b.MemoryAccesses() * (loadUBD + mem)
	wcet += b.Evictions() * (evictUBD + mem)
	return wcet, nil
}

// TestEngineMatchesReference pins the compiled engine — shared model, cached
// per-core UBDs, hoisted validation — bit-identical to the pre-engine
// reference path (revalidate + rebuild the model + recompute both UBDs per
// call) for every core, benchmark and design of the default platform, and
// for a platform with the memory controller away from the corner.
func TestEngineMatchesReference(t *testing.T) {
	platforms := []Platform{DefaultPlatform()}
	center := DefaultPlatform()
	center.Dim = mesh.MustDim(5, 4)
	center.Memory = mesh.Node{X: 2, Y: 1}
	platforms = append(platforms, center)
	suite := workload.EEMBCAutomotive()
	designs := []network.Design{
		network.DesignRegular, network.DesignWaWWaP, network.DesignWaWOnly, network.DesignWaPOnly,
	}
	for _, p := range platforms {
		e := mustEngine(t, p, 0)
		for _, design := range designs {
			for _, core := range p.Dim.AllNodes() {
				for _, b := range suite {
					fast, err1 := e.BenchmarkWCET(context.Background(), design, core, b)
					ref, err2 := p.referenceBenchmarkWCET(design, core, b)
					if err1 != nil || err2 != nil {
						t.Fatalf("%v %v %s at %v: errors %v / %v", p.Dim, design, b.Name, core, err1, err2)
					}
					if fast != ref {
						t.Fatalf("%v %v %s at %v: engine %d != reference %d", p.Dim, design, b.Name, core, fast, ref)
					}
				}
			}
		}
	}
}

// TestTableIIIMatchesReference rebuilds the normalised map cell by cell
// through the reference path and requires the engine-backed TableIII to be
// bit-identical (same float accumulation order included).
func TestTableIIIMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite reference Table III is slow")
	}
	p := DefaultPlatform()
	suite := workload.EEMBCAutomotive()
	table, err := p.TableIIIParallel(context.Background(), suite, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, core := range p.Dim.AllNodes() {
		sum := 0.0
		for _, b := range suite {
			reg, err := p.referenceBenchmarkWCET(network.DesignRegular, core, b)
			if err != nil {
				t.Fatal(err)
			}
			waw, err := p.referenceBenchmarkWCET(network.DesignWaWWaP, core, b)
			if err != nil {
				t.Fatal(err)
			}
			sum += float64(waw) / float64(reg)
		}
		if want := sum / float64(len(suite)); table[core.Y][core.X] != want {
			t.Fatalf("cell %v: engine %v != reference %v", core, table[core.Y][core.X], want)
		}
	}
}

// TestEngineCachingAndErrors: an engine echoes what it was compiled from, the
// package keeps no engine behind the caller's back (sharing is the scenario
// layer's cache, pinned by its TestSharedEngineIdentityAndEviction), and
// invalid inputs fail with the pre-engine errors.
func TestEngineCachingAndErrors(t *testing.T) {
	p := DefaultPlatform()
	e1 := mustEngine(t, p, 0)
	if e2 := mustEngine(t, p, 0); e1 == e2 {
		t.Error("every compile should return an engine its caller owns")
	}
	if e1.Platform() != p {
		t.Error("engine should echo its platform")
	}
	if e1.Model() == nil || e1.Model().Params() != p.ModelParams(0) {
		t.Error("engine should expose the model of its platform parameters")
	}
	if got := mustEngine(t, p, 8).Model().Params().Link.MaxPacketFlits; got != 8 {
		t.Errorf("packet-size override compiled a model with L=%d, want 8", got)
	}
	if _, err := p.CompileEngine(-1, analysis.NewModel); err == nil {
		t.Error("negative packet size should fail")
	}
	bad := p
	bad.ClockMHz = 0
	if _, err := bad.Engine(); err == nil {
		t.Error("invalid platform should not compile")
	}
	bench, err := workload.BenchmarkByName("matrix")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e1.BenchmarkWCET(context.Background(), network.DesignRegular, mesh.Node{X: 9, Y: 9}, bench); err == nil {
		t.Error("core outside mesh should fail")
	}
	if _, err := e1.BenchmarkWCET(context.Background(), network.DesignRegular, mesh.Node{X: 1, Y: 1}, workload.Benchmark{}); err == nil {
		t.Error("invalid benchmark should fail")
	}
	if _, err := e1.BenchmarkWCET(context.Background(), network.Design(9), mesh.Node{X: 1, Y: 1}, bench); err == nil {
		t.Error("unknown design should fail")
	}
}

// TestRoundTripsCancelNotCached: a caller whose context ends while the
// engine computes a design's UBD rows, or while it waits for another caller
// to finish computing them, gets its context's error, and the engine keeps
// nothing of it: the next caller computes the rows in full, equal to a fresh
// engine's.
func TestRoundTripsCancelNotCached(t *testing.T) {
	p := DefaultPlatform()
	e := mustEngine(t, p, 0)
	designs := []network.Design{network.DesignRegular, network.DesignWaWWaP}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, design := range designs {
		if _, err := e.memoryRoundTrips(cancelled, design); !errors.Is(err, context.Canceled) {
			t.Fatalf("%v under a cancelled context: err %v, want context.Canceled", design, err)
		}
	}
	e.building <- struct{}{} // another caller is computing
	short, stop := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer stop()
	if _, err := e.memoryRoundTrips(short, network.DesignRegular); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiting behind a computation: err %v, want context.DeadlineExceeded", err)
	}
	<-e.building
	// Eight first callers at once, four per design and every other one
	// cancelled: a cancelled caller gets its error or the stored rows, and
	// every other caller of a design the same stored rows.
	rows := make([]*memoryUBDs, 8)
	errs := make([]error, len(rows))
	design := func(i int) network.Design { return designs[i%2] }
	var wg sync.WaitGroup
	for i := range rows {
		ctx := context.Background()
		if i/2%2 == 1 {
			ctx = cancelled
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows[i], errs[i] = e.memoryRoundTrips(ctx, design(i))
		}()
	}
	wg.Wait()
	for i := range rows {
		if i/2%2 == 1 && errors.Is(errs[i], context.Canceled) {
			continue
		}
		if errs[i] != nil || rows[i] != rows[i%2] {
			t.Fatalf("%v caller %d: err %v, or rows other than caller %d's", design(i), i, errs[i], i%2)
		}
	}
	fresh := mustEngine(t, p, 0)
	for i, d := range designs {
		want, err := fresh.memoryRoundTrips(context.Background(), d)
		if err != nil {
			t.Fatal(err)
		}
		if got := rows[i]; !slices.Equal(got.load, want.load) || !slices.Equal(got.evict, want.evict) {
			t.Fatalf("%v: rows after a cancelled computation differ from a fresh engine's", d)
		}
	}
}

// TestTableIIIParallelCancellation: a cancelled context must abandon the
// table and surface the cancellation, mirroring sweep.Run.
func TestTableIIIParallelCancellation(t *testing.T) {
	p := DefaultPlatform()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := p.TableIIIParallel(ctx, workload.EEMBCAutomotive(), 1)
	if err == nil {
		t.Fatal("cancelled context should fail the table")
	}
	if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Errorf("error should carry the cancellation cause, got %v", err)
	}
}

// TestTableIIICellZeroAllocs: one steady-state Table III cell — both design
// WCETs of one benchmark on one core, through the compiled engine — must be
// pure arithmetic. (Not asserted under -race; see assertAllocsPerRun.)
func TestTableIIICellZeroAllocs(t *testing.T) {
	p := DefaultPlatform()
	e, err := p.Engine()
	if err != nil {
		t.Fatal(err)
	}
	reg, err := e.memoryRoundTrips(context.Background(), network.DesignRegular)
	if err != nil {
		t.Fatal(err)
	}
	waw, err := e.memoryRoundTrips(context.Background(), network.DesignWaWWaP)
	if err != nil {
		t.Fatal(err)
	}
	bench, err := workload.BenchmarkByName("matrix")
	if err != nil {
		t.Fatal(err)
	}
	coreIdx := p.Dim.Index(mesh.Node{X: 7, Y: 7})
	var sum float64
	allocs := testing.AllocsPerRun(1000, func() {
		r := e.cellWCET(reg, coreIdx, bench)
		w := e.cellWCET(waw, coreIdx, bench)
		sum += float64(w) / float64(r)
	})
	if raceEnabled {
		t.Logf("TableIII cell: %v allocs/op (not asserted under -race)", allocs)
		return
	}
	if allocs != 0 {
		t.Errorf("TableIII cell: %v allocs/op, want 0", allocs)
	}
}
