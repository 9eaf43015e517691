package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/wcet"
)

func TestParseSizes(t *testing.T) {
	cases := []struct {
		in   string
		want []int
	}{
		{"2..5", []int{2, 3, 4, 5}},
		{"2,4,8", []int{2, 4, 8}},
		{"2..4,8", []int{2, 3, 4, 8}},
		{" 3 ", []int{3}},
	}
	for _, c := range cases {
		got, err := ParseSizes(c.in)
		if err != nil {
			t.Errorf("ParseSizes(%q): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseSizes(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "x", "5..2", "2..x", ","} {
		if _, err := ParseSizes(bad); err == nil {
			t.Errorf("ParseSizes(%q) should fail", bad)
		}
	}
}

func TestParseDesignAndMode(t *testing.T) {
	designs := map[string]network.Design{
		"regular":  network.DesignRegular,
		"WaW+WaP":  network.DesignWaWWaP,
		"waw-only": network.DesignWaWOnly,
		"WAP":      network.DesignWaPOnly,
	}
	for in, want := range designs {
		got, err := ParseDesign(in)
		if err != nil || got != want {
			t.Errorf("ParseDesign(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseDesign("mesh-of-trees"); err == nil {
		t.Error("unknown design should fail")
	}
	list, err := ParseDesigns("regular, waw+wap")
	if err != nil || len(list) != 2 {
		t.Errorf("ParseDesigns = %v, %v", list, err)
	}
	for _, m := range []Mode{ModeWCTT, ModeSimulate, ModeManycore, ModeParallelWCET, ModeWCETMap} {
		back, err := ParseMode(m.String())
		if err != nil || back != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.String(), back, err, m)
		}
	}
	if _, err := ParseMode("quantum"); err == nil {
		t.Error("unknown mode should fail")
	}
}

func TestExpandCrossProduct(t *testing.T) {
	spec := Spec{
		Name:      "grid",
		Mode:      ModeManycore,
		Sizes:     []int{2, 4},
		Designs:   []network.Design{network.DesignRegular, network.DesignWaWWaP},
		Workloads: []string{"matrix", "rspeed"},
	}
	specs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 8 {
		t.Fatalf("expanded to %d specs, want 8", len(specs))
	}
	// Order: sizes outermost, then designs, then workloads.
	if specs[0].Name != "grid/2x2/regular/matrix" {
		t.Errorf("first child name = %q", specs[0].Name)
	}
	if specs[7].Name != "grid/4x4/WaW+WaP/rspeed" {
		t.Errorf("last child name = %q", specs[7].Name)
	}
	for i, s := range specs {
		if len(s.Sizes)+len(s.Designs)+len(s.Workloads) != 0 {
			t.Errorf("spec %d still carries sweep axes", i)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("spec %d invalid: %v", i, err)
		}
		if s.Width != s.Height {
			t.Errorf("spec %d not square: %dx%d", i, s.Width, s.Height)
		}
	}
}

func TestExpandScalarFallback(t *testing.T) {
	spec := Spec{Mode: ModeWCTT, Width: 3, Height: 5, Design: network.DesignWaWWaP}
	specs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 {
		t.Fatalf("expanded to %d specs, want 1", len(specs))
	}
	if specs[0].Width != 3 || specs[0].Height != 5 || specs[0].Design != network.DesignWaWWaP {
		t.Errorf("scalar fields not preserved: %+v", specs[0])
	}
}

func TestValidateRejections(t *testing.T) {
	cases := map[string]Spec{
		"unexpanded axes":  {Mode: ModeWCTT, Width: 2, Height: 2, Sizes: []int{2}},
		"bad mesh":         {Mode: ModeWCTT, Width: 0, Height: 2},
		"bad pattern":      {Mode: ModeSimulate, Width: 2, Height: 2, Traffic: Traffic{Pattern: "butterfly"}},
		"negative rate":    {Mode: ModeSimulate, Width: 2, Height: 2, Traffic: Traffic{Rate: -1}},
		"missing workload": {Mode: ModeManycore, Width: 2, Height: 2},
		"negative budget":  {Mode: ModeWCTT, Width: 2, Height: 2, MaxCycles: -1},
		"negative L":       {Mode: ModeParallelWCET, Width: 8, Height: 8, MaxPacketFlits: -4},
		"L past the limit": {Mode: ModeParallelWCET, Width: 8, Height: 8, MaxPacketFlits: MaxPacketFlitsLimit + 1},
		"L that wraps":     {Mode: ModeParallelWCET, Width: 8, Height: 8, MaxPacketFlits: 1 << 62},
		"unknown mode":     {Mode: Mode(99), Width: 2, Height: 2},
		"1x1 hotspot":      {Mode: ModeSimulate, Width: 1, Height: 1},
		"1x1 uniform":      {Mode: ModeSimulate, Width: 1, Height: 1, Traffic: Traffic{Pattern: "uniform"}},
	}
	for name, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate() should fail for %+v", name, s)
		}
	}
	// A permutation on one endpoint sends nothing, and completes.
	if err := (Spec{Mode: ModeSimulate, Width: 1, Height: 1, Traffic: Traffic{Pattern: "transpose"}}).Validate(); err != nil {
		t.Errorf("1x1 transpose rejected: %v", err)
	}
	atLimit := Spec{Mode: ModeParallelWCET, Width: 8, Height: 8, MaxPacketFlits: MaxPacketFlitsLimit}
	if err := atLimit.Validate(); err != nil {
		t.Errorf("max packet size at the limit rejected: %v", err)
	}
}

func TestExecuteWCTTMatchesAnalysis(t *testing.T) {
	d := mesh.MustDim(4, 4)
	m, err := analysis.NewModel(analysis.DefaultParams(d))
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.SummarizeOneFlitWCTT(network.DesignWaWWaP)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Execute(Spec{Mode: ModeWCTT, Width: 4, Height: 4, Design: network.DesignWaWWaP})
	if err != nil {
		t.Fatal(err)
	}
	if r.WCTT == nil {
		t.Fatal("WCTT result missing")
	}
	if r.WCTT.MaxCycles != want.Max || r.WCTT.MinCycles != want.Min ||
		r.WCTT.MeanCycles != want.Mean || r.WCTT.Flows != want.Flows {
		t.Errorf("Execute WCTT = %+v, want %+v", *r.WCTT, want)
	}
	if r.Dim != "4x4" || r.Design != "WaW+WaP" || r.Mode != "wctt" {
		t.Errorf("identifying fields wrong: %+v", r)
	}
}

func TestExecuteSimulateDeterministic(t *testing.T) {
	spec := Spec{
		Mode:    ModeSimulate,
		Width:   3,
		Height:  3,
		Design:  network.DesignWaWWaP,
		Seed:    42,
		Traffic: Traffic{Pattern: "hotspot", Rate: 50, Messages: 200},
	}
	a, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same spec produced different results:\n%+v\n%+v", a, b)
	}
	if a.Sim == nil || a.Sim.Delivered == 0 {
		t.Errorf("simulation delivered nothing: %+v", a)
	}
}

func TestExecuteSimulatePatterns(t *testing.T) {
	for _, pattern := range []string{"uniform", "transpose", "bitcomp", "neighbor"} {
		r, err := Execute(Spec{
			Mode:    ModeSimulate,
			Width:   4,
			Height:  4,
			Design:  network.DesignRegular,
			Seed:    7,
			Traffic: Traffic{Pattern: pattern, Messages: 32},
		})
		if err != nil {
			t.Errorf("%s: %v", pattern, err)
			continue
		}
		if r.Sim == nil || r.Sim.Delivered == 0 {
			t.Errorf("%s: no messages delivered: %+v", pattern, r)
		}
	}
}

func TestExecuteLoadCurveDeterministic(t *testing.T) {
	spec := Spec{
		Mode:   ModeLoadCurve,
		Width:  3,
		Height: 3,
		Design: network.DesignWaWWaP,
		Seed:   11,
		Traffic: Traffic{
			Rates:         []int{50, 200, 600},
			WarmupCycles:  500,
			MeasureCycles: 2000,
		},
	}
	a, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same spec produced different load curves:\n%+v\n%+v", a, b)
	}
	lc := a.LoadCurve
	if lc == nil || len(lc.Points) != 3 {
		t.Fatalf("load curve malformed: %+v", a)
	}
	if lc.WarmupCycles != 500 || lc.MeasureCycles != 2000 {
		t.Errorf("window fields wrong: %+v", lc)
	}
	for i, p := range lc.Points {
		if p.Offered == 0 || p.Delivered == 0 || p.Throughput <= 0 {
			t.Errorf("point %d empty: %+v", i, p)
		}
		if p.MeanNetworkLatency > p.MeanLatency {
			t.Errorf("point %d: network latency %v exceeds total latency %v", i, p.MeanNetworkLatency, p.MeanLatency)
		}
		if p.MinLatency <= 0 || p.MaxLatency < p.MeanLatency || p.MeanLatency < p.MinLatency {
			t.Errorf("point %d: inconsistent latency stats: %+v", i, p)
		}
	}
	// Offered load and mean latency grow along the rate ladder.
	if lc.Points[0].Offered >= lc.Points[2].Offered {
		t.Errorf("offered load did not grow with the rate: %+v", lc.Points)
	}
	if lc.Points[0].MeanLatency > lc.Points[2].MeanLatency {
		t.Errorf("mean latency shrank while approaching saturation: %+v", lc.Points)
	}
}

func TestLoadCurveDefaultsAndValidation(t *testing.T) {
	r, err := Execute(Spec{
		Mode:   ModeLoadCurve,
		Width:  2,
		Height: 2,
		Design: network.DesignRegular,
		Seed:   1,
		Traffic: Traffic{
			Rates:         []int{100},
			WarmupCycles:  200,
			MeasureCycles: 500,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Mode != "load-curve" || r.LoadCurve == nil || len(r.LoadCurve.Points) != 1 {
		t.Fatalf("result malformed: %+v", r)
	}
	bad := []Spec{
		{Mode: ModeLoadCurve, Width: 2, Height: 2, Traffic: Traffic{Pattern: "hotspot"}},
		{Mode: ModeLoadCurve, Width: 2, Height: 2, Traffic: Traffic{Rates: []int{0}}},
		{Mode: ModeLoadCurve, Width: 2, Height: 2, Traffic: Traffic{Rates: []int{-5}}},
		// Above 1000 per-mil the generator cannot offer more load, so the
		// rate label would lie about the curve's x-axis.
		{Mode: ModeLoadCurve, Width: 2, Height: 2, Traffic: Traffic{Rates: []int{1500}}},
		{Mode: ModeLoadCurve, Width: 2, Height: 2, Traffic: Traffic{WarmupCycles: -1}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d validated: %+v", i, s)
		}
	}
}

func TestExecuteManycore(t *testing.T) {
	r, err := Execute(Spec{
		Mode:     ModeManycore,
		Width:    2,
		Height:   2,
		Design:   network.DesignWaWWaP,
		Workload: "matrix",
		Scale:    500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Manycore == nil || r.Manycore.MakespanCycles == 0 || r.Manycore.Cores != 4 {
		t.Errorf("manycore result malformed: %+v", r)
	}
	if _, err := Execute(Spec{Mode: ModeManycore, Width: 2, Height: 2, Workload: "nope"}); err == nil {
		t.Error("unknown workload should fail at execution")
	}
}

func TestExecuteParallelWCETAndMap(t *testing.T) {
	r, err := Execute(Spec{Mode: ModeParallelWCET, Width: 8, Height: 8, Design: network.DesignWaWWaP, MaxPacketFlits: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.WCET == nil || r.WCET.Millis <= 0 {
		t.Errorf("parallel WCET malformed: %+v", r)
	}
	if r.Placement != "P0" {
		t.Errorf("default placement = %q, want P0", r.Placement)
	}
	m, err := Execute(Spec{Mode: ModeWCETMap, Width: 8, Height: 8, Design: network.DesignWaWWaP, Workload: "matrix"})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.WCETMap) != 8 || len(m.WCETMap[0]) != 8 || m.WCETMap[0][1] <= 0 {
		t.Errorf("WCET map malformed: %+v", m.WCETMap)
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	spec := Spec{
		Name:    "rt",
		Mode:    ModeSimulate,
		Width:   4,
		Height:  4,
		Design:  network.DesignWaWOnly,
		Seed:    9,
		Traffic: Traffic{Pattern: "uniform", Rate: 5, Messages: 100},
		Designs: []network.Design{network.DesignRegular, network.DesignWaPOnly},
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Errorf("round trip mismatch:\nwant %+v\ngot  %+v\njson %s", spec, back, data)
	}
}

// TestExecuteContextCancellation: the analytical scenarios must honour
// cancellation mid-scenario (the per-core Table III loop and the all-pairs
// WCTT summary's per-source-row loop check the context), so cancelling a
// sweep — or a serve deadline — does not wait out a large mesh.
func TestExecuteContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, spec := range []Spec{
		{Name: "wctt-regular", Mode: ModeWCTT, Width: 8, Height: 8, Design: network.DesignRegular},
		{Name: "wctt-waw", Mode: ModeWCTT, Width: 8, Height: 8, Design: network.DesignWaWWaP},
		{Name: "map", Mode: ModeWCETMap, Width: 8, Height: 8},
		{Name: "bench-map", Mode: ModeWCETMap, Width: 8, Height: 8, Workload: "matrix"},
	} {
		if _, err := ExecuteContext(ctx, spec); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled context should fail the scenario with context.Canceled, got %v", spec.Name, err)
		}
	}
	// A cancelled context must not poison unrelated fast modes' results
	// semantics: a fresh context still works.
	if _, err := ExecuteContext(context.Background(), Spec{Name: "ok", Mode: ModeWCTT, Width: 4, Height: 4}); err != nil {
		t.Errorf("fresh context: %v", err)
	}
}

// TestSerialVsShardedByteIdentical pins Spec.Shards as accepted and inert at
// the experiment layer: for every mode, result JSON is byte-identical for
// every shard count. The field once selected a sharded simulator; the frozen
// bench module still sets it, and this test goes when the field does
// (ROADMAP wcet-wrap).
func TestSerialVsShardedByteIdentical(t *testing.T) {
	specs := []Spec{
		{Name: "wctt", Mode: ModeWCTT, Width: 4, Height: 4, Design: network.DesignWaWWaP},
		{Name: "sim-hot", Mode: ModeSimulate, Width: 4, Height: 4, Design: network.DesignWaWWaP,
			Seed: 42, Traffic: Traffic{Pattern: "hotspot", Rate: 50, Messages: 200}},
		{Name: "sim-uni", Mode: ModeSimulate, Width: 4, Height: 5, Design: network.DesignRegular,
			Seed: 9, Traffic: Traffic{Pattern: "uniform", Rate: 60, Messages: 300}},
		{Name: "lc", Mode: ModeLoadCurve, Width: 4, Height: 4, Design: network.DesignWaWWaP,
			Seed: 11, Traffic: Traffic{Rates: []int{50, 400}, WarmupCycles: 500, MeasureCycles: 2000}},
		{Name: "many", Mode: ModeManycore, Width: 2, Height: 2, Design: network.DesignRegular,
			Workload: "rspeed", Scale: 500, MaxCycles: 5_000_000},
		{Name: "pwcet", Mode: ModeParallelWCET, Width: 8, Height: 8, Design: network.DesignWaWWaP},
		{Name: "map", Mode: ModeWCETMap, Width: 8, Height: 8, Design: network.DesignRegular, Workload: "matrix"},
	}
	run := func(shards int) []byte {
		t.Helper()
		results := make([]Result, len(specs))
		for i, spec := range specs {
			spec.Shards = shards
			r, err := Execute(spec)
			if err != nil {
				t.Fatalf("shards=%d %s: %v", shards, spec.Name, err)
			}
			results[i] = r
		}
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	serial := run(1)
	for _, shards := range []int{2, 4} {
		if sharded := run(shards); string(sharded) != string(serial) {
			t.Errorf("shards=%d result JSON differs from serial:\n--- serial ---\n%s\n--- sharded ---\n%s",
				shards, serial, sharded)
		}
	}
}

// TestCycleAccurateCancellation: the cycle-accurate modes poll the context
// inside a single scenario run, so a cancelled sweep does not wait out a
// long simulate or load-curve point (previously cancellation only took
// effect between sweep points).
func TestCycleAccurateCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	specs := []Spec{
		{Name: "sim", Mode: ModeSimulate, Width: 4, Height: 4, Design: network.DesignRegular,
			Seed: 3, Traffic: Traffic{Pattern: "uniform", Rate: 10, Messages: 100_000}},
		{Name: "lc", Mode: ModeLoadCurve, Width: 4, Height: 4, Design: network.DesignRegular, Seed: 3},
	}
	for _, spec := range specs {
		if _, err := ExecuteContext(ctx, spec); err == nil {
			t.Errorf("%s: cancelled context should abort the scenario", spec.Name)
		}
	}
}

// TestSharedEngineIdentityAndEviction pins the engine cache: one (mesh, L)
// is one engine however often it is asked for, distinct keys get distinct
// engines, an engine runs on the model the wctt path of its mesh shares, a
// failed compile is not cached, and the cache is bounded — asking for more
// distinct engines than its capacity evicts the coldest, which is then
// compiled again.
func TestSharedEngineIdentityAndEviction(t *testing.T) {
	d := mesh.MustDim(3, 5)
	e1, err := SharedEngine(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e2, err := SharedEngine(d, 0); err != nil || e2 != e1 {
		t.Errorf("same (mesh, L) should share one compiled engine (err %v)", err)
	}
	if cached, ok := CachedEngine(d, 0); !ok || cached != e1 {
		t.Error("CachedEngine should return the compiled engine")
	}
	if e1.Platform() != PlatformFor(d) {
		t.Error("engine should be compiled from PlatformFor of its mesh")
	}
	if m, err := SharedModel(analysis.DefaultParams(d)); err != nil || m != e1.Model() {
		t.Errorf("the default-L engine should run on the mesh's shared model (err %v)", err)
	}
	if eL, err := SharedEngine(d, 8); err != nil || eL == e1 {
		t.Errorf("distinct packet-size overrides need distinct engines (err %v)", err)
	}
	if eq, err := SharedEngine(mesh.MustDim(5, 3), 0); err != nil || eq == e1 {
		t.Errorf("distinct meshes need distinct engines (err %v)", err)
	}
	if _, ok := CachedEngine(d, 9); ok {
		t.Error("CachedEngine should miss on an engine nobody compiled")
	}
	if _, err := SharedEngine(d, -1); err == nil {
		t.Error("negative packet size should fail")
	}
	if _, ok := CachedEngine(d, -1); ok {
		t.Error("a failed compile should not be cached")
	}

	before := CacheStats().Engines
	for l := 1; l <= engineCacheCapacity; l++ {
		if _, err := SharedEngine(mesh.MustDim(2, 2), 100+l); err != nil {
			t.Fatal(err)
		}
	}
	after := CacheStats().Engines
	if after.Entries != engineCacheCapacity {
		t.Errorf("engine cache holds %d entries, want its capacity %d", after.Entries, engineCacheCapacity)
	}
	if after.Evictions == before.Evictions {
		t.Error("filling the cache past capacity should evict")
	}
	if _, ok := CachedEngine(d, 0); ok {
		t.Error("the coldest engine should have been evicted")
	}
	if e3, err := SharedEngine(d, 0); err != nil || e3 == e1 {
		t.Errorf("an evicted engine should be compiled again (err %v)", err)
	}
}

// TestSharedEngineConcurrentFirstCallers: a fan-in of first callers for one
// (mesh, L) compiles once and every caller gets that engine (run under
// -race in CI).
func TestSharedEngineConcurrentFirstCallers(t *testing.T) {
	const callers = 8
	d := mesh.MustDim(7, 6)
	engines := make([]*wcet.Engine, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			engines[i], errs[i] = SharedEngine(d, 3)
		}()
	}
	wg.Wait()
	for i, e := range engines {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if e != engines[0] {
			t.Fatalf("caller %d got engine %p, caller 0 got %p", i, e, engines[0])
		}
	}
}

// TestCycleAccurateRunsRetainNothing: a simulate or load-curve scenario owns
// the network it builds, so once Execute returns nothing of that network —
// routers, NICs, weight tables, message and flit pools grown past saturation —
// is reachable. Twelve distinct (mesh, design) keys run at an offered load past
// saturation; afterwards the live heap must be back near where it started.
// Before this test an idle-network pool kept every one of them until exit.
func TestCycleAccurateRunsRetainNothing(t *testing.T) {
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC() // the second cycle frees what sync.Pool held over the first
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	run := func(mode Mode, side int, design network.Design) {
		t.Helper()
		s := Spec{Mode: mode, Width: side, Height: side, Design: design, Seed: 3}
		if mode == ModeLoadCurve {
			s.Traffic = Traffic{Rates: []int{400}, WarmupCycles: 300, MeasureCycles: 700}
		} else {
			s.Traffic = Traffic{Pattern: "uniform", Rate: 400, Messages: 20 * side * side}
		}
		if _, err := Execute(s); err != nil {
			t.Fatal(err)
		}
	}
	// One run first, so what the first execution initialises once for the
	// whole process is part of the baseline.
	run(ModeSimulate, 4, network.DesignRegular)
	base := liveHeap()
	for side := 8; side < 14; side++ {
		for _, design := range []network.Design{network.DesignRegular, network.DesignWaWWaP} {
			mode := ModeLoadCurve
			if side%2 == 1 {
				mode = ModeSimulate
			}
			run(mode, side, design)
		}
	}
	after := liveHeap()
	const ceiling = 1 << 20
	if after > base && after-base > ceiling {
		t.Fatalf("live heap grew by %d KiB over 12 cycle-accurate scenarios (ceiling %d KiB): something retains their networks",
			(after-base)>>10, ceiling>>10)
	}
	t.Logf("live heap %d KiB -> %d KiB", base>>10, after>>10)
}
