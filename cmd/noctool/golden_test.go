package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenOutputs pins the text output of the pre-existing commands: the
// scenario/sweep refactor must keep every table byte-identical to the
// hand-wired implementations it replaced. Regenerate a golden with
//
//	go run ./cmd/noctool <command> [flags] > cmd/noctool/testdata/<name>.golden
//
// only when an output change is intentional.
func TestGoldenOutputs(t *testing.T) {
	cases := []struct {
		golden string
		cmd    func(args []string, w io.Writer) error
		args   []string
	}{
		{"weights.golden", cmdWeights, nil},
		{"wctt-table.golden", cmdWCTTTable, []string{"-max-size", "5"}},
		{"avionics.golden", cmdAvionics, nil},
		{"area.golden", cmdArea, []string{"-width", "4", "-height", "4"}},
		{"eembc.golden", cmdEEMBC, nil},
		{"avgperf.golden", cmdAvgPerf, []string{"-width", "2", "-height", "2", "-benchmark", "rspeed", "-scale", "500", "-max-cycles", "5000000"}},
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			if c.golden == "eembc.golden" && testing.Short() {
				t.Skip("Table III over the full suite is slow")
			}
			want, err := os.ReadFile(filepath.Join("testdata", c.golden))
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			if err := c.cmd(c.args, &out); err != nil {
				t.Fatal(err)
			}
			if out.String() != string(want) {
				t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", c.golden, out.String(), want)
			}
		})
	}
}

// TestGoldenJSONPreRefactor pins the machine-readable output of every
// analytical mode byte-identical to the pre-flat-index binary: the *-pre
// goldens were generated by the map-based, rebuild-per-call implementation
// immediately before the analytical engine was rebuilt on flat indexed
// state, so any arithmetic drift in the fast paths (or in their caching)
// fails here. Covers the Table II/III and Figure 2 commands plus the wctt,
// wcet-map (suite and per-benchmark) and parallel-wcet sweep modes, with
// the wctt grid extended to the 12x12 and 16x16 meshes the fast path is
// meant to open up.
func TestGoldenJSONPreRefactor(t *testing.T) {
	type goldenCase struct {
		golden string
		cmd    func(args []string, w io.Writer) error
		args   []string
	}
	cases := []goldenCase{
		{"sweep-wctt-pre.golden", cmdSweep,
			[]string{"-mode", "wctt", "-sizes", "2..8,12,16", "-designs", "regular,waw+wap,waw-only,wap-only", "-format", "json"}},
		{"sweep-wcetmap-suite-pre.golden", cmdSweep,
			[]string{"-mode", "wcet-map", "-format", "json"}},
		{"sweep-wcetmap-bench-pre.golden", cmdSweep,
			[]string{"-mode", "wcet-map", "-workloads", "matrix,aifftr", "-designs", "regular,waw+wap", "-format", "json"}},
		{"sweep-parallelwcet-pre.golden", cmdSweep,
			[]string{"-mode", "parallel-wcet", "-designs", "regular,waw+wap", "-format", "json"}},
		{"tableii-pre.golden", cmdWCTTTable, []string{"-format", "json"}},
		{"tableiii-pre.golden", cmdEEMBC, []string{"-format", "json"}},
		{"figure2-pre.golden", cmdAvionics, []string{"-format", "json"}},
	}
	// The cycle-accurate sweep modes are pinned to goldens captured from the
	// pre-sharding binary, and must reproduce them byte-identically with the
	// serial engine AND with every sharded partition — the shard count is
	// execution policy, never scenario identity.
	simArgs := []string{"-mode", "simulate", "-sizes", "2..6", "-designs", "regular,waw+wap",
		"-pattern", "uniform", "-rate", "40", "-messages", "400", "-seed", "5", "-format", "json"}
	lcArgs := []string{"-mode", "load-curve", "-sizes", "3,4", "-designs", "regular,waw+wap",
		"-seed", "3", "-rates", "50,200,500", "-warmup", "500", "-measure", "2500", "-format", "json"}
	for _, shards := range []string{"1", "3", "0"} { // 0 = auto (GOMAXPROCS)
		cases = append(cases,
			goldenCase{"sweep-sim-pre.golden", cmdSweep, append([]string{"-shards", shards}, simArgs...)},
			goldenCase{"sweep-loadcurve-pre.golden", cmdSweep, append([]string{"-shards", shards}, lcArgs...)},
		)
	}
	for _, c := range cases {
		t.Run(c.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.golden))
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			if err := c.cmd(c.args, &out); err != nil {
				t.Fatal(err)
			}
			if out.String() != string(want) {
				t.Errorf("output differs from pre-refactor %s:\n--- got ---\n%.2000s\n--- want ---\n%.2000s", c.golden, out.String(), want)
			}
		})
	}
}

// TestGoldenLargeMeshKernels pins the large-mesh sweep points the
// incremental all-pairs kernels opened up: 48x48/64x64 wctt rows (where
// the regular chained-blocking bound saturates uint64 — max_cycles
// 18446744073709551615 means "beyond 2^64-1", and the saturated
// mean_cycles is a fold over clamped values, honest only as "huge") and
// a full 64x64 wcet-map. Unlike the *-pre goldens these were generated
// by the kernel path itself, so they pin today's values against future
// drift rather than against a pre-refactor binary; the kernels are tied
// back to the original arithmetic by the kernel-vs-pairwise equivalence
// suite in internal/analysis.
//
// The 64x64 wcet-map output (163 KB) is pinned by its SHA-256 instead of a
// file, plus ten cells read back from the JSON so that a mismatch names a
// value: per design the corner, a cell whose regular value is past 2^53,
// the far corner of the first row, an interior cell and the centre. Its
// subtest keeps the name of the golden file it replaced.
func TestGoldenLargeMeshKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("large-mesh sweeps are slow")
	}
	t.Run("sweep-wctt-large.golden", func(t *testing.T) {
		want, err := os.ReadFile(filepath.Join("testdata", "sweep-wctt-large.golden"))
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if err := cmdSweep([]string{"-mode", "wctt", "-sizes", "48,64",
			"-designs", "regular,waw+wap,waw-only,wap-only", "-format", "json"}, &out); err != nil {
			t.Fatal(err)
		}
		if out.String() != string(want) {
			t.Errorf("output differs from sweep-wctt-large.golden:\n--- got ---\n%.2000s\n--- want ---\n%.2000s", out.String(), want)
		}
	})
	t.Run("sweep-wcetmap-64.golden", func(t *testing.T) {
		var out strings.Builder
		if err := cmdSweep([]string{"-mode", "wcet-map", "-sizes", "64", "-workloads", "matrix",
			"-designs", "regular,waw+wap", "-format", "json"}, &out); err != nil {
			t.Fatal(err)
		}
		var results []struct {
			Design  string      `json:"design"`
			WCETMap [][]float64 `json:"wcet_map"`
		}
		if err := json.Unmarshal([]byte(out.String()), &results); err != nil {
			t.Fatal(err)
		}
		cells := []struct {
			result, row, col int
			want             float64
		}{
			{0, 0, 0, 6605820}, {0, 0, 45, 18287077393181532000}, {0, 0, 63, 6194745},
			{0, 7, 19, 2452913299546245}, {0, 31, 32, 6194745},
			{1, 0, 0, 230723910}, {1, 0, 45, 758544210}, {1, 0, 63, 790114770},
			{1, 7, 19, 1498698450}, {1, 31, 32, 4215520530},
		}
		if len(results) != 2 {
			t.Fatalf("%d results, want 2 (regular, WaW+WaP)", len(results))
		}
		for _, c := range cells {
			if got := results[c.result].WCETMap[c.row][c.col]; got != c.want {
				t.Errorf("%s wcet_map[%d][%d] = %v, want %v", results[c.result].Design, c.row, c.col, got, c.want)
			}
		}
		const digest = "79cac70742550a5b64b187e213b83a71d24aaaf0db15e793cb5870af89d6480d"
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out.String()))); got != digest {
			t.Errorf("output SHA-256 %s, want %s:\n%.2000s", got, digest, out.String())
		}
	})
}

// TestGoldenJSONPreTopology pins every scenario mode byte-identical to the
// pre-topology binary: the *-pre-topo goldens were generated by the
// hardwired-2D-mesh implementation immediately before the geometry was
// extracted behind the mesh.Topology interface, so any drift introduced by
// the interface dispatch (route walks, weight tables, router port maps,
// neighbour wiring) fails here. Every case also runs with an explicit
// "-topology mesh" — the spelled-out default must be byte-identical to the
// implied one, including scenario names and result JSON.
func TestGoldenJSONPreTopology(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"sweep-wctt-pre-topo.golden",
			[]string{"-mode", "wctt", "-sizes", "8,16", "-designs", "regular,waw+wap,waw-only,wap-only", "-format", "json"}},
		{"sweep-sim-pre-topo.golden",
			[]string{"-mode", "simulate", "-sizes", "8,16", "-designs", "regular,waw+wap",
				"-pattern", "uniform", "-rate", "20", "-messages", "2000", "-seed", "7", "-format", "json"}},
		{"sweep-manycore-pre-topo.golden",
			[]string{"-mode", "manycore", "-sizes", "4", "-workloads", "rspeed,matrix",
				"-designs", "regular,waw+wap", "-scale", "500", "-format", "json"}},
		// The same grid and bytes as TestGoldenJSONPreRefactor's case: one file
		// pins both refactors, this case adds the explicit-mesh run.
		{"sweep-parallelwcet-pre.golden",
			[]string{"-mode", "parallel-wcet", "-designs", "regular,waw+wap", "-format", "json"}},
		{"sweep-wcetmap-pre-topo.golden",
			[]string{"-mode", "wcet-map", "-workloads", "matrix", "-designs", "regular,waw+wap", "-format", "json"}},
		{"sweep-loadcurve-pre-topo.golden",
			[]string{"-mode", "load-curve", "-sizes", "8", "-rates", "50,200",
				"-warmup", "1000", "-measure", "5000", "-seed", "3", "-format", "json"}},
	}
	for _, c := range cases {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		for _, prefix := range [][]string{nil, {"-topology", "mesh"}} {
			name := c.golden
			if prefix != nil {
				name += "/explicit-mesh"
			}
			args := append(append([]string{}, prefix...), c.args...)
			t.Run(name, func(t *testing.T) {
				var out strings.Builder
				if err := cmdSweep(args, &out); err != nil {
					t.Fatal(err)
				}
				if out.String() != string(want) {
					t.Errorf("output differs from pre-topology %s:\n--- got ---\n%.2000s\n--- want ---\n%.2000s", c.golden, out.String(), want)
				}
			})
		}
	}
}

// TestGoldenTopologySweeps pins the new torus and concentrated-mesh sweep
// tables at 8x8 and 16x16. The torus simulation golden must also reproduce
// byte-identically under every shard partition: the torus Y wrap link
// crosses the stripe boundary between the last and first rows, and the
// outbox staging (addressed by owning-shard id, not stripe adjacency) must
// make that invisible to results.
func TestGoldenTopologySweeps(t *testing.T) {
	type goldenCase struct {
		name, golden string
		args         []string
	}
	cmeshSimArgs := []string{"-topology", "cmesh", "-mode", "simulate", "-sizes", "8,16",
		"-designs", "regular,waw+wap", "-pattern", "uniform", "-rate", "20",
		"-messages", "2000", "-seed", "7", "-format", "json"}
	cases := []goldenCase{
		{"cmesh-wctt", "sweep-cmesh-wctt.golden",
			[]string{"-topology", "cmesh", "-mode", "wctt", "-sizes", "8,16",
				"-designs", "regular,waw+wap,waw-only,wap-only", "-format", "json"}},
		{"cmesh-sim", "sweep-cmesh-sim.golden", cmeshSimArgs},
		{"torus-loadcurve", "sweep-torus-loadcurve.golden",
			[]string{"-topology", "torus", "-mode", "load-curve", "-sizes", "8,16",
				"-rates", "50,200", "-warmup", "1000", "-measure", "5000", "-seed", "3", "-format", "json"}},
	}
	torusSimArgs := []string{"-topology", "torus", "-mode", "simulate", "-sizes", "8,16",
		"-designs", "regular,waw+wap", "-pattern", "uniform", "-rate", "20",
		"-messages", "2000", "-seed", "7", "-format", "json"}
	for _, shards := range []string{"1", "3", "0"} { // 0 = auto (GOMAXPROCS)
		cases = append(cases, goldenCase{"torus-sim/shards=" + shards, "sweep-torus-sim.golden",
			append([]string{"-shards", shards}, torusSimArgs...)})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", c.golden))
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			if err := cmdSweep(c.args, &out); err != nil {
				t.Fatal(err)
			}
			if out.String() != string(want) {
				t.Errorf("output differs from %s:\n--- got ---\n%.2000s\n--- want ---\n%.2000s", c.golden, out.String(), want)
			}
		})
	}
}

// TestCmdTopologyRejections checks that invalid topology/mode/size combos
// fail with an error instead of silently falling back to the mesh.
func TestCmdTopologyRejections(t *testing.T) {
	for _, args := range [][]string{
		{"-topology", "banana", "-sizes", "4"},                     // unknown topology
		{"-topology", "torus", "-mode", "wctt", "-sizes", "4"},     // no analytical model
		{"-topology", "torus", "-mode", "manycore", "-sizes", "4"}, // platform is mesh-only
		{"-topology", "torus", "-mode", "parallel-wcet"},           // platform is mesh-only
		{"-topology", "cmesh", "-mode", "wcet-map"},                // platform is mesh-only
		{"-topology", "cmesh", "-mode", "wctt", "-sizes", "5"},     // 2x2 blocks need even sizes
		{"-topology", "cmesh2", "-mode", "wctt", "-sizes", "3"},    // 2x1 blocks need even width
	} {
		if err := cmdSweep(args, &strings.Builder{}); err == nil {
			t.Errorf("sweep %v should reject the topology combination", args)
		}
	}
	// The one-shot simulate command parses the same flag.
	if err := cmdSimulate([]string{"-topology", "banana"}, &strings.Builder{}); err == nil {
		t.Error("simulate -topology banana should fail")
	}
	var out strings.Builder
	if err := cmdSimulate([]string{"-topology", "torus", "-width", "4", "-height", "4",
		"-messages", "40", "-rate", "30"}, &out); err != nil {
		t.Fatalf("simulate -topology torus: %v", err)
	}
	if !strings.Contains(out.String(), "torus") {
		t.Errorf("simulate -topology torus output should name the topology:\n%s", out.String())
	}
}

// TestCmdSweepJSON checks the sweep subcommand end to end: a small grid,
// explicit job count, JSON output that parses back into result objects.
func TestCmdSweepJSON(t *testing.T) {
	var out strings.Builder
	err := cmdSweep([]string{"-sizes", "2..4", "-designs", "regular,waw+wap", "-jobs", "4", "-format", "json"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var results []map[string]any
	if err := json.Unmarshal([]byte(out.String()), &results); err != nil {
		t.Fatalf("sweep -format json did not emit valid JSON: %v\n%s", err, out.String())
	}
	if len(results) != 6 {
		t.Fatalf("expected 6 results, got %d", len(results))
	}
	if results[0]["design"] != "regular" || results[1]["design"] != "WaW+WaP" {
		t.Errorf("results not in spec order: %v", results)
	}
	for _, r := range results {
		if _, ok := r["wctt"]; !ok {
			t.Errorf("result missing wctt payload: %v", r)
		}
	}
}

// TestCmdSweepDeterministicAcrossJobs runs the same grid serially and with
// eight workers and requires byte-identical output.
func TestCmdSweepDeterministicAcrossJobs(t *testing.T) {
	run := func(jobs string) string {
		var out strings.Builder
		err := cmdSweep([]string{"-sizes", "2..5", "-jobs", jobs, "-format", "csv"}, &out)
		if err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	if one, eight := run("1"), run("8"); one != eight {
		t.Errorf("sweep output differs between -jobs 1 and -jobs 8:\n%s\nvs\n%s", one, eight)
	}
}

// TestCmdSweepLoadCurve checks the load-curve mode end to end: the table
// carries one row per (scenario, rate) point, the JSON parses back into
// results with load_curve payloads, and the output is byte-identical across
// worker counts — the determinism the saturation tables are trusted for.
func TestCmdSweepLoadCurve(t *testing.T) {
	args := []string{"-mode", "load-curve", "-sizes", "2,3", "-rates", "50,300",
		"-warmup", "300", "-measure", "1500"}
	run := func(extra ...string) string {
		var out strings.Builder
		if err := cmdSweep(append(append([]string{}, args...), extra...), &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	text := run("-jobs", "1")
	for _, col := range []string{"rate", "tput", "mean lat", "mean net lat", "drained"} {
		if !strings.Contains(text, col) {
			t.Errorf("load-curve table missing column %q:\n%s", col, text)
		}
	}
	// 2 sizes x 2 designs x 2 rates = 8 data rows (plus title, header, rule).
	if rows := strings.Count(text, "sweep/"); rows != 8 {
		t.Errorf("expected 8 load-curve rows, got %d:\n%s", rows, text)
	}
	if eight := run("-jobs", "8"); eight != text {
		t.Errorf("load-curve output differs between -jobs 1 and -jobs 8:\n%s\nvs\n%s", text, eight)
	}
	var results []map[string]any
	if err := json.Unmarshal([]byte(run("-format", "json")), &results); err != nil {
		t.Fatalf("load-curve -format json did not emit valid JSON: %v", err)
	}
	if len(results) != 4 {
		t.Fatalf("expected 4 load-curve results, got %d", len(results))
	}
	for _, r := range results {
		if _, ok := r["load_curve"]; !ok {
			t.Errorf("result missing load_curve payload: %v", r)
		}
	}
	if err := cmdSweep([]string{"-mode", "load-curve", "-rates", "0"}, &strings.Builder{}); err == nil {
		t.Error("zero rate should fail validation")
	}
	if err := cmdSweep([]string{"-mode", "load-curve", "-rates", "1500"}, &strings.Builder{}); err == nil {
		t.Error("rate above the 1000 per-mil offered-load ceiling should fail validation")
	}
	if err := cmdSweep([]string{"-mode", "load-curve", "-rates", "banana"}, &strings.Builder{}); err == nil {
		t.Error("bad rate list should fail")
	}
	// Flags a mode would silently ignore must be rejected, not dropped.
	for _, args := range [][]string{
		{"-mode", "load-curve", "-pattern", "hotspot"},
		{"-mode", "load-curve", "-rate", "80"},
		{"-mode", "load-curve", "-messages", "100"},
		{"-mode", "load-curve", "-workloads", "rspeed"},
		{"-mode", "load-curve", "-placement", "P1"},
		{"-mode", "simulate", "-sizes", "2", "-rates", "25,50"},
		{"-mode", "wctt", "-warmup", "100"},
	} {
		if err := cmdSweep(args, &strings.Builder{}); err == nil {
			t.Errorf("sweep %v should reject the mode-incompatible flag", args)
		}
	}
}

func TestCmdSweepModes(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "simulate", "-sizes", "2,3", "-messages", "50", "-rate", "50"},
		{"-mode", "manycore", "-sizes", "2", "-workloads", "rspeed", "-scale", "500"},
		{"-mode", "load-curve", "-sizes", "2", "-rates", "100", "-warmup", "200", "-measure", "800"},
		// parallel-wcet without -sizes must fall back to the 8x8 platform
		// (the generic 2..8 default has no standard placements).
		{"-mode", "parallel-wcet", "-max-packet-flits", "1"},
	} {
		var out strings.Builder
		if err := cmdSweep(args, &out); err != nil {
			t.Errorf("sweep %v: %v", args, err)
			continue
		}
		if !strings.Contains(out.String(), "regular") || !strings.Contains(out.String(), "WaW+WaP") {
			t.Errorf("sweep %v output missing designs:\n%s", args, out.String())
		}
	}
	var out strings.Builder
	if err := cmdSweep([]string{"-sizes", "banana"}, &out); err == nil {
		t.Error("bad size list should fail")
	}
	if err := cmdSweep([]string{"-designs", "toroidal"}, &out); err == nil {
		t.Error("bad design list should fail")
	}
	if err := cmdSweep([]string{"-mode", "quantum"}, &out); err == nil {
		t.Error("bad mode should fail")
	}
	if err := cmdSweep([]string{"-sizes", "2", "-format", "xml"}, &out); err == nil {
		t.Error("bad format should fail before the sweep runs")
	}
}
