package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) CPU @ 2.10GHz
BenchmarkAnalysis/tableii-4         	       2	    777762 ns/op
BenchmarkAnalysis/tableii/16x16-4   	       1	   2715662 ns/op
BenchmarkAnalysis/tableii/32x32-4   	       1	  45986847 ns/op
BenchmarkAnalysis/pairwise/16x16-4  	       1	  12200670 ns/op
BenchmarkAnalysis/pairwise/32x32-4  	       1	 357033145 ns/op
BenchmarkWCTT/wcetmap-64x64-kernel-4	       1	  50000000 ns/op	         4096 far-core-ubd-cycles
BenchmarkWCTT/wcetmap-64x64-pairwise-4	       1	 500000000 ns/op	         4096 far-core-ubd-cycles
BenchmarkServe/batch-warm           	 3360973	       358.4 ns/op	        38 B/op	       0 allocs/op
BenchmarkServe/wctt-lines           	 1934130	       743.8 ns/op	         0 B/op	       0 allocs/op
BenchmarkServe/wctt-lines-generic   	  291636	      3904 ns/op	       944 B/op	      19 allocs/op
PASS
ok  	repro	12.3s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkAnalysis/tableii":            777762,
		"BenchmarkAnalysis/tableii/16x16":      2715662,
		"BenchmarkAnalysis/tableii/32x32":      45986847,
		"BenchmarkAnalysis/pairwise/16x16":     12200670,
		"BenchmarkAnalysis/pairwise/32x32":     357033145,
		"BenchmarkWCTT/wcetmap-64x64-kernel":   50000000,
		"BenchmarkWCTT/wcetmap-64x64-pairwise": 500000000,
		"BenchmarkServe/batch-warm":            358.4,
		"BenchmarkServe/wctt-lines":            743.8,
		"BenchmarkServe/wctt-lines-generic":    3904,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(got), len(want), got)
	}
	for name, ns := range want {
		if got[name] != ns {
			t.Errorf("%s = %v ns/op, want %v", name, got[name], ns)
		}
	}
}

// The GOMAXPROCS suffix must be stripped even when the benchmark name
// itself ends in digits, and a repeated name must keep the fastest run.
func TestParseBenchSuffixAndRepeat(t *testing.T) {
	in := `BenchmarkX/32x32-16	1	200 ns/op
BenchmarkX/32x32-16	1	100 ns/op
BenchmarkY	1	50 ns/op
`
	got, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got["BenchmarkX/32x32"] != 100 {
		t.Errorf("BenchmarkX/32x32 = %v, want fastest run 100", got["BenchmarkX/32x32"])
	}
	if got["BenchmarkY"] != 50 {
		t.Errorf("BenchmarkY = %v, want 50 (no suffix present)", got["BenchmarkY"])
	}
}

func TestEvaluate(t *testing.T) {
	bench := map[string]float64{
		"fastpath": 100,
		"slowpath": 750, // current ratio 7.5x
	}
	cases := []struct {
		name     string
		baseline float64
		tol      float64
		wantOK   bool
	}{
		{"well-above-floor", 7.8, 0.8, true},    // floor 6.24 < 7.5
		{"exactly-at-baseline", 7.5, 1.0, true}, // floor 7.5 == 7.5
		{"regressed", 10.0, 0.8, false},         // floor 8.0 > 7.5
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			gates := []gate{{Name: c.name, Fast: "fastpath", Slow: "slowpath", BaselineRatio: c.baseline}}
			if ok := evaluate(gates, bench, c.tol, &buf); ok != c.wantOK {
				t.Errorf("evaluate = %v, want %v\noutput: %s", ok, c.wantOK, buf.String())
			}
		})
	}
}

func TestEvaluateMissingBenchmarkFails(t *testing.T) {
	var buf bytes.Buffer
	gates := []gate{{Name: "g", Fast: "present", Slow: "absent", BaselineRatio: 2}}
	if ok := evaluate(gates, map[string]float64{"present": 10}, 0.8, &buf); ok {
		t.Fatalf("gate with missing benchmark must fail, output: %s", buf.String())
	}
	if !strings.Contains(buf.String(), `"absent" not found`) {
		t.Errorf("output should name the missing benchmark: %s", buf.String())
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "baseline.json")
	if err := os.WriteFile(baseline, []byte(`{
		"snapshots": [],
		"gates": [
			{"name": "analysis-32x32", "fast": "BenchmarkAnalysis/tableii/32x32", "slow": "BenchmarkAnalysis/pairwise/32x32", "baseline_ratio": 7.0},
			{"name": "serve-batch", "fast": "BenchmarkServe/batch-warm", "slow": "BenchmarkServe/wctt-lines-generic", "baseline_ratio": 10.0},
			{"name": "serve-lines-inline", "fast": "BenchmarkServe/wctt-lines", "slow": "BenchmarkServe/wctt-lines-generic", "baseline_ratio": 3.75}
		]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	benchFile := filepath.Join(dir, "bench.out")
	if err := os.WriteFile(benchFile, []byte(sampleBench), 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errOut bytes.Buffer
	if code := run([]string{"-bench", benchFile, "-baseline", baseline}, nil, &out, &errOut); code != 0 {
		t.Fatalf("run = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "all 3 gates pass") {
		t.Errorf("stdout should report all gates passing: %s", out.String())
	}

	// Tightening the tolerance past the measured ratios must fail with
	// exit code 1 (32x32 measured 7.76x vs floor 7.0x at tolerance 1.0
	// passes; a baseline demanding 8x does not).
	if err := os.WriteFile(baseline, []byte(`{
		"gates": [{"name": "analysis-32x32", "fast": "BenchmarkAnalysis/tableii/32x32", "slow": "BenchmarkAnalysis/pairwise/32x32", "baseline_ratio": 12.0}]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-bench", benchFile, "-baseline", baseline}, nil, &out, &errOut); code != 1 {
		t.Fatalf("regressed run = %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(errOut.String(), "regression detected") {
		t.Errorf("stderr should announce the regression: %s", errOut.String())
	}
}

func TestRunStdinAndBadInputs(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "baseline.json")
	if err := os.WriteFile(baseline, []byte(`{"gates": [{"name": "g", "fast": "BenchmarkY", "slow": "BenchmarkX/32x32", "baseline_ratio": 1.5}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	in := strings.NewReader("BenchmarkX/32x32-16\t1\t100 ns/op\nBenchmarkY\t1\t50 ns/op\n")
	var out, errOut bytes.Buffer
	if code := run([]string{"-baseline", baseline}, in, &out, &errOut); code != 0 {
		t.Fatalf("stdin run = %d, want 0\nstderr: %s", code, errOut.String())
	}

	// No bench lines at all → usage error, not a pass.
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-baseline", baseline}, strings.NewReader("nothing here\n"), &out, &errOut); code != 2 {
		t.Fatalf("empty bench input = %d, want 2", code)
	}

	// Baseline without gates → usage error.
	noGates := filepath.Join(dir, "nogates.json")
	if err := os.WriteFile(noGates, []byte(`{"snapshots": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-baseline", noGates}, strings.NewReader("BenchmarkY\t1\t50 ns/op\n"), &out, &errOut); code != 2 {
		t.Fatalf("no-gates baseline = %d, want 2", code)
	}

	// Out-of-range tolerance → usage error.
	if code := run([]string{"-baseline", baseline, "-tolerance", "1.5"}, strings.NewReader("BenchmarkY\t1\t50 ns/op\n"), &out, &errOut); code != 2 {
		t.Fatalf("bad tolerance = %d, want 2", code)
	}
}
