package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/sweep"
)

// TestMain doubles the test binary as a sweep worker. The coordinator spawns
// os.Executable() with the arguments "sweep -worker", which a test binary
// cannot parse — but it also sets NOCTOOL_SWEEP_WORKER in the child's
// environment, so the worker role is recognisable before any flag parsing.
// This makes the multi-process golden tests below exercise real subprocesses
// speaking the real protocol, not an in-process stand-in.
func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) == "1" {
		if err := sweep.ServeWorker(context.Background(), os.Stdin, os.Stdout, sweep.WorkerHooks{}); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGoldenWorkerProcs pins the multi-process executor to the pre-refactor
// goldens: the same cycle-accurate grids that must be byte-identical across
// shard counts must also be byte-identical when fanned out to 1, 2 or 4
// worker subprocesses. Process distribution is execution policy, never
// scenario identity — exactly the discipline the in-process pool already
// obeys for -jobs and -shards.
func TestGoldenWorkerProcs(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	simArgs := []string{"-mode", "simulate", "-sizes", "2..6", "-designs", "regular,waw+wap",
		"-pattern", "uniform", "-rate", "40", "-messages", "400", "-seed", "5", "-format", "json"}
	lcArgs := []string{"-mode", "load-curve", "-sizes", "3,4", "-designs", "regular,waw+wap",
		"-seed", "3", "-rates", "50,200,500", "-warmup", "500", "-measure", "2500", "-format", "json"}
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"sweep-sim-pre.golden", simArgs},
		{"sweep-loadcurve-pre.golden", lcArgs},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", c.golden))
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []string{"1", "2", "4"} {
			t.Run(c.golden+"/procs="+procs, func(t *testing.T) {
				var out strings.Builder
				args := append([]string{"-worker-procs", procs}, c.args...)
				if err := cmdSweep(args, &out); err != nil {
					t.Fatal(err)
				}
				if out.String() != string(want) {
					t.Errorf("multi-process output differs from %s at -worker-procs %s:\n--- got ---\n%.2000s\n--- want ---\n%.2000s",
						c.golden, procs, out.String(), want)
				}
			})
		}
	}
}

// TestCmdSweepOutCheckpointResume drives the streaming sinks end to end at
// the CLI layer: a full run produces the reference merged JSONL, then an
// artificially interrupted copy (output and checkpoint truncated mid-stream,
// with a torn half-line appended to each) is resumed and must converge to
// the byte-identical merged stream and the byte-identical rendered table.
func TestCmdSweepOutCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	dir := t.TempDir()
	args := []string{"-mode", "simulate", "-sizes", "2..4", "-designs", "regular,waw+wap",
		"-pattern", "uniform", "-rate", "40", "-messages", "200", "-seed", "9", "-format", "json"}

	// Reference: one uninterrupted run.
	refOut := filepath.Join(dir, "ref.jsonl")
	var refTable strings.Builder
	if err := cmdSweep(append([]string{"-out", refOut}, args...), &refTable); err != nil {
		t.Fatal(err)
	}
	refStream, err := os.ReadFile(refOut)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted copy: run with -unordered to keep completion order, then
	// truncate both files after the third finished scenario and append torn
	// fragments (what a SIGKILL mid-write leaves behind).
	outPath := filepath.Join(dir, "run.jsonl")
	ckPath := filepath.Join(dir, "run.ckpt")
	var discard strings.Builder
	full := append([]string{"-out", outPath, "-checkpoint", ckPath, "-unordered"}, args...)
	if err := cmdSweep(full, &discard); err != nil {
		t.Fatal(err)
	}
	truncateLines(t, outPath, 3)  // keep 3 result lines
	truncateLines(t, ckPath, 1+3) // keep header + their 3 checkpoint entries
	appendRaw(t, outPath, `{"index":99,"name":"torn`)
	appendRaw(t, ckPath, `{"index":99,"ha`)

	// Resume through a worker subprocess so the full coordinator + sink +
	// merge stack is on the hook for byte-identical convergence.
	var resumedTable strings.Builder
	resumeArgs := append([]string{"-out", outPath, "-checkpoint", ckPath, "-resume",
		"-worker-procs", "2"}, args...)
	if err := cmdSweep(resumeArgs, &resumedTable); err != nil {
		t.Fatal(err)
	}
	gotStream, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(gotStream) != string(refStream) {
		t.Errorf("resumed merged stream differs from uninterrupted run:\n--- got ---\n%.2000s\n--- want ---\n%.2000s",
			gotStream, refStream)
	}
	if resumedTable.String() != refTable.String() {
		t.Errorf("resumed rendered output differs from uninterrupted run:\n--- got ---\n%.2000s\n--- want ---\n%.2000s",
			resumedTable.String(), refTable.String())
	}

	// The reference stream must be valid spec-ordered JSONL.
	lines := strings.Split(strings.TrimSuffix(string(refStream), "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("expected 6 merged records, got %d", len(lines))
	}
	for i, line := range lines {
		var rec struct {
			Index  int             `json:"index"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("merged line %d is not valid JSON: %v", i, err)
		}
		if rec.Index != i {
			t.Errorf("merged line %d carries index %d; want spec order", i, rec.Index)
		}
		if len(rec.Result) == 0 {
			t.Errorf("merged line %d has no result payload", i)
		}
	}
}

// truncateLines rewrites path to its first n lines.
func truncateLines(t *testing.T, path string, n int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < n {
		t.Fatalf("%s has fewer than %d lines", path, n)
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines[:n], "")), 0o644); err != nil {
		t.Fatal(err)
	}
}

// appendRaw appends a torn fragment (no trailing newline) to path.
func appendRaw(t *testing.T, path, frag string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := io.WriteString(f, frag); err != nil {
		t.Fatal(err)
	}
}

// TestCmdSweepStreamFlagValidation pins the flag-dependency rules of the
// streaming sinks and worker mode: half-configured setups must fail before
// any compute is spent.
func TestCmdSweepStreamFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-checkpoint", "x.ckpt"},            // -checkpoint requires -out
		{"-resume"},                          // -resume requires -checkpoint
		{"-resume", "-out", "x.jsonl"},       // still no checkpoint
		{"-unordered"},                       // -unordered requires -out
		{"-worker-procs", "-1"},              // used to mean "one per core"
		{"-jobs", "-3"},                      // used to run on GOMAXPROCS workers
		{"-worker", "-sizes", "4"},           // grid flags belong to the coordinator
		{"-worker", "-jobs", "2"},            //
		{"-worker", "-out", "x.jsonl"},       //
		{"-resume", "-checkpoint", "x.ckpt"}, // still requires -out
		{"-out", filepath.Join("no", "such", "dir", "x")} /* uncreatable path */} {
		if err := cmdSweep(append(args, "-sizes", "2"), &strings.Builder{}); err == nil {
			t.Errorf("sweep %v should fail flag validation", args)
		}
	}
	// A maximum packet size past the ceiling used to wrap the regular design's
	// WCET below WaW+WaP's; it is rejected with the grid, before any compute.
	err := cmdSweep([]string{"-mode", "parallel-wcet", "-sizes", "8", "-max-packet-flits", "4611686018427387904"}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "exceeds the limit of 65536 flits") {
		t.Errorf("sweep -max-packet-flits 2^62: err = %v, want the limit rejection", err)
	}
	// A missing checkpoint with -resume is a fresh start, not an error.
	dir := t.TempDir()
	var out strings.Builder
	err = cmdSweep([]string{"-sizes", "2", "-out", filepath.Join(dir, "o.jsonl"),
		"-checkpoint", filepath.Join(dir, "o.ckpt"), "-resume"}, &out)
	if err != nil {
		t.Errorf("-resume with no prior checkpoint should start fresh: %v", err)
	}
}

// TestProgressLine checks the stderr progress format: done/total, a rate,
// an ETA once at least one scenario finished.
func TestProgressLine(t *testing.T) {
	line := progressLine(3, 12, 3*time.Second, "sweep/4x4/regular")
	for _, frag := range []string{"3/12", "1.0/s", "ETA 9s", "sweep/4x4/regular"} {
		if !strings.Contains(line, frag) {
			t.Errorf("progress line %q missing %q", line, frag)
		}
	}
	if got := progressLine(0, 5, time.Second, "x"); !strings.Contains(got, "ETA ?") {
		t.Errorf("zero-done progress line should have unknown ETA: %q", got)
	}
}
