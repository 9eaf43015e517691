package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/network"
	"repro/internal/scenario"
)

// TestServeMatchesSweepGolden pins the serve daemon to the one-shot CLI
// byte for byte: the scenario verb is fed exactly the grid behind
// sweep-sim-pre.golden, and the embedded result payloads, re-encoded the
// way cmdSweep encodes its results, must reproduce the golden unchanged.
// Caches, coalescing and worker scheduling are execution policy — a served
// answer may never differ from a freshly computed one.
func TestServeMatchesSweepGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "sweep-sim-pre.golden"))
	if err != nil {
		t.Fatal(err)
	}
	grid := scenario.Spec{
		Name:    "sweep",
		Mode:    scenario.ModeSimulate,
		Sizes:   []int{2, 3, 4, 5, 6},
		Designs: []network.Design{network.DesignRegular, network.DesignWaWWaP},
		Seed:    5,
		Traffic: scenario.Traffic{Pattern: "uniform", Rate: 40, Messages: 400},
		Shards:  1,
	}
	specs, err := grid.Expand()
	if err != nil {
		t.Fatal(err)
	}

	var in bytes.Buffer
	for i, spec := range specs {
		sj, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&in, `{"id":%d,"op":"scenario","spec":%s}`+"\n", i+1, sj)
	}
	var out strings.Builder
	if err := serveOn([]string{"-workers", "4"}, &in, &out); err != nil {
		t.Fatal(err)
	}

	// Reassemble the served result payloads into the sweep command's output
	// framing (an indent-2 JSON array in request order).
	var results []json.RawMessage
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		var r struct {
			ID     int64           `json:"id"`
			OK     bool            `json:"ok"`
			Result json.RawMessage `json:"result"`
			Error  string          `json:"error"`
		}
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad response %q: %v", line, err)
		}
		if !r.OK {
			t.Fatalf("scenario %d failed: %s", r.ID, r.Error)
		}
		if r.ID != int64(len(results)+1) {
			t.Fatalf("responses out of order: got id %d at position %d", r.ID, len(results))
		}
		results = append(results, r.Result)
	}
	if len(results) != len(specs) {
		t.Fatalf("served %d results for %d specs", len(results), len(specs))
	}
	var got bytes.Buffer
	enc := json.NewEncoder(&got)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("served results differ from sweep-sim-pre.golden:\n--- got ---\n%.2000s\n--- want ---\n%.2000s", got.String(), want)
	}
}

// TestServeSmokeGolden pins the full protocol surface (ping, wctt, batch,
// wcet, wcet-batch, scenario, and an error line) to a committed golden —
// the same request/response pair the CI smoke step replays over stdin and
// TCP against the built binary. A sweep worker is the daemon on stdio, so
// `sweep -worker` answers the corpus with the same bytes.
func TestServeSmokeGolden(t *testing.T) {
	reqs, err := os.ReadFile(filepath.Join("testdata", "serve-smoke.requests"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "serve-smoke.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		run  func(io.Reader, io.Writer) error
	}{
		{"serve -workers 1", func(in io.Reader, w io.Writer) error { return serveOn([]string{"-workers", "1"}, in, w) }},
		{"serve -workers 4", func(in io.Reader, w io.Writer) error { return serveOn([]string{"-workers", "4"}, in, w) }},
		{"sweep -worker", func(in io.Reader, w io.Writer) error { return sweepOn([]string{"-worker"}, in, w) }},
	} {
		var out strings.Builder
		if err := c.run(bytes.NewReader(reqs), &out); err != nil {
			t.Fatal(err)
		}
		if out.String() != string(want) {
			t.Errorf("%s responses differ from serve-smoke.golden:\n--- got ---\n%s\n--- want ---\n%s", c.name, out.String(), want)
		}
	}
}

func TestServeFlagValidation(t *testing.T) {
	if err := serveOn([]string{"-no-stdin"}, strings.NewReader(""), &strings.Builder{}); err == nil {
		t.Error("-no-stdin without listeners should fail")
	}
	if err := serveOn([]string{"-workers", "-2"}, strings.NewReader(""), &strings.Builder{}); err == nil {
		t.Error("negative -workers should fail")
	}
}
