package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the registry")

// contract is the shape of BENCHMARK.json the PR driver prescribes.
type contract struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []workloadDef    `json:"workloads"`
	EndToEnd   []contractMetric `json:"end_to_end"`
	PerLayer   []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func registryContract() contract {
	c := contract{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, m := range endToEnd {
		b := m.Bound
		c.EndToEnd = append(c.EndToEnd, contractMetric{m.Name, m.Unit, m.Better, &b})
	}
	for _, m := range perLayer {
		c.PerLayer = append(c.PerLayer, contractMetric{m.Name, m.Unit, m.Better, nil})
	}
	return c
}

func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want := registryContract()
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got contract
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the registry; run go test -run TestRegistryMatchesBenchmarkJSON -update")
	}
}

func TestRegistryWithinContractLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range endToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayer {
		check(m.Name)
		if len(m.On) == 0 {
			t.Errorf("%s: measured on no workload", m.Name)
		}
	}
}

// TestSmoke runs every workload untraced and traced on miniature sizes
// against a freshly built binary and checks that each run is correct, reports
// every declared metric, and measures exactly the per-layer metrics the
// registry says it measures there.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds noctool")
	}
	r, cleanup, err := newRunner(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	r.seed, r.mini = 2, true
	for _, w := range workloads {
		res, err := r.runMeasured(w.Name)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d %v", w.Name, res.Correct, res.Attempted, res.Failed, res.notes)
		}
		for _, m := range endToEnd {
			if v, ok := res.Metrics[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v", w.Name, m.Name, v)
			}
		}
		// The host-speed correction must have run and left the raw figures.
		if h := res.HostSlowdown; h == nil || h.N == 0 || h.Min <= 0 {
			t.Errorf("%s: host slowdown = %+v", w.Name, h)
		}
		for _, m := range []string{"latency_p50_ms", "latency_tail_ms", "throughput_per_s"} {
			if res.Raw[m] <= 0 {
				t.Errorf("%s: no raw %s", w.Name, m)
			}
		}

		res, err = r.runTraced(w.Name)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s traced: correct=%v attempted=%d failed=%d %v", w.Name, res.Correct, res.Attempted, res.Failed, res.notes)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s traced: %d metrics, want %d", w.Name, len(res.Metrics), len(perLayer))
		}
		for _, m := range perLayer {
			if m.Name == "bench.host_loadavg" {
				continue // set by run, from the environment block
			}
			if got := res.touched[m.Name]; got != m.on(w.Name) {
				t.Errorf("%s traced: %s measured=%v, registry says %v", w.Name, m.Name, got, m.on(w.Name))
			}
		}
		if len(res.spans) == 0 {
			t.Errorf("%s traced: no spans", w.Name)
		}
	}
}

// TestSendCountsUnansweredLines: a daemon that answers one line and then
// goes silent must cost the caller its deadline, not hang it, and every line
// without an answer counts as bad.
func TestSendCountsUnansweredLines(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		rd := bufio.NewReader(conn)
		if _, err := rd.ReadString('\n'); err == nil {
			fmt.Fprintln(conn, "pong")
		}
		io.Copy(io.Discard, rd) // swallow the rest until the caller hangs up
	}()
	c, err := dialCaller(ln.Addr().String(), []serveLine{{req: []byte("ping\n"), want: []byte("pong")}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.conn.Close()
	c.timeout = 100 * time.Millisecond
	c.send(5)
	if len(c.lat) != 1 || c.bad != 4 {
		t.Errorf("answered %d, bad %d; want 1 and 4", len(c.lat), c.bad)
	}
}

// TestInprocAbortUnblocksRoundTrip: the in-process replay's watchdog must end
// a round trip that gets no answer (here: a request line that never ends).
func TestInprocAbortUnblocksRoundTrip(t *testing.T) {
	s := startInproc(context.Background())
	watchdog := time.AfterFunc(50*time.Millisecond, s.abort)
	defer watchdog.Stop()
	if _, err := s.roundTrip([]byte(`{"op":"stats"`)); !errors.Is(err, errNoAnswer) {
		t.Errorf("round trip returned %v, want errNoAnswer", err)
	}
	s.close() // must return; its error is the aborted stream's
}

func TestPercentile(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("p%v = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %d", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{12, 3, 7, 9, 15, 1, 8, 22, 5, 10}
	q1, med, q3 := quartiles(v)
	// python3 -c "import statistics as s; print(s.quantiles([12,3,7,9,15,1,8,22,5,10], n=4))"
	want := [3]float64{4.5, 8.5, 12.75}
	if got := [3]float64{q1, med, q3}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
	if s := summarize(v); math.Abs(s.spread()-(12.75-4.5)/8.5) > 1e-12 {
		t.Errorf("spread = %v", s.spread())
	}
	if q1, med, q3 := quartiles([]float64{4}); q1 != 4 || med != 4 || q3 != 4 {
		t.Errorf("single value quartiles = %v %v %v", q1, med, q3)
	}
	sorted := sort.Float64sAreSorted(v)
	if sorted {
		t.Error("quartiles sorted its argument in place")
	}
}

func TestSpanSelfTime(t *testing.T) {
	// root(100) > point(80) > {step roll-up busy 50 over 10 calls, build(20)}
	spans := []span{
		{ID: 0, Parent: -1, Layer: "bench", Name: "replay", Calls: 1, BusyNS: 100},
		{ID: 1, Parent: 0, Layer: "bench", Name: "point", Calls: 1, BusyNS: 80},
		{ID: 2, Parent: 1, Layer: "network", Name: "step", Calls: 10, BusyNS: 50},
		{ID: 3, Parent: 1, Layer: "network", Name: "build", Calls: 1, BusyNS: 20},
		{ID: 4, Parent: -1, Layer: "scenario", Name: "execute", Calls: 1, BusyNS: 999},
	}
	if got, want := selfTimes(spans), []int64{20, 10, 50, 20, 999}; !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
	got := byLayer(spans, 0)
	want := map[string]layerTotals{"bench": {Calls: 2, SelfNS: 30}, "network": {Calls: 11, SelfNS: 70}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("byLayer = %v, want %v (spans outside the root must not count)", got, want)
	}
	if calls, busy := busyOf(spans, "network", "step", -1); calls != 10 || busy != 50 {
		t.Errorf("busyOf = %d, %d", calls, busy)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin("bench", "replay", -1)
	child := tr.begin("network", "build", 3)
	tr.end(child)
	tr.rollup("network", "step", 3, 5, 1234)
	tr.end(root)
	if len(tr.spans) != 3 || tr.spans[1].Parent != root || tr.spans[2].Parent != root || tr.spans[2].Calls != 5 {
		t.Errorf("spans = %+v", tr.spans)
	}
	var off *tracer // the untraced replay's tracer
	off.end(off.begin("x", "y", 0))
	off.rollup("x", "y", 0, 1, 1)
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{80, 120, 95, 130, 70, 110, 100, 125, 75, 105}
	shift := func(v []float64, f float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name           string
		parent, change []float64
		lower          bool
		want           string
	}{
		{"same", steady, steady, true, "ok"},
		{"5% slower within 10%", steady, shift(steady, 1.05), true, "ok"},
		{"20% slower, clear", steady, shift(steady, 1.2), true, "worse"},
		{"20% lower throughput", steady, shift(steady, 0.8), false, "worse"},
		{"20% higher throughput", steady, shift(steady, 1.2), false, "ok"},
		{"12% slower inside the noise", noisy, shift(noisy, 1.12), true, "unresolved"},
		{"noisy parent, same median", noisy, noisy, true, "unresolved"},
		{"noisy parent, change better on every run", noisy, shift(steady, 0.5), true, "ok"},
	} {
		if got, _ := verdict(c.parent, c.change, c.lower, 0.10); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
