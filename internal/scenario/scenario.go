// Package scenario is the declarative experiment layer of the repository:
// every evaluation of the paper (analytical WCTT summaries, cycle-accurate
// traffic simulations, many-core workload runs, parallel-application WCET
// estimates and per-core WCET maps) is described by a Spec and produces a
// Result. Specs carry optional sweep axes (mesh sizes, design points,
// workloads) that Expand crosses into a list of concrete scenarios; the
// sweep package executes such lists in parallel with deterministic,
// index-ordered aggregation.
//
// Layering: scenario sits on top of the substrate packages (analysis,
// network, traffic, manycore, wcet, workload) and below the sweep engine,
// the core facade, the CLI and the examples.
package scenario

import (
	"cmp"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/mesh"
	"repro/internal/network"
)

// Mode selects what a scenario computes.
type Mode int

const (
	// ModeWCTT computes the analytical one-flit worst-case traversal time
	// summary (max/mean/min over every ordered node pair) — the Table II
	// experiment for one mesh size and one design.
	ModeWCTT Mode = iota
	// ModeSimulate drives a synthetic traffic pattern through the
	// cycle-accurate simulator and reports the delivered-message latency
	// spread.
	ModeSimulate
	// ModeManycore runs an EEMBC kernel on every core of the full
	// evaluation platform (cores + NoC + memory controller) and reports
	// the makespan — the Section IV average-performance experiment for
	// one design.
	ModeManycore
	// ModeParallelWCET computes the WCET estimate of the parallel 3DPP
	// avionics application under one placement and maximum packet size —
	// one bar of Figure 2.
	ModeParallelWCET
	// ModeWCETMap computes a per-core WCET map. With an empty Workload it
	// is the Table III normalised map (WaW+WaP over regular, averaged
	// over the EEMBC suite); with a Workload it is the absolute per-core
	// WCET of that kernel under the scenario's design.
	ModeWCETMap
	// ModeLoadCurve sweeps sustained uniform-random injection rates
	// through the cycle-accurate simulator and reports one
	// latency/throughput point per rate — the classical NoC saturation
	// study. Each rate runs a warmup window, a measurement window and a
	// bounded drain; only messages created during the measurement window
	// contribute samples.
	ModeLoadCurve
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeWCTT:
		return "wctt"
	case ModeSimulate:
		return "simulate"
	case ModeManycore:
		return "manycore"
	case ModeParallelWCET:
		return "parallel-wcet"
	case ModeWCETMap:
		return "wcet-map"
	case ModeLoadCurve:
		return "load-curve"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode converts a user-supplied string to a Mode.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "wctt", "":
		return ModeWCTT, nil
	case "simulate", "sim":
		return ModeSimulate, nil
	case "manycore", "avgperf":
		return ModeManycore, nil
	case "parallel-wcet", "avionics":
		return ModeParallelWCET, nil
	case "wcet-map", "eembc":
		return ModeWCETMap, nil
	case "load-curve", "loadcurve", "saturation":
		return ModeLoadCurve, nil
	default:
		return 0, fmt.Errorf("scenario: unknown mode %q (want wctt, simulate, manycore, parallel-wcet, wcet-map or load-curve)", s)
	}
}

// ParseDesign converts a user-supplied string to a design point.
func ParseDesign(s string) (network.Design, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "regular", "baseline":
		return network.DesignRegular, nil
	case "waw+wap", "wawwap", "waw-wap", "proposed":
		return network.DesignWaWWaP, nil
	case "waw-only", "wawonly", "waw":
		return network.DesignWaWOnly, nil
	case "wap-only", "waponly", "wap":
		return network.DesignWaPOnly, nil
	default:
		return 0, fmt.Errorf("scenario: unknown design %q (want regular, waw+wap, waw-only or wap-only)", s)
	}
}

// ParseDesigns converts a comma-separated design list ("regular,waw+wap").
func ParseDesigns(s string) ([]network.Design, error) {
	var out []network.Design
	for _, part := range strings.Split(s, ",") {
		if strings.TrimSpace(part) == "" {
			continue
		}
		d, err := ParseDesign(part)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("scenario: empty design list %q", s)
	}
	return out, nil
}

// ParseSizes converts a size-list string to square mesh sizes. It accepts
// comma-separated values and inclusive ranges: "2..8", "2,4,8", "2..4,8".
func ParseSizes(s string) ([]int, error) { return parseIntList(s, "size") }

// ParseRates converts an injection-rate list string (messages per node per
// 1000 cycles) for the load-curve mode, with the same syntax as ParseSizes.
func ParseRates(s string) ([]int, error) { return parseIntList(s, "rate") }

// parseIntList parses comma-separated integers and inclusive a..b ranges.
func parseIntList(s, what string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if lo, hi, ok := strings.Cut(part, ".."); ok {
			a, err := strconv.Atoi(strings.TrimSpace(lo))
			if err != nil {
				return nil, fmt.Errorf("scenario: bad %s range %q: %v", what, part, err)
			}
			b, err := strconv.Atoi(strings.TrimSpace(hi))
			if err != nil {
				return nil, fmt.Errorf("scenario: bad %s range %q: %v", what, part, err)
			}
			if a > b {
				return nil, fmt.Errorf("scenario: empty %s range %q", what, part)
			}
			for v := a; v <= b; v++ {
				out = append(out, v)
			}
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("scenario: bad %s %q: %v", what, part, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("scenario: empty %s list %q", what, s)
	}
	return out, nil
}

// Traffic describes the synthetic traffic of a ModeSimulate scenario.
type Traffic struct {
	// Pattern is one of "hotspot" (all-to-one towards Target, the
	// default), "uniform" (uniform-random destinations), "transpose",
	// "bitcomp", "neighbor" or "tornado" (deterministic permutations on the
	// topology's endpoint grid).
	Pattern string `json:"pattern,omitempty"`
	// Rate is the injection intensity. Hotspot: per-node injection
	// probability per cycle in percent. Uniform: messages per node per
	// 1000 cycles. Permutations: the issue interval in cycles between
	// rounds.
	Rate int `json:"rate,omitempty"`
	// Messages is the total number of messages (hotspot, uniform) or
	// all-node rounds (permutations) to inject.
	Messages int `json:"messages,omitempty"`
	// PayloadBits is the message payload size; 0 selects the platform's
	// one-flit request payload.
	PayloadBits int `json:"payload_bits,omitempty"`
	// Target is the hotspot destination.
	Target mesh.Node `json:"target"`

	// Rates lists the sustained uniform-random injection rates (messages
	// per node per 1000 cycles) swept by ModeLoadCurve; empty selects the
	// default rate ladder.
	Rates []int `json:"rates,omitempty"`
	// WarmupCycles and MeasureCycles bound the per-rate windows of
	// ModeLoadCurve; 0 selects the mode defaults. Only messages created
	// during the measurement window contribute latency samples.
	WarmupCycles  int `json:"warmup_cycles,omitempty"`
	MeasureCycles int `json:"measure_cycles,omitempty"`
}

// MaxPacketFlitsLimit is the largest max_packet_flits (the network's L
// parameter) a spec, the sweep CLI or the daemon's wcet verbs accept. The
// regular design's bound grows with L at every hop; beyond this ceiling the
// access-count product of the WCET wraps even on the paper's 8x8 platform and
// a hostile value reads as a small, unsound bound.
const MaxPacketFlitsLimit = 1 << 16

// The size limits every door applies to a spec before it is built: the
// sweep CLI and its workers through Expand and Validate, the daemon's verbs
// through Validate and CheckNodeLimit.
const (
	// maxNodes is the largest mesh (width x height endpoints) accepted:
	// 128x128. Every table a run builds is at least O(nodes), so the
	// ceiling is checked before the first allocation.
	maxNodes = 128 * 128
	// maxSide is the longest side of a spec's mesh. A scenario runs
	// whole-mesh kernels whose tables grow with a side times the node
	// count, so maxNodes alone does not bound them: the regular all-pairs
	// summary of an 11111x1 strip allocated 2.8 GB, and ran for seconds,
	// before it first asked for its deadline. Every mesh up to 128x128 is
	// accepted.
	maxSide = 128
)

// LimitError is a request refused because it asks for more than a run will
// build or compute, not because it is malformed; the daemon codes it
// "limit".
type LimitError struct{ msg string }

func (e *LimitError) Error() string { return e.msg }

// CheckNodeLimit rejects a mesh above 128x128 nodes with a *LimitError. A
// side below 1 is left to the caller's own validation; each side is
// compared before the product, which therefore cannot overflow.
func CheckNodeLimit(width, height int) error {
	if width < 1 || height < 1 {
		return nil
	}
	if width > maxNodes || height > maxNodes || width*height > maxNodes {
		return &LimitError{fmt.Sprintf("mesh %dx%d exceeds the limit of %d nodes", width, height, maxNodes)}
	}
	return nil
}

// Spec declares one experiment, or — through the Sizes/Designs/Workloads
// sweep axes — a whole grid of them.
type Spec struct {
	// Name labels the scenario in results and progress output. Expand
	// derives child names from it.
	Name string `json:"name,omitempty"`
	// Mode selects the experiment kind.
	Mode Mode `json:"-"`
	// Width and Height are the endpoint-grid dimensions (the mesh size; for
	// the concentrated mesh the core grid, whose router grid is derived from
	// the concentration).
	Width  int `json:"width"`
	Height int `json:"height"`
	// Topology selects the network topology by canonical name: "" or "mesh"
	// (the default), "cmesh"/"cmesh4" (4 cores per router) or "cmesh2".
	// The platform modes (wcet-map, parallel-wcet, manycore) require the
	// mesh; see Validate for the exact gating.
	Topology string `json:"topology,omitempty"`
	// Design is the NoC design point under evaluation.
	Design network.Design `json:"-"`
	// Seed is the pseudo-random seed of ModeSimulate scenarios.
	Seed int64 `json:"seed,omitempty"`
	// Traffic configures ModeSimulate.
	Traffic Traffic `json:"traffic,omitzero"`
	// MaxCycles bounds cycle-accurate runs (ModeSimulate, ModeManycore);
	// 0 selects a mode-specific default.
	MaxCycles int `json:"max_cycles,omitempty"`
	// Shards is accepted for compatibility and ignored: it once set the
	// shard count of the cycle-accurate simulator, results were and are
	// byte-identical for every value, and it never appears in a Result.
	// Negative counts are rejected. Parallelism is sweep.Options.Jobs and
	// the multi-process executor.
	Shards int `json:"shards,omitempty"`
	// Workload names the EEMBC kernel of ModeManycore (required) and
	// ModeWCETMap (optional, empty = normalised suite map).
	Workload string `json:"workload,omitempty"`
	// Scale divides the workload's instruction counts to keep
	// cycle-accurate many-core runs tractable; 0 means 1 (unscaled).
	Scale int `json:"scale,omitempty"`
	// Placement names the thread placement of ModeParallelWCET (P0-P3);
	// empty means P0.
	Placement string `json:"placement,omitempty"`
	// MaxPacketFlits overrides the maximum packet size of
	// ModeParallelWCET (the L parameter of Figure 2a); 0 keeps the
	// platform default, values above MaxPacketFlitsLimit are rejected.
	MaxPacketFlits int `json:"max_packet_flits,omitempty"`

	// Sweep axes: when non-empty, Expand crosses them into concrete
	// scenarios. Sizes produces square Width=Height=s meshes.
	Sizes     []int            `json:"sizes,omitempty"`
	Designs   []network.Design `json:"-"`
	Workloads []string         `json:"workloads,omitempty"`
}

// specAlias strips Spec's methods so specJSON marshalling does not recurse
// into Spec.MarshalJSON.
type specAlias Spec

// specJSON mirrors Spec with the enum fields rendered as strings.
type specJSON struct {
	specAlias
	ModeName    string   `json:"mode"`
	DesignName  string   `json:"design"`
	DesignNames []string `json:"designs,omitempty"`
}

// MarshalJSON renders Mode and Design by name so machine-readable sweep
// output is self-describing and stable across enum reordering.
func (s Spec) MarshalJSON() ([]byte, error) {
	j := specJSON{specAlias: specAlias(s), ModeName: s.Mode.String(), DesignName: s.Design.String()}
	for _, d := range s.Designs {
		j.DesignNames = append(j.DesignNames, d.String())
	}
	return json.Marshal(j)
}

// UnmarshalJSON parses the representation produced by MarshalJSON.
func (s *Spec) UnmarshalJSON(data []byte) error {
	var j specJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*s = Spec(j.specAlias)
	if len(s.Traffic.Rates) == 0 { // "rates":[] would keep a zero Traffic encoded on the first hop only
		s.Traffic.Rates = nil
	}
	if j.ModeName != "" {
		m, err := ParseMode(j.ModeName)
		if err != nil {
			return err
		}
		s.Mode = m
	}
	if j.DesignName != "" {
		d, err := ParseDesign(j.DesignName)
		if err != nil {
			return err
		}
		s.Design = d
	}
	s.Designs = nil
	for _, name := range j.DesignNames {
		d, err := ParseDesign(name)
		if err != nil {
			return err
		}
		s.Designs = append(s.Designs, d)
	}
	return nil
}

// Dim returns the validated mesh dimensions of the spec.
func (s Spec) Dim() (mesh.Dim, error) { return mesh.NewDim(s.Width, s.Height) }

// TopoSpec parses the spec's topology name ("" selects the mesh).
func (s Spec) TopoSpec() (mesh.TopoSpec, error) { return mesh.ParseTopology(s.Topology) }

// Validate checks a concrete (already expanded) spec. The size limits come
// first, as a *LimitError.
func (s Spec) Validate() error {
	if err := CheckNodeLimit(s.Width, s.Height); err != nil {
		return err
	}
	if s.Width > maxSide || s.Height > maxSide {
		return &LimitError{fmt.Sprintf("scenario: mesh %dx%d exceeds the limit of %dx%d", s.Width, s.Height, maxSide, maxSide)}
	}
	if len(s.Sizes) > 0 || len(s.Designs) > 0 || len(s.Workloads) > 0 {
		return fmt.Errorf("scenario: spec %q still carries sweep axes; call Expand first", s.Name)
	}
	d, err := s.Dim()
	if err != nil {
		return err
	}
	ts, err := s.TopoSpec()
	if err != nil {
		return err
	}
	// Resolving the topology against the grid catches geometry mismatches
	// (e.g. a cmesh concentration that does not divide the endpoint grid).
	topo, err := ts.Build(d)
	if err != nil {
		return err
	}
	switch s.Mode {
	case ModeWCTT:
		// Every topology that builds carries a WCTT bound.
	case ModeWCETMap, ModeParallelWCET:
		if ts.Kind != mesh.TopoMesh {
			return fmt.Errorf("scenario: mode %v models the paper's many-core platform, which is defined on the 2D mesh only; topology %v is not supported", s.Mode, topo)
		}
	case ModeSimulate:
		switch s.Traffic.Pattern {
		case "", "hotspot", "uniform": // never to the source itself: one endpoint would never inject
			if d.Nodes() == 1 {
				return fmt.Errorf("scenario: %s traffic needs at least two endpoints; the %v grid has one", cmp.Or(s.Traffic.Pattern, "hotspot"), d)
			}
		case "transpose", "bitcomp", "neighbor", "tornado":
		default:
			return fmt.Errorf("scenario: unknown traffic pattern %q", s.Traffic.Pattern)
		}
		if s.Traffic.Rate < 0 || s.Traffic.Messages < 0 || s.Traffic.PayloadBits < 0 {
			return fmt.Errorf("scenario: negative traffic parameter in %+v", s.Traffic)
		}
	case ModeManycore:
		if s.Workload == "" {
			return fmt.Errorf("scenario: manycore scenario %q needs a workload", s.Name)
		}
		if ts.Kind != mesh.TopoMesh {
			return fmt.Errorf("scenario: mode manycore models the paper's many-core platform, which is defined on the 2D mesh only; topology %v is not supported", topo)
		}
	case ModeLoadCurve:
		switch s.Traffic.Pattern {
		case "", "uniform":
		default:
			return fmt.Errorf("scenario: load-curve sweeps uniform-random traffic; pattern %q is not supported", s.Traffic.Pattern)
		}
		for _, r := range s.Traffic.Rates {
			if r <= 0 {
				return fmt.Errorf("scenario: load-curve rate must be positive, got %d", r)
			}
			// The uniform-random generator injects at most one message per
			// node per cycle, so rates past 1000 per-mil would all offer the
			// same load and mislabel the curve's x-axis.
			if r > 1000 {
				return fmt.Errorf("scenario: load-curve rate %d exceeds 1000 msgs/node/kcycle, the generator's offered-load ceiling", r)
			}
		}
		if s.Traffic.WarmupCycles < 0 || s.Traffic.MeasureCycles < 0 {
			return fmt.Errorf("scenario: negative load-curve window in %+v", s.Traffic)
		}
		if s.Traffic.PayloadBits < 0 {
			return fmt.Errorf("scenario: negative traffic parameter in %+v", s.Traffic)
		}
	default:
		return fmt.Errorf("scenario: unknown mode %v", s.Mode)
	}
	if s.MaxCycles < 0 {
		return fmt.Errorf("scenario: negative cycle budget %d", s.MaxCycles)
	}
	if s.Shards < 0 {
		return fmt.Errorf("scenario: negative shard count %d", s.Shards)
	}
	if s.Scale < 0 {
		return fmt.Errorf("scenario: negative scale %d", s.Scale)
	}
	if s.MaxPacketFlits < 0 {
		return fmt.Errorf("scenario: negative max packet size %d", s.MaxPacketFlits)
	}
	if s.MaxPacketFlits > MaxPacketFlitsLimit {
		return fmt.Errorf("scenario: max packet size %d exceeds the limit of %d flits", s.MaxPacketFlits, MaxPacketFlitsLimit)
	}
	return nil
}

// Expand crosses the sweep axes (sizes x designs x workloads) into concrete
// specs, in deterministic order: sizes outermost, then designs, then
// workloads. Axes left empty contribute the spec's own scalar field as the
// single element. The returned specs have their axes cleared and validate
// cleanly; expansion itself fails if any resulting spec is invalid.
func (s Spec) Expand() ([]Spec, error) {
	sizes := s.Sizes
	widths, heights := []int{s.Width}, []int{s.Height}
	if len(sizes) > 0 {
		widths, heights = sizes, sizes
	}
	designs := s.Designs
	if len(designs) == 0 {
		designs = []network.Design{s.Design}
	}
	workloads := s.Workloads
	if len(workloads) == 0 {
		workloads = []string{s.Workload}
	}

	out := make([]Spec, 0, len(widths)*len(designs)*len(workloads))
	for i := range widths {
		for _, design := range designs {
			for _, wl := range workloads {
				c := s
				c.Sizes, c.Designs, c.Workloads = nil, nil, nil
				c.Width, c.Height = widths[i], heights[i]
				c.Design = design
				c.Workload = wl
				c.Name = childName(s.Name, c)
				if err := c.Validate(); err != nil {
					return nil, err
				}
				out = append(out, c)
			}
		}
	}
	return out, nil
}

// childName labels an expanded scenario:
// "<base>/<dim>[/<topology>]/<design>[/<workload>]". The topology segment
// appears only for non-mesh topologies, so mesh sweep output keeps its
// pre-topology names.
func childName(base string, c Spec) string {
	parts := []string{fmt.Sprintf("%dx%d", c.Width, c.Height)}
	if ts, err := c.TopoSpec(); err == nil && ts.Kind != mesh.TopoMesh {
		parts = append(parts, ts.String())
	}
	parts = append(parts, c.Design.String())
	if c.Workload != "" {
		parts = append(parts, c.Workload)
	}
	if base != "" {
		parts = append([]string{base}, parts...)
	}
	return strings.Join(parts, "/")
}
