package scenario

// Result is the stable, mode-tagged outcome of one executed scenario. The
// identifying fields are always set; exactly one of the payload pointers
// (WCTT, Sim, Manycore, WCET, WCETMap) is non-nil, matching the mode. The
// struct marshals to self-describing JSON, so sweep output is directly
// machine-readable.
type Result struct {
	// Name, Mode, Dim, Design identify the scenario that produced the
	// result (enum fields by name, for stability).
	Name   string `json:"name,omitempty"`
	Mode   string `json:"mode"`
	Dim    string `json:"dim"`
	Design string `json:"design"`
	// Topology names the network topology when it is not the default 2D
	// mesh ("cmesh", "cmesh2"); it is omitted for the mesh so
	// pre-topology result JSON is reproduced byte-identically.
	Topology string `json:"topology,omitempty"`
	// Workload, Placement, MaxPacketFlits and Seed carry the remaining
	// identifying parameters when the mode uses them.
	Workload       string `json:"workload,omitempty"`
	Placement      string `json:"placement,omitempty"`
	MaxPacketFlits int    `json:"max_packet_flits,omitempty"`
	Seed           int64  `json:"seed,omitempty"`

	WCTT     *WCTTResult     `json:"wctt,omitempty"`
	Sim      *SimResult      `json:"sim,omitempty"`
	Manycore *ManycoreResult `json:"manycore,omitempty"`
	WCET     *WCETResult     `json:"wcet,omitempty"`
	// WCETMap is the per-core map of ModeWCETMap, indexed [y][x].
	WCETMap [][]float64 `json:"wcet_map,omitempty"`
	// LoadCurve is the latency/throughput curve of ModeLoadCurve.
	LoadCurve *LoadCurveResult `json:"load_curve,omitempty"`
}

// WCTTResult summarises the analytical one-flit WCTT bounds over every
// ordered node pair (one Table II cell group).
type WCTTResult struct {
	MaxCycles  uint64  `json:"max_cycles"`
	MeanCycles float64 `json:"mean_cycles"`
	MinCycles  uint64  `json:"min_cycles"`
	Flows      int     `json:"flows"`
}

// SimResult reports a cycle-accurate traffic simulation.
type SimResult struct {
	Injected      int     `json:"injected"`
	Delivered     uint64  `json:"delivered"`
	Cycles        uint64  `json:"cycles"`
	MinLatency    float64 `json:"min_latency"`
	MeanLatency   float64 `json:"mean_latency"`
	MaxLatency    float64 `json:"max_latency"`
	InjectedFlits uint64  `json:"injected_flits"`
}

// LoadCurveResult reports a latency-vs-injection-rate saturation study:
// one point per sustained uniform-random injection rate, all simulated on
// the same design point and mesh.
type LoadCurveResult struct {
	WarmupCycles  int              `json:"warmup_cycles"`
	MeasureCycles int              `json:"measure_cycles"`
	Points        []LoadCurvePoint `json:"points"`
}

// LoadCurvePoint is one rate sample of a load curve. Latency statistics
// cover the messages created during the measurement window and delivered
// before the end of the bounded drain; Drained reports whether the network
// emptied within the drain budget (it stops being true past saturation).
type LoadCurvePoint struct {
	// RatePerMil is the offered injection rate in messages per node per
	// 1000 cycles.
	RatePerMil int `json:"rate_per_mil"`
	// Offered counts the messages injected during the measurement window;
	// Delivered counts how many of them completed by the end of the
	// bounded drain (their ratio is the completion rate at this load).
	Offered   int    `json:"offered"`
	Delivered uint64 `json:"delivered"`
	// Throughput is the steady-state accepted traffic in messages per node
	// per 1000 cycles: deliveries completing inside the measurement window
	// (whenever created), divided by the window length.
	Throughput float64 `json:"throughput"`
	// Total message latency statistics (creation to reassembly), cycles.
	MinLatency    float64 `json:"min_latency"`
	MeanLatency   float64 `json:"mean_latency"`
	MaxLatency    float64 `json:"max_latency"`
	StdDevLatency float64 `json:"stddev_latency"`
	// Network latency statistics (first-flit injection to reassembly,
	// excluding source queueing), cycles.
	MeanNetworkLatency float64 `json:"mean_network_latency"`
	MaxNetworkLatency  float64 `json:"max_network_latency"`
	Drained            bool    `json:"drained"`
}

// ManycoreResult reports a full-platform workload run.
type ManycoreResult struct {
	MakespanCycles  uint64 `json:"makespan_cycles"`
	MemTransactions uint64 `json:"mem_transactions"`
	Cores           int    `json:"cores"`
}

// WCETResult reports a parallel-application WCET estimate.
type WCETResult struct {
	Cycles uint64  `json:"cycles"`
	Millis float64 `json:"millis"`
}
