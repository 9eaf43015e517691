package serve

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/scenario"
)

// counters aggregates server-wide activity with the same zero-contention
// discipline the engines use: the hot path (a batch handler) counts its
// bounds in a plain local variable and adds it here once per request, never
// per query. Reads are approximate snapshots (each counter is individually
// consistent).
type counters struct {
	requests atomic.Uint64 // protocol lines handled
	queries  atomic.Uint64 // individual WCTT/WCET bounds answered
	errors   atomic.Uint64 // lines answered with ok:false
	rejected atomic.Uint64 // lines turned away coded (overloaded/draining)

	// scenarioKernel counts scenario lines whose mode ran on the
	// kernel-backed analytical paths.
	scenarioKernel atomic.Uint64

	// latency is a power-of-two histogram of per-line handling time:
	// bucket b counts lines that took [2^(b-1), 2^b) nanoseconds. 48
	// buckets cover everything from sub-nanosecond to ~78 hours.
	latency [48]atomic.Uint64
}

// observe records one handled line and its latency.
func (c *counters) observe(ns uint64, failed bool) {
	c.requests.Add(1)
	if failed {
		c.errors.Add(1)
	}
	b := bits.Len64(ns)
	if b >= len(c.latency) {
		b = len(c.latency) - 1
	}
	c.latency[b].Add(1)
}

// reject records one line answered with a coded rejection before reaching
// a handler. Rejections are deliberately not requests: they never enter
// the latency histogram, so overload spikes don't fake fast handling.
func (c *counters) reject() { c.rejected.Add(1) }

// LatencyStats summarises the request-latency histogram.
type LatencyStats struct {
	// Count is the number of handled lines.
	Count uint64 `json:"count"`
	// P50NS, P99NS and MaxNS are upper bounds (bucket ceilings, in
	// nanoseconds) of the respective latency quantiles.
	P50NS uint64 `json:"p50_ns"`
	P99NS uint64 `json:"p99_ns"`
	MaxNS uint64 `json:"max_ns"`
	// Buckets holds the non-zero histogram cells: Buckets[i] counts lines in
	// [CeilingNS[i]/2, CeilingNS[i]) nanoseconds.
	CeilingNS []uint64 `json:"ceiling_ns"`
	Buckets   []uint64 `json:"buckets"`
}

// Stats is the payload of the stats protocol verb.
type Stats struct {
	// Requests/Queries/Errors count protocol lines, individual bounds and
	// failed lines respectively.
	Requests uint64 `json:"requests"`
	Queries  uint64 `json:"queries"`
	Errors   uint64 `json:"errors"`
	// WCTTMemoHits/Misses are retired: the per-pair bound memo they counted
	// is gone (PR 12, every bound is a route walk) and both are always 0.
	// The stats payload is additive-only, so the fields stay on the wire.
	WCTTMemoHits   uint64 `json:"wctt_memo_hits"`
	WCTTMemoMisses uint64 `json:"wctt_memo_misses"`
	// Coalesced is retired: the scenario flight it counted is gone (PR 25,
	// every scenario line runs its own execution under its own budget) and
	// it is always 0. It stays on the wire like the memo fields.
	Coalesced uint64 `json:"coalesced"`
	// Rejected counts lines answered with a coded rejection (overloaded or
	// draining) without reaching a handler.
	Rejected uint64 `json:"rejected"`
	// Caches snapshots the scenario-layer shared caches (models, compiled
	// engines; the networks block is retired and always zero) — the same
	// caches the sweep path uses.
	Caches scenario.SharedCacheStats `json:"caches"`
	// Kernel reports the incremental all-pairs kernel effectiveness.
	Kernel KernelStats `json:"kernel"`
	// Latency summarises per-line handling time.
	Latency LatencyStats `json:"latency"`
}

// KernelStats reports how much work the incremental all-pairs WCTT kernels
// absorbed. AllPairsRuns/RowSweeps are process-wide analysis-layer counters
// (they include sweep and CLI work sharing the process); ScenarioKernelRuns
// is this server's own counter.
type KernelStats struct {
	// AllPairsRuns counts all-pairs kernel invocations (whole-table or
	// streamed summaries); RowSweeps counts all-cores round-trip UBD rows,
	// one per AllCoresRoundTripUBD call (the wcet engine's per-core UBD
	// precomputations).
	AllPairsRuns uint64 `json:"all_pairs_runs"`
	RowSweeps    uint64 `json:"row_sweeps"`
	// MemoWarmed, BatchWarms and BatchWarmedBounds counted kernel tables
	// loaded into the per-pair memo; retired with it and always 0.
	MemoWarmed        uint64 `json:"memo_warmed"`
	BatchWarms        uint64 `json:"batch_warms"`
	BatchWarmedBounds uint64 `json:"batch_warmed_bounds"`
	// ScenarioKernelRuns counts the scenario lines whose mode (wctt,
	// wcet-map, parallel-wcet) ran on the kernel-backed analytical paths.
	ScenarioKernelRuns uint64 `json:"scenario_kernel_runs"`
}

// snapshot builds the stats payload.
func (c *counters) snapshot() Stats {
	s := Stats{
		Requests: c.requests.Load(),
		Queries:  c.queries.Load(),
		Errors:   c.errors.Load(),
		Rejected: c.rejected.Load(),
		Caches:   scenario.CacheStats(),
	}
	s.Kernel.AllPairsRuns, s.Kernel.RowSweeps, _ = analysis.KernelCounters()
	s.Kernel.ScenarioKernelRuns = c.scenarioKernel.Load()
	var total uint64
	for b := range c.latency {
		n := c.latency[b].Load()
		if n == 0 {
			continue
		}
		ceiling := uint64(1) << b
		s.Latency.CeilingNS = append(s.Latency.CeilingNS, ceiling)
		s.Latency.Buckets = append(s.Latency.Buckets, n)
		total += n
		s.Latency.MaxNS = ceiling
	}
	s.Latency.Count = total
	s.Latency.P50NS = quantile(s.Latency, total, 50)
	s.Latency.P99NS = quantile(s.Latency, total, 99)
	return s
}

// quantile returns the bucket ceiling at or above the pct-th percentile.
func quantile(l LatencyStats, total uint64, pct uint64) uint64 {
	if total == 0 {
		return 0
	}
	target := (total*pct + 99) / 100
	var seen uint64
	for i, n := range l.Buckets {
		seen += n
		if seen >= target {
			return l.CeilingNS[i]
		}
	}
	return l.MaxNS
}
