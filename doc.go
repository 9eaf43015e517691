// Package repro is a from-scratch Go reproduction of the system described in
// "Improving Performance Guarantees in Wormhole Mesh NoC Designs"
// (Panic, Hernandez, Abella, Roca Perez, Quinones, Cazorla — DATE 2016).
//
// The paper proposes two low-cost mechanisms that make worst-case traversal
// time (WCTT) bounds of wormhole-switched 2D-mesh NoCs tight, scalable and
// time-composable:
//
//   - WaP (WCTT-aware Packetization): the network interface slices every
//     request into minimum-size packets so the arbitration slot duration no
//     longer depends on the contenders' message sizes, and
//   - WaW (WCTT-aware Weighted round-robin arbitration): per-port arbitration
//     weights, derived statically from the XY routing algorithm, that give
//     every flow the same guaranteed share of every link it crosses.
//
// This module contains the complete stack needed to reproduce the paper's
// evaluation: the mesh/routing/flit substrate, a cycle-accurate wormhole NoC
// simulator with pluggable arbitration and packetization, the analytical
// WCTT and WCET models, synthetic models of the EEMBC Automotive suite and
// of the 3DPP avionics application, an area model, a CLI (cmd/noctool)
// that regenerates every table and figure of the paper, runnable examples
// (examples/) and one benchmark (bench/, compared between two commits by
// scripts/benchpair.sh; see "Measuring" in README.md).
//
// Every experiment flows through a unified, two-package experiment layer:
//
//   - internal/scenario declares experiments: a Spec names the mesh size,
//     design point, mode (analytical WCTT, cycle-accurate simulation,
//     many-core workload, parallel WCET, per-core WCET map, load-curve
//     saturation study), workload or traffic selection and seeds. Specs
//     validate, carry sweep axes (sizes x designs x workloads) that Expand
//     crosses into concrete scenarios, and execute into a stable,
//     JSON-serialisable Result.
//   - internal/sweep executes spec lists through a pluggable Executor +
//     ResultSink pair: an Executor (the in-process worker pool, or the
//     multi-process Coordinator fanning tasks out to `noctool sweep -worker`
//     subprocesses over the JSON-line protocol of PROTOCOL.md) pushes each
//     finished scenario into composable sinks — the in-memory spec-ordered
//     Collector behind Run, a streaming JSONL sink, and a checkpoint writer
//     whose finished-index + result-hash log makes interrupted sweeps
//     resumable (`noctool sweep -out -checkpoint -resume`). Aggregated
//     output is byte-identical for 1 worker and for N, for every
//     -worker-procs count, and across any kill/resume schedule — execution
//     policy never touches results.
//
// The cycle-accurate simulator (internal/network) schedules its cycle loop
// with an active-set engine: Step only visits routers holding flits and
// NICs with pending injection flits. A router enters the active set when a
// flit is staged into one of its inputs and leaves it as soon as its input
// FIFOs are empty; the idle-cycle WaW replenishment it still owes is
// tracked lazily and replayed in bulk when the router wakes. Because the
// active set empties the moment no flit exists anywhere, Run,
// RunUntilDrained and traffic.Drive leap over event-idle windows in O(1)
// (time-leap scheduling): a leap is legal iff no component's
// earliest-possible-action horizon — the traffic generator's next issue
// cycle (traffic.EventSource), a WaW counter still replenishing, a staged
// transfer — precedes the target cycle. Skipped visits and leapt cycles
// are provably no-ops, so the engine is cycle-for-cycle identical to the
// full per-node scan — retained as the network package's test oracle and
// pinned by equivalence, lockstep-microstate, hook-order and leap-vs-step
// tests. What a busy
// cycle costs is the flit-hop path: a router's input FIFOs are fixed rings
// (committed and staged counts on one ring, so a commit is a counter bump),
// each buffered flit has a one-byte head-of-line record (head, tail, routed
// output, legal turn) computed when it is staged, and wantMask[out] — the
// inputs whose front flit requests output out — changes only when a FIFO
// front changes; ComputeTransfers is one loop over five value-typed output
// ports granting from that mask through bitmask arbiters
// (RoundRobin/Weighted.GrantMask) held inside the Router struct, with the
// slice-and-[]bool forms kept as test oracles (bench keys
// network.ns_per_flit_hop, router.transfers_ns, sim-saturated
// latency_p50_ms). Each network
// owns a flit.Pool from which generators draw messages and NICs draw
// flits, with every consumed object recycled (delivery callbacks must not
// retain their *Message), and Network.Reset rewinds a network in place so
// the scenario layer reuses one constructed topology per worker across
// sweep points — together making the steady-state cycle loop free of heap
// allocations, injection included. The rate-driven generators take each
// per-node, per-cycle injection decision from an exact replica of math/rand's
// source (traffic.drawSource): the same streams, no call or divide per draw.
// The load-curve scenario mode builds the classical saturation study on top
// of this engine: per injection rate it runs warmup, measurement and drain
// windows of sustained uniform-random traffic and reports throughput plus
// total- and network-latency distributions (network latency excludes the
// source-queueing time; see noctool sweep -mode load-curve).
//
// The analytical stack mirrors the simulator's flat-indexed design: WaW
// weight tables are fixed-size arrays in a per-node-index slice owned by the
// network or model built on them (flows.WeightTableFor), analysis.Model
// precomputes per-node contender counts and output shares so the WCTT bound
// functions walk XY routes as pure index arithmetic with zero allocations
// (mesh.WalkXY / mesh.AppendXYHops are the general-purpose allocation-free
// walkers), and wcet.Platform.Engine compiles a platform for one packet size
// — validation once per table, per-core round-trip UBDs once per design,
// each Table III cell pure arithmetic. A point bound (Model.MessageWCTT) is
// that route walk and nothing else: a few dozen integer operations, never
// cached. The scenario layer caches models per parameter set and compiled
// engines per (mesh, packet size) next to its network pool, all three
// bounded; no package below it keeps process-lifetime state. Every cache is
// keyed by the full parameter value and every cached object is immutable, so
// no invalidation protocol exists. The route-materialising implementations
// the walk replaced live on in test code only
// (internal/analysis/reference_test.go) as its oracle, next to pre-refactor
// JSON goldens.
// A whole-mesh table runs on the incremental all-pairs kernels
// (internal/analysis/kernel.go): two flows sharing a route prefix repeat
// the same per-hop folds along it, so the kernels sweep pairs in route
// order and carry the exact fold state between them. The chained-blocking
// bound's (total, interval) state depends only on already-folded hops and
// is shared per DESTINATION, while summaries fold and tables store
// source-major: the regular producer therefore precomputes every
// destination's column state at every source row (N*H pairs), then fills
// one block of W source rows x N destinations per mesh row — source-major
// with a row stride padded by a cache line, so a destination's W writes do
// not alias in one cache set and the block, never an N^2 table, is the
// working set — and hands it to the consumer (the summary folds its rows,
// the table kernel copies them). The arithmetic under every bound is two
// divide-free primitives, a bits.Mul64 and a bits.Add64 clamped at 2^64-1,
// and a clamped total is absorbing, so a regular sweep that carries a
// saturated total onwards fills the rest of its direction instead of
// computing it (most flows from 48x48 up). The WaW bound is source-major
// outright: its per-hop slot terms compose additively — each depends only
// on the router output and the slot size, so a kernel call tabulates them
// once (five planes of N words) and a source's sweep walks the destination
// rows outwards from its own, one carried (total, maxShare) state per
// column, reading and writing every array contiguously — while the
// packet-count finishing term reads only the running output-share maximum
// and is applied on a copy. The O(N^2 * hops) all-pairs loop becomes
// amortized O(1) per pair with results bit-identical by construction (the
// identical saturating-arithmetic sequence, no reassociation); the route
// walk is the kernels' oracle across designs, dims and concentrated meshes
// (kernel_test.go), and the divide-based primitives are the oracle of the
// new ones (reference_test.go, FuzzSaturatingOps). SummarizeOneFlitWCTT, the wcet engine's round-trip UBD
// precomputation (AllCoresRoundTripUBD row sweeps, Engine.WCETMap) and the
// wctt/wcet-map scenario modes run on the kernels, extending the
// analytical sweep axes to 48x48 and 64x64 — where the regular bound
// saturates uint64 and is reported as the explicit value 2^64-1
// (examples/wcttscaling prints a `saturated` marker and keeps saturated
// endpoints out of growth ratios).
//
// Topology is a pluggable layer underneath all of this (mesh.Topology,
// mesh.TopoSpec): the 2D mesh is one instance of an interface that owns the
// node index space, the neighbour/port tables, the allocation-free route
// walkers (generic over the concrete topology type, so the mesh keeps its
// devirtualised fast path) and the WaW channel-load table. Beside the
// reference mesh ship a torus (wrap links, shortest-wrap dimension-ordered
// routing; simulation-only, since its channel loads break the paper's
// chained-blocking argument) and concentrated meshes (2 or 4 cores per
// router, with the Section III bounds transferred via concentration-scaled
// loads). Simulator, analytical engine, traffic patterns, scenario/sweep
// (Spec.Topology, noctool -topology, topology-keyed caches) and the serve
// protocol (PROTOCOL.md's topology field) all consume the interface; the
// mesh's output is byte-identical to the pre-topology code, pinned by
// goldens, and modes a topology cannot honour are rejected with actionable
// errors (wctt needs Analytical(), the WCET platform is mesh-only).
//
// The layering is: substrate (mesh, flit, router, network, traffic,
// manycore, analysis, wcet, workload) -> scenario -> sweep -> facade
// (internal/core) -> CLI/examples/benchmarks. The core package's table and
// figure functions, the noctool commands (including the grid-running
// `noctool sweep`) and the examples are all thin adapters over this layer.
// Process boundaries share one infrastructure slice: internal/lineio owns
// the JSON-line framing limits, scenario.CanonicalJSON is the single wire
// and cache-key encoding of a spec, and both the serve daemon and the sweep
// worker protocol are built on the pair. Within the serve daemon
// (internal/serve) a protocol line passes through four layers: framing (the
// lineio scanner over the connection, which flushes pending output whenever
// it has to wait for input), decode (a shape-specialised scanner for flat
// wctt/wcet/ping lines, encoding/json for every other line), execution (the
// connection's reader goroutine when the line is flat and its model or
// engine is cached, the shared worker pool otherwise — one Server.answer
// either way) and ordered output (a bounded per-connection queue of
// response slots drained by a writer goroutine).
// See README.md for the user-facing documentation.
package repro
