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
// The module holds the stack needed to reproduce the paper's evaluation, one
// layer on top of the other. README.md describes each layer, how to run it
// and which key of the benchmark (bench/, compared between two commits by
// scripts/benchpair.sh) measures it; PROTOCOL.md specifies the wire formats.
//
// Topology (internal/mesh). mesh.Topology is one concrete value: the
// XY-routed router grid with a block of cores on each Local port. It owns the
// endpoint and router index spaces, the neighbour/port tables, the
// dimension-ordered routing decision, the allocation-free route walker (Walk;
// mesh.WalkXY on the plain mesh) and the per-input channel loads of the WaW
// closed forms. The paper's XY-routed 2D mesh is the 1×1 block; the
// concentrated meshes put 2 or 4 cores behind each router. Every topology
// that ships carries the paper's WCTT bounds.
//
// Weights (internal/flows). flows.WeightTableFor derives, from a topology
// alone, the per-router (input, output) flow counts the WaW arbiters count
// down and the analytical model divides by: the Section III closed forms of
// the paper for the mesh, the same forms scaled by the concentration for the
// concentrated meshes. It is the only derivation; the package's tests hold
// every entry of it to counts traced over the topology's own routes.
//
// Simulator (internal/flit, nic, arbiter, router, network, traffic). A NIC
// packetizes messages straight into its injection queue (regular or WaP) and
// reassembles what its router ejects; a router keeps its input FIFOs as fixed
// rings with a one-byte head-of-line record per buffered flit and a request
// mask per output, granted by bitmask arbiters (round-robin or WaW) held
// inside the Router struct. Network.Step is an active-set engine: it visits
// only routers holding flits and NICs with pending flits, tracks the WaW
// replenishment a sleeping router still owes lazily, and — because the active
// set empties the moment no flit exists anywhere — lets Run, RunUntilDrained
// and traffic.Drive leap over event-idle windows in O(1). Skipped visits and
// leapt cycles are provably no-ops, so the engine is cycle-for-cycle
// identical to the full per-node scan, which is the package's test oracle.
// Each network owns a flit.Pool that generators and NICs draw from and every
// consumed object returns to (delivery callbacks must not retain their
// *Message), and Network.Reset rewinds a network in place, so the
// steady-state cycle loop is free of heap allocations, injection included.
// The rate-driven generators take every injection decision from an exact
// replica of math/rand's source (traffic.drawSource), whose block refill marks
// the outputs that decide anything; a delivery adds to one latency sampler.
//
// Analysis (internal/analysis, wcet, workload, manycore, memctrl, area).
// analysis.Model precomputes per-router contender counts and output shares
// from the topology and its weight table, so a WCTT bound is a route walk of
// pure index arithmetic: a few dozen saturating integer operations
// (bits.Mul64 / bits.Add64 clamped at 2^64-1), zero allocations, never
// cached. Whole-mesh tables run on incremental all-pairs kernels
// (kernel.go) that carry the exact fold state between flows sharing a route
// prefix — destination-shared column states times one X-segment map per
// source and turn column for the chained-blocking bound, source-major sweeps
// over a tabulated hop cost for the WaW bound — and give the per-pair walk's
// value, which is their oracle: saturating arithmetic is the exact value
// clamped, whatever the grouping. On meshes from 16x16 up, up to four producers
// fill column slices of each row of sources in parallel and pass a turn in
// source order, so the one serial fold (an in-order float sum, bit-pinned)
// sees the same stream on any core count; the producers serve the regular
// bound only. The one-flit WaW summary visits no pair at any size: its bound
// is additive over the ports a route crosses, so the sum is a per-port cost
// times a closed-form pair count, kept exact in 128 bits, and the mean is
// that total over the count, correctly rounded (up to 2^53, every mesh up to
// 128x128, the in-order float sum bit for bit). The WaW table is one
// source-major sweep per source. wcet.Platform.Engine compiles a
// platform for one maximum packet size: per-core memory round-trip UBDs once per design,
// each WCET cell pure arithmetic. workload holds the synthetic EEMBC
// Automotive profiles and the 3DPP avionics model, manycore and memctrl the
// full simulated platform of the average-performance comparison.
//
// Experiments (internal/scenario, sweep, core). A scenario.Spec names mesh,
// topology, design point, mode (analytical WCTT, cycle-accurate simulation,
// many-core workload, parallel WCET, per-core WCET map, load-curve saturation
// study), workload or traffic selection and seeds; specs validate, carry
// sweep axes that Expand crosses into concrete scenarios, and execute into a
// stable, JSON-serialisable Result. The scenario layer also owns the only
// shared state of the module: two bounded caches (analytical models,
// compiled engines), keyed by the full parameter value and holding immutable
// objects; a cycle-accurate scenario builds and owns its network.
// internal/sweep executes spec lists through an Executor (the in-process worker pool, or the
// Coordinator fanning tasks out to `noctool sweep -worker` subprocesses) and
// composable ResultSinks (the spec-ordered collector, a streaming JSONL
// sink, a checkpoint writer that makes interrupted sweeps resumable).
// Aggregated output is byte-identical for 1 worker and for N, for every
// -worker-procs count and across any kill/resume schedule. internal/core
// declares the paper's own grids (Tables I-III, Figure 2, Section IV) on top.
//
// Serving (internal/serve, lineio, cache, faultinject). `noctool
// serve` answers WCTT and WCET queries and whole scenario specs over a
// JSON-line protocol on stdin, TCP and HTTP. A line passes through framing
// (the lineio scanner, which flushes pending output whenever it has to wait
// for input), decode (a shape-specialised scanner for flat wctt/wcet/ping
// lines, encoding/json for every other line), execution (the connection's
// reader goroutine when the line is flat and its model or engine is cached,
// the shared worker pool otherwise) and ordered output (a bounded
// per-connection queue of response slots). Requests that ask for more than
// the daemon will build — mesh size, payload bits, maximum packet size — are
// answered with a coded limit error before anything is allocated. A
// scenario line runs its own execution under its own deadline budget, sharing
// only the model and engine caches with other lines. faultinject scripts the
// seeded faults the chaos tests of both subsystems replay.
//
// cmd/noctool regenerates every table and figure of the paper and exposes
// the experiment layer (`noctool sweep`) and the daemon (`noctool serve`);
// examples/ holds runnable walkthroughs. Reference implementations — the
// full-scan engine, the slice-based router and arbiters, the
// route-materialising bounds, the route-tracing weight derivation — live in
// _test.go files beside the checks that use them, and surface_test.go keeps
// exported names that no non-test code spells from coming back.
package repro
