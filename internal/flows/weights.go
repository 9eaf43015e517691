package flows

import (
	"fmt"
	"sort"

	"repro/internal/mesh"
)

// This file derives the WaW arbitration weights.
//
// The key property of XY routing exploited by the paper is that, for a given
// output port of a given router, the set of input ports through which flows
// towards *any single* destination reachable via that output arrive — and the
// number of such flows per input — does not depend on which destination is
// chosen. The arbitration weights can therefore be precomputed statically
// from the topology and the routing algorithm alone, without knowing the
// actual application flows, which is what makes the resulting WCTT bounds
// time-composable.
//
// The closed forms printed in Section III of the paper (with x the horizontal
// and y the vertical coordinate, N the horizontal and M the vertical
// dimension) are, in this module's port convention (ports named after the
// travel direction of the flits that use them):
//
//	I_{X+} = x                O_{X+} = x + 1
//	I_{X-} = N - x - 1        O_{X-} = N - x
//	I_{Y+} = N * y            O_{Y+} = N * (y + 1)
//	I_{Y-} = N * (M - y - 1)  O_{Y-} = N * (M - y)
//	I_{PME} = 1               O_{PME} = N*M - 1
//
// (The paper prints I_{X-} = N-x and O_{X-} = N-x+1; the geometrically
// consistent forms above are off by one from the printed ones and are the
// ones that match the route-traced counts and the paper's own 2x2 worked
// example; see the package tests. The forms themselves live in
// mesh.Topology.InputLoads, with concentration 1 on the mesh.)

// PortCounts holds the per-destination-normalised flow counts of one router:
// for every output port, how many flows towards a single destination
// reachable through that output arrive through each input port.
//
// The counts are stored in fixed [mesh.NumDirections]-sized arrays indexed
// by mesh.Direction instead of nested maps: a WeightTable packs one
// PortCounts per node into a flat slice, so the analytical hot loops read
// weights with two array indexations and zero hashing or pointer chasing.
// Ports that do not exist (mesh boundary) or carry no flows simply hold
// zero, exactly like a missing map key did.
type PortCounts struct {
	Node mesh.Node
	// InputsPerOutput[out][in] is the number of per-destination flows that
	// reach output `out` through input `in`.
	InputsPerOutput [mesh.NumDirections][mesh.NumDirections]int
	// OutputTotal[out] is the total number of per-destination flows crossing
	// output `out` (the sum over inputs).
	OutputTotal [mesh.NumDirections]int
}

// Weight returns the WaW weight W(in, out) = I/O for this router, or 0 when
// the output carries no flows.
func (pc *PortCounts) Weight(in, out mesh.Direction) float64 {
	total := pc.OutputTotal[out]
	if total == 0 {
		return 0
	}
	return float64(pc.InputsPerOutput[out][in]) / float64(total)
}

// CounterMax returns the integer counter ceiling used by the hardware WaW
// implementation for the (in, out) pair: the number of flits the input port
// may transmit towards the output port per replenishment round, i.e. the
// per-destination flow count of that input.
func (pc *PortCounts) CounterMax(in, out mesh.Direction) int {
	return pc.InputsPerOutput[out][in]
}

// ClosedFormCounts returns the per-destination-normalised counts of the
// router at node n of the XY-routed mesh d, using the closed forms above.
// Output ports that do not exist at the mesh boundary get zero totals. It
// panics if n lies outside the mesh.
func ClosedFormCounts(d mesh.Dim, n mesh.Node) *PortCounts {
	if !d.Contains(n) {
		panic(fmt.Sprintf("flows: node %v outside %v mesh", n, d))
	}
	pc := &PortCounts{}
	topoCountsInto(mesh.Plain(d), n, pc)
	return pc
}

// topoCountsInto fills pc with the closed-form counts of the router at node n
// of topology t, writing straight into the caller's slot (a WeightTable's
// flat per-node slice) instead of allocating per router: the Section III XY
// turn-count dispatch, with the per-input loads, port existence and the
// Local→Local fan-out supplied by the topology (InputLoads holds the paper's
// mesh forms scaled by the concentration, which is 1 on the mesh). The
// package tests check every entry against counts traced over the topology's
// own routes.
func topoCountsInto(t mesh.Topology, n mesh.Node, pc *PortCounts) {
	inCount := t.InputLoads(n)
	*pc = PortCounts{Node: n}
	for _, out := range mesh.Directions {
		if !t.HasOutput(n, out) {
			continue
		}
		for _, in := range mesh.LegalInputsForTopo(t, n, out) {
			// U-turns never occur. Guarded to link ports: Local is its own
			// Opposite, and the Local→Local ejection turn (co-located cmesh
			// cores) is a real flow, not a U-turn.
			if in != mesh.Local && in == out.Opposite() {
				continue
			}
			cnt := 0
			switch {
			case out == mesh.Local:
				// Flows terminating here: every input contributes its own
				// count; the Local input contributes only when several
				// endpoints share the router (the cmesh Local→Local turn).
				if in == mesh.Local {
					cnt = t.LocalPairLoad()
				} else {
					cnt = inCount[in]
				}
			case out.IsX():
				// Only flows already travelling in the same X direction (or
				// injected locally) may use an X output under dimension order.
				if in == out {
					cnt = inCount[in]
				} else if in == mesh.Local {
					cnt = inCount[mesh.Local]
				}
			case out.IsY():
				// Flows travelling in the same Y direction continue; flows
				// arriving on either X input turn into the column here; the
				// local endpoints inject their own flows.
				if in == out || in.IsX() {
					cnt = inCount[in]
				} else if in == mesh.Local {
					cnt = inCount[mesh.Local]
				}
			}
			if cnt > 0 {
				pc.InputsPerOutput[out][in] = cnt
				pc.OutputTotal[out] += cnt
			}
		}
	}
}

// WeightTable is the full static WaW weight configuration of a mesh: one
// PortCounts per router, indexed by mesh.Dim.Index in a flat slice so the
// analytical hot loops address weights by node index without map hashing.
type WeightTable struct {
	Dim     mesh.Dim
	perNode []PortCounts // one entry per node, position i = Dim.NodeAt(i)
}

// ComputeWeightTable precomputes the WaW weights for every router of the
// XY-routed mesh d: WeightTableFor on the plain mesh.
func ComputeWeightTable(d mesh.Dim) *WeightTable {
	return WeightTableFor(mesh.Plain(d))
}

// WeightTableFor precomputes the WaW weights for every router of the
// topology: the table is indexed by the topology's router grid and each
// router's counts come from the closed forms (topoCountsInto). The weights
// depend only on the topology and its routing algorithm, never on the
// running applications, which preserves time composability. The caller owns
// the table.
func WeightTableFor(t mesh.Topology) *WeightTable {
	rd := t.RouterDim()
	wt := &WeightTable{Dim: rd, perNode: make([]PortCounts, rd.Nodes())}
	for i, n := range rd.AllNodes() {
		topoCountsInto(t, n, &wt.perNode[i])
	}
	return wt
}

// Counts returns the counts of the router at node n. It panics if the node
// is outside the mesh.
func (wt *WeightTable) Counts(n mesh.Node) *PortCounts {
	return &wt.perNode[wt.Dim.Index(n)]
}

// CountsAt returns the counts of the router with the given dense node index
// (mesh.Dim.Index order) — the allocation- and hash-free accessor the
// analytical fast paths use. It panics if idx is out of range.
func (wt *WeightTable) CountsAt(idx int) *PortCounts {
	return &wt.perNode[idx]
}

// WeightEntry is one row of a Table-I-style weight listing.
type WeightEntry struct {
	Pair    PortPair
	Regular float64 // plain round-robin share: 1 / number of contending inputs
	WaW     float64 // WaW share: I/O
}

// TableIEntries reproduces the structure of Table I of the paper for the
// router at node n: for every (input, output) pair that carries at least one
// flow, the bandwidth share allocated by a regular (unweighted) round-robin
// arbiter and by the WaW weighted arbiter. Entries are sorted by output then
// input direction for stable output.
func TableIEntries(d mesh.Dim, n mesh.Node) []WeightEntry {
	pc := ClosedFormCounts(d, n)
	var entries []WeightEntry
	for _, out := range mesh.Directions {
		ins := make([]mesh.Direction, 0, mesh.NumDirections)
		for _, in := range mesh.Directions {
			if pc.InputsPerOutput[out][in] > 0 {
				ins = append(ins, in)
			}
		}
		if len(ins) == 0 {
			continue
		}
		sort.Slice(ins, func(i, j int) bool { return ins[i] < ins[j] })
		for _, in := range ins {
			entries = append(entries, WeightEntry{
				Pair:    PortPair{In: in, Out: out},
				Regular: 1 / float64(len(ins)),
				WaW:     pc.Weight(in, out),
			})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Pair.Out != entries[j].Pair.Out {
			return entries[i].Pair.Out < entries[j].Pair.Out
		}
		return entries[i].Pair.In < entries[j].Pair.In
	})
	return entries
}
