package flows

import (
	"fmt"
	"math/bits"
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
	pc := countsFor(mesh.Plain(d), n)
	return &pc
}

// countsFor returns the closed-form counts of the router at node n of
// topology t without allocating: every legal turn into an output that exists
// (Topology.Ports) carries its TurnLoad. The package tests check every entry
// against counts traced over the topology's own routes.
func countsFor(t mesh.Topology, n mesh.Node) PortCounts {
	inLoads := t.InputLoads(n)
	legal, outputs := t.Ports(n)
	pc := PortCounts{Node: n}
	for out, ins := range legal {
		if outputs&(1<<out) == 0 {
			continue
		}
		for ; ins != 0; ins &= ins - 1 {
			in := bits.TrailingZeros8(ins)
			cnt := TurnLoad(t, &inLoads, mesh.Direction(in), mesh.Direction(out))
			pc.InputsPerOutput[out][in] = cnt
			pc.OutputTotal[out] += cnt
		}
	}
	return pc
}

// TurnLoad is the Section III load rule, the one place it is applied (by
// countsFor and by the analytical model's output shares): the
// per-destination flow count a legal turn in→out carries at a router whose
// inputs carry inLoads (Topology.InputLoads: the paper's mesh forms scaled
// by the concentration, which is 1 on the mesh). Under XY routing the flows
// an input carries towards any one destination reachable through out all
// take out — X outputs take the same-direction flows and the local
// injections, Y outputs also the flows turning in from either X input, the
// ejection port every arrival — so the turn carries the input's whole load.
// The exception is the Local→Local turn, which carries the flows of the
// other cores sharing the router (Topology.LocalPairLoad, 0 on the mesh).
func TurnLoad(t mesh.Topology, inLoads *[mesh.NumDirections]int, in, out mesh.Direction) int {
	if in == mesh.Local && out == mesh.Local {
		return t.LocalPairLoad()
	}
	return inLoads[in]
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
// router's counts come from the closed forms (countsFor). The weights
// depend only on the topology and its routing algorithm, never on the
// running applications, which preserves time composability. The caller owns
// the table.
func WeightTableFor(t mesh.Topology) *WeightTable {
	rd := t.RouterDim()
	wt := &WeightTable{Dim: rd, perNode: make([]PortCounts, rd.Nodes())}
	for i := range wt.perNode {
		wt.perNode[i] = countsFor(t, rd.NodeAt(i))
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
