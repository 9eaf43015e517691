package router_test

import (
	"fmt"
	"math/bits"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/flit"
	"repro/internal/flows"
	"repro/internal/mesh"
	"repro/internal/network"
	"repro/internal/nic"
	"repro/internal/router"
	"repro/internal/traffic"
)

// The hop lemmas are the one-router claims both WCTT bounds fold, one per
// hop (the analysis package comment's W_j and (O_j - 1) * m terms).
// TestHopLemmas checks each against a real Router, over every schedule of a
// bounded space:
//
//   - Regular. A head at the front of its input waits at most
//     (c-1)*(H + L*iv) cycles for output o, where c counts the inputs that
//     can legally request o (the analysis model's contender count): each of
//     the other c-1 inputs may send up to two packets of 1 or L flits,
//     released together at a cycle in [0, T), and the downstream buffer
//     takes one flit every iv cycles (a one-slot buffer whose credit returns
//     iv cycles after the flit left; iv = 1 is a credit back at the end of
//     every cycle).
//   - WaW+WaP. Every packet is one WaP packet of m flits, and each input i
//     carries the w_i = CounterMax(i, o) flows of the router's weights. The
//     victim flow's packet enters its input behind one packet of each of up
//     to w_v - 1 other flows of that input (the flows sharing an input split
//     its share), and waits at most (O-1)*m cycles from its release, where
//     O = OutputTotal[o] is the model's output share of o: every other input
//     may send up to w_i + 1 packets, released together at a cycle in
//     [0, T).
//
// H, L and m are the analysis model's default parameters, and the model
// takes c and O from the same turn rule and weight table
// (TestModelPlanesMatchOracle pins them there).
//
// A wait is counted from the first cycle the victim's head could be granted
// had its input held nothing else (the cycle after its release) to the cycle
// it is granted. The router starts from its power-on state; the schedules
// whose first release is not cycle 0 are skipped, since idle cycles leave a
// fresh router as it was. Packet shapes come from the NIC's packetizer
// (nic.PopFlit), so a change to WaP's packet size reaches the test.
//
// The size of the space sets T: on the 3x3 mesh's centre router (every port
// present, c up to 4, O up to 8) T = 3 gives about 215 000 schedules and
// T = 4 about 555 000, which run in about 0.3 s on a 2-core Xeon (9 s under
// -race). `go test -run TestHopLemmas -v ./internal/router/` prints the
// table README's "Hop lemmas" reproduces.
func TestHopLemmas(t *testing.T) {
	for _, r := range hopLemmaRows(t, 1, 4, meshHopCases) {
		if r.fail != "" {
			t.Fatal(r.fail)
		}
	}
}

// TestHopLemmasLocalQueue is step 2: the same lemmas on the centre router of
// the concentrated meshes (conc = 2 and 4 cores per router, a 3x3 router
// grid), with the victim on the Local input, which the router's cores feed
// through one shared NIC FIFO. Every packet is released at cycle 0 (T = 1;
// T = 2 gives the same worst waits in about 75 s). Both terms fail on every
// row: they count a co-located flow's share of the Local input, but the FIFO
// queues the victim behind its co-located cores' whole messages. The test
// pins the table, so a change to the router or the NIC shows here, and
// checks that the schedules TestHopLemmaLocalQueueViolations replays still
// break their terms; a term that counts the queue (ROADMAP
// cmesh-local-queue) replaces the pins.
func TestHopLemmasLocalQueue(t *testing.T) {
	worst := map[int][]int{ // per conc, in meshHopCases order
		2: {12, 24, 28, 56, 36, 8, 18, 25},
		4: {20, 40, 36, 72, 44, 20, 38, 51},
	}
	for _, conc := range []int{2, 4} {
		for i, r := range hopLemmaRows(t, conc, 1, meshHopCases) {
			if r.fail == "" || r.worst != worst[conc][i] {
				t.Errorf("conc %d, %v output %v iv %d: worst wait %d against term %d, want %d (the term broken)",
					conc, r.weighted, r.out, r.iv, r.worst, r.term, worst[conc][i])
			}
		}
	}
	for _, v := range hopViolations {
		if wait, term := v.replay(t); wait != v.wait || uint64(wait) <= term {
			t.Errorf("%s: the victim waited %d cycles against the term %d, want %d", v.name, wait, term, v.wait)
		}
	}
}

// hopViolation is one schedule of a concentrated mesh's centre router whose
// victim, the last packet of the Local input's FIFO, waits longer than the
// step-1 term at output X+ (iv = 1). Every packet is released at cycle 0;
// queues lists each input's packets by their flit counts.
type hopViolation struct {
	name     string
	conc     int
	weighted bool
	queues   map[mesh.Direction][]int
	wait     int
}

// hopViolations are the first schedules TestHopLemmasLocalQueue finds
// breaking the X+ rows.
var hopViolations = []hopViolation{
	{"cmesh2-regular", 2, false, map[mesh.Direction][]int{mesh.XPlus: {1, 4}, mesh.Local: {1, 4}}, 6},
	{"cmesh4-regular", 4, false, map[mesh.Direction][]int{mesh.XPlus: {1, 4}, mesh.Local: {1, 1, 1, 4}}, 8},
	{"cmesh2-wawwap", 2, true, map[mesh.Direction][]int{mesh.XPlus: {1, 1}, mesh.Local: {1, 1, 1}}, 4},
	{"cmesh4-wawwap", 4, true, map[mesh.Direction][]int{mesh.XPlus: {1, 1, 1, 1}, mesh.Local: {1, 1, 1, 1, 1}}, 8},
}

// TestHopLemmaLocalQueueViolations holds each of hopViolations to its
// step-1 term. It is the known defect of the concentrated meshes' bounds,
// recorded as input for the term that counts the shared NIC FIFO.
func TestHopLemmaLocalQueueViolations(t *testing.T) {
	t.Skip("known defect (ROADMAP cmesh-local-queue): a victim on a concentrated mesh's Local input waits behind its co-located cores' messages in their shared NIC FIFO, which neither per-hop term counts")
	for _, v := range hopViolations {
		if wait, term := v.replay(t); uint64(wait) > term {
			t.Errorf("%s: the victim waited %d cycles, term %d", v.name, wait, term)
		}
	}
}

// replay runs the schedule and returns the victim's wait and the term of its
// row.
func (v hopViolation) replay(t *testing.T) (wait int, term uint64) {
	t.Helper()
	topo := hopTopology(t, v.conc)
	at := mesh.Node{X: 1, Y: 1}
	p := analysis.DefaultParams(topo.RouterDim())
	scheme, payload := nic.SchemeRegular, traffic.CacheLinePayloadBits
	if v.weighted {
		scheme = nic.SchemeWaP
	}
	shapes := map[int][]flit.Type{1: packetShape(t, p, scheme, traffic.RequestPayloadBits)}
	long := packetShape(t, p, scheme, payload)
	shapes[len(long)] = long
	rig := newHopRig(t, topo, at, mesh.XPlus, v.weighted, 1)
	for in, q := range v.queues {
		for _, flits := range q {
			if shapes[flits] == nil {
				t.Fatalf("%s: no packet of %d flits", v.name, flits)
			}
			rig.queue[in] = append(rig.queue[in], hopPacket{0, shapes[flits]})
		}
	}
	rig.victim = mesh.Local
	counts := flows.WeightTableFor(topo).Counts(at)
	if v.weighted {
		term = uint64(counts.OutputTotal[mesh.XPlus]-1) * uint64(p.Link.MinPacketFlits)
	} else {
		legal, _ := topo.Ports(at)
		term = uint64(bits.OnesCount8(legal[mesh.XPlus])-1) * uint64(p.HeaderOverhead+p.Link.MaxPacketFlits)
	}
	return rig.run(), term
}

// hopCase is one row of a hop-lemma table: the design's lemma at one output
// of the router, the downstream buffer taking a flit every iv cycles.
type hopCase struct {
	weighted bool
	out      mesh.Direction
	iv       int
}

var meshHopCases = []hopCase{
	{false, mesh.XPlus, 1}, {false, mesh.XPlus, 2}, {false, mesh.YPlus, 1}, {false, mesh.YPlus, 2}, {false, mesh.Local, 1},
	{true, mesh.XPlus, 1}, {true, mesh.YPlus, 1}, {true, mesh.Local, 1},
}

// hopRow is the outcome of one hopCase: the schedules run, the worst wait
// and the lemma's term, and the first schedule whose victim waited longer
// than the term ("" when none did).
type hopRow struct {
	hopCase
	runs, worst int
	term        uint64
	fail        string
}

// hopLemmaRows runs every case on the centre router of a 3x3 router grid of
// conc endpoints per router (the mesh when conc is 1, else the concentrated
// mesh cmesh2 or cmesh4), with releases in [0, T), and logs the table README
// reproduces.
//
// With conc > 1 the Local input is fed through one NIC FIFO shared by the
// router's conc cores, so a victim on that input also waits behind whatever
// its co-located cores queued before it: each of the other conc-1 cores puts
// nothing or one message released at a cycle up to the victim's (regular: a
// request of 1 flit or a cache line of L; WaW+WaP: a message of 1 to P WaP
// packets, P those of a cache line) into the FIFO, where a message released
// in the same cycle as the victim sits ahead of it.
func hopLemmaRows(t *testing.T, conc, T int, cases []hopCase) []hopRow {
	t.Helper()
	topo := hopTopology(t, conc)
	d := topo.RouterDim()
	at := mesh.Node{X: 1, Y: 1}
	p := analysis.DefaultParams(d)
	regShort, regLong := packetShape(t, p, nic.SchemeRegular, traffic.RequestPayloadBits), packetShape(t, p, nic.SchemeRegular, traffic.CacheLinePayloadBits)
	wap := packetShape(t, p, nic.SchemeWaP, traffic.CacheLinePayloadBits)
	_, wapPackets := p.Link.WaPFlitsForPayload(traffic.CacheLinePayloadBits)
	L, slot := uint64(p.Link.MaxPacketFlits), uint64(p.Link.MinPacketFlits)
	if len(regShort) != 1 || uint64(len(regLong)) != L {
		t.Fatalf("regular packets of %d and %d flits, want 1 and L = %d", len(regShort), len(regLong), L)
	}
	counts := flows.WeightTableFor(topo).Counts(at)
	legal, _ := topo.Ports(at)

	t.Logf("%-8s %4s %-7s %-6s %2s %3s %3s %9s %5s %5s %s", "design", "conc", "router", "output", "iv", "c", "O", "schedules", "worst", "term", "holds")
	var rows []hopRow
	for _, c := range cases {
		// The inputs that can legally request the output, as the model
		// counts its contenders (Local->Local only where a router serves
		// several cores), and the flows each carries.
		var inputs []mesh.Direction
		var share uint64
		for _, in := range mesh.Directions {
			if legal[c.out]&(1<<in) != 0 && !(in == mesh.Local && c.out == mesh.Local && conc == 1) {
				inputs = append(inputs, in)
				share += uint64(counts.CounterMax(in, c.out))
			}
		}
		if share != uint64(counts.OutputTotal[c.out]) {
			t.Fatalf("output %v: the inputs' weights add up to %d, its total is %d", c.out, share, counts.OutputTotal[c.out])
		}
		contenders := uint64(len(inputs))
		rig := newHopRig(t, topo, at, c.out, c.weighted, c.iv)
		row := hopRow{hopCase: c, term: (contenders - 1) * (uint64(p.HeaderOverhead) + L*uint64(c.iv))}
		design := "regular"
		if c.weighted {
			design, row.term = "waw+wap", (share-1)*slot
		}
		for _, v := range inputs {
			if conc > 1 && v != mesh.Local {
				continue // only the Local input's queue changes with conc
			}
			// The victim input's options: the victim's packet released at r,
			// behind k-1 packets of the input's other flows (WaW) or alone,
			// or behind what the co-located cores queued (the NIC FIFO).
			var victims [][]hopPacket
			var rest [][][]hopPacket // per other input, its options
			for r := 0; r < T; r++ {
				switch {
				case v == mesh.Local && conc > 1:
					var msgs [][]hopPacket // one co-located core's options
					for q := 0; q <= r; q++ {
						if !c.weighted {
							msgs = append(msgs, []hopPacket{{q, regShort}}, []hopPacket{{q, regLong}})
							continue
						}
						for k := 1; k <= wapPackets; k++ {
							msgs = append(msgs, repeatPacket(q, wap, k))
						}
					}
					victim := hopPacket{r, regLong}
					if c.weighted {
						victim.shape = wap
					}
					victims = append(victims, fifoQueues(msgs, conc-1, victim)...)
				case !c.weighted:
					victims = append(victims, []hopPacket{{r, regLong}})
				default:
					for k := 1; k <= counts.CounterMax(v, c.out); k++ {
						victims = append(victims, repeatPacket(r, wap, k))
					}
				}
			}
			var others []mesh.Direction
			for _, in := range inputs {
				if in == v {
					continue
				}
				others = append(others, in)
				opts := [][]hopPacket{nil}
				for r := 0; r < T; r++ {
					if !c.weighted {
						for _, a := range [][]flit.Type{regShort, regLong} {
							opts = append(opts, []hopPacket{{r, a}})
							for _, b := range [][]flit.Type{regShort, regLong} {
								opts = append(opts, []hopPacket{{r, a}, {r, b}})
							}
						}
						continue
					}
					for k := 1; k <= counts.CounterMax(in, c.out)+1; k++ {
						opts = append(opts, repeatPacket(r, wap, k))
					}
				}
				rest = append(rest, opts)
			}
			// Every combination: a mixed-radix count over the inputs' options.
			pick := make([]int, len(others))
			for _, vic := range victims {
				for {
					first := vic[0].release
					for j, in := range others {
						rig.queue[in] = rest[j][pick[j]]
						if len(rig.queue[in]) > 0 {
							first = min(first, rig.queue[in][0].release)
						}
					}
					rig.queue[v], rig.victim = vic, v
					if first == 0 {
						row.runs++
						wait := rig.run()
						if (wait < 0 || uint64(wait) > row.term) && row.fail == "" {
							row.fail = fmt.Sprintf("%s conc %d output %v iv %d: the victim on input %v waited %d cycles (term %d) in schedule %v",
								design, conc, c.out, c.iv, v, wait, row.term, rig.describe())
						}
						row.worst = max(row.worst, wait)
					}
					j := 0
					for ; j < len(pick); j++ {
						if pick[j]++; pick[j] < len(rest[j]) {
							break
						}
						pick[j] = 0
					}
					if j == len(pick) {
						break
					}
				}
			}
			rig.queue[v] = nil
		}
		holds := "yes, tight"
		switch {
		case row.fail != "":
			holds = "no"
		case uint64(row.worst) < row.term:
			holds = "yes"
		}
		t.Logf("%-8s %4d %-7v %-6v %2d %3d %3d %9d %5d %5d %s", design, conc, at, c.out, c.iv, contenders, share, row.runs, row.worst, row.term, holds)
		rows = append(rows, row)
	}
	return rows
}

// hopTopology is the topology of a 3x3 router grid with conc endpoints per
// router: the mesh when conc is 1, else the concentrated mesh cmesh2 or
// cmesh4.
func hopTopology(t *testing.T, conc int) mesh.Topology {
	t.Helper()
	spec := mesh.TopoSpec{Kind: mesh.TopoMesh}
	if conc > 1 {
		spec = mesh.TopoSpec{Kind: mesh.TopoCMesh, Conc: conc}
	}
	ep := map[int]mesh.Dim{1: mesh.MustDim(3, 3), 2: mesh.MustDim(6, 3), 4: mesh.MustDim(6, 6)}[conc]
	topo, err := spec.Build(ep)
	if err != nil {
		t.Fatal(err)
	}
	if topo.RouterDim() != mesh.MustDim(3, 3) || topo.LocalEndpoints() != conc {
		t.Fatalf("%v: a %v router grid of %d endpoints each, want 3x3 of %d", spec, topo.RouterDim(), topo.LocalEndpoints(), conc)
	}
	return topo
}

// fifoQueues returns the NIC FIFO's contents ahead of and including victim
// for every way n co-located cores may each queue nothing or one of msgs:
// the messages in release order, ties ahead of the victim. The cores are
// interchangeable, so each multiset of choices is taken once.
func fifoQueues(msgs [][]hopPacket, n int, victim hopPacket) [][]hopPacket {
	var out [][]hopPacket
	var walk func(from, left int, picked [][]hopPacket)
	walk = func(from, left int, picked [][]hopPacket) {
		if left > 0 {
			for i := from; i < len(msgs); i++ {
				walk(i, left-1, append(picked, msgs[i]))
			}
		}
		var q []hopPacket
		for _, m := range picked {
			q = append(q, m...)
		}
		sort.SliceStable(q, func(i, j int) bool { return q[i].release < q[j].release })
		out = append(out, append(q, victim))
	}
	walk(0, n, nil)
	return out
}

// packetShape returns the flit types of the first packet the NIC's
// packetizer cuts from a message of payload bits under scheme.
func packetShape(t *testing.T, p analysis.Params, scheme nic.Scheme, payload int) []flit.Type {
	t.Helper()
	topo := mesh.Plain(p.Dim)
	src, err := nic.New(topo, mesh.Node{}, scheme, p.Link, &flit.Pool{})
	if err != nil {
		t.Fatal(err)
	}
	msg := &flit.Message{Flow: flit.FlowID{Src: mesh.Node{}, Dst: mesh.Node{X: 1}}, PayloadBits: payload}
	if _, err := src.Send(msg, 0); err != nil {
		t.Fatal(err)
	}
	var shape []flit.Type
	for {
		w, ok := src.PopFlit(0)
		if !ok {
			t.Fatal("the NIC ran out of flits before a tail")
		}
		if shape = append(shape, w.Type()); w.Type().IsTail() {
			return shape
		}
	}
}

// hopPacket is one packet of a schedule: its flit types, offered on its
// input's link from cycle release on.
type hopPacket struct {
	release int
	shape   []flit.Type
}

func repeatPacket(release int, shape []flit.Type, k int) []hopPacket {
	ps := make([]hopPacket, k)
	for i := range ps {
		ps[i] = hopPacket{release, shape}
	}
	return ps
}

// hopRig drives one router through a schedule: each input's link offers its
// packets in order, one flit a cycle while the input buffer has room, and
// the last packet of input victim is the victim.
type hopRig struct {
	r      *router.Router
	out    mesh.Direction
	dst    mesh.Node // a router the output leads towards
	iv     int
	victim mesh.Direction
	queue  [mesh.NumDirections][]hopPacket
}

func newHopRig(t *testing.T, topo mesh.Topology, at mesh.Node, out mesh.Direction, weighted bool, iv int) *hopRig {
	t.Helper()
	d := topo.RouterDim()
	var counts *flows.PortCounts
	if weighted {
		counts = flows.WeightTableFor(topo).Counts(at)
	}
	depth := network.DefaultConfig(d, network.DesignRegular).BufferDepth
	downstream := depth
	if iv > 1 {
		downstream = 1 // one flit in flight: the next waits for its credit
	}
	r, err := router.New(topo, at, depth, counts, downstream)
	if err != nil {
		t.Fatal(err)
	}
	dst, _ := d.Neighbor(at, out)
	if out == mesh.Local {
		dst = at
	}
	return &hopRig{r: r, out: out, dst: dst, iv: iv}
}

// hopLimit ends a run whose victim is never granted.
const hopLimit = 500

// run plays the schedule from the router's power-on state and returns the
// victim's wait, or -1 when it is not granted within hopLimit cycles.
func (g *hopRig) run() int {
	r := g.r
	r.Reset()
	vq := g.queue[g.victim]
	victimAt := vq[len(vq)-1].release + 1
	victim := flit.NewWord(vq[len(vq)-1].shape[0], g.dst, 1) // record 1 is the victim's
	var pkt, fl [mesh.NumDirections]int
	creditDue := -1
	rec := uint32(2)
	for cycle := 0; cycle < hopLimit; cycle++ {
		for _, tr := range r.ComputeTransfers() {
			if w := r.ApplyTransfer(tr); w == victim {
				return cycle - victimAt
			}
			if tr.Out != mesh.Local {
				creditDue = cycle + g.iv - 1
			}
		}
		for in, q := range g.queue {
			dir := mesh.Direction(in)
			if pkt[in] == len(q) || q[pkt[in]].release > cycle || r.InputSpace(dir) == 0 {
				continue
			}
			id := rec
			if dir == g.victim && pkt[in] == len(q)-1 {
				id = 1
			}
			if err := r.StageArrival(dir, flit.NewWord(q[pkt[in]].shape[fl[in]], g.dst, id)); err != nil {
				panic(err)
			}
			if fl[in]++; fl[in] == len(q[pkt[in]].shape) {
				pkt[in], fl[in], rec = pkt[in]+1, 0, rec+1
			}
		}
		if creditDue == cycle {
			r.ReturnCredit(g.out)
			creditDue = -1
		}
		r.CommitArrivals()
	}
	return -1
}

func (g *hopRig) describe() string {
	s := ""
	for in, q := range g.queue {
		for _, pk := range q {
			s += fmt.Sprintf(" %v:%d@%d", mesh.Direction(in), len(pk.shape), pk.release)
		}
	}
	return s
}
