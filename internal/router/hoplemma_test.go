package router_test

import (
	"fmt"
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
	const T = 4
	d := mesh.MustDim(3, 3)
	at := mesh.Node{X: 1, Y: 1}
	p := analysis.DefaultParams(d)
	regShort, regLong := packetShape(t, p, nic.SchemeRegular, traffic.RequestPayloadBits), packetShape(t, p, nic.SchemeRegular, traffic.CacheLinePayloadBits)
	wap := packetShape(t, p, nic.SchemeWaP, traffic.CacheLinePayloadBits)
	L, slot := uint64(p.Link.MaxPacketFlits), uint64(p.Link.MinPacketFlits)
	if len(regShort) != 1 || uint64(len(regLong)) != L {
		t.Fatalf("regular packets of %d and %d flits, want 1 and L = %d", len(regShort), len(regLong), L)
	}
	counts := flows.ClosedFormCounts(d, at)

	t.Logf("%-8s %-7s %-6s %2s %3s %3s %9s %5s %5s %s", "design", "router", "output", "iv", "c", "O", "schedules", "worst", "term", "tight")
	for _, c := range []struct {
		weighted bool
		out      mesh.Direction
		iv       int
	}{
		{false, mesh.XPlus, 1}, {false, mesh.XPlus, 2}, {false, mesh.YPlus, 1}, {false, mesh.YPlus, 2}, {false, mesh.Local, 1},
		{true, mesh.XPlus, 1}, {true, mesh.YPlus, 1}, {true, mesh.Local, 1},
	} {
		// The inputs that can legally request the output, as the model
		// counts its contenders, and the flows each carries.
		var inputs []mesh.Direction
		var share uint64
		for _, in := range mesh.Directions {
			if _, ok := d.Neighbor(at, in.Opposite()); (ok || in == mesh.Local) && mesh.LegalTurn(in, c.out) && !(in == mesh.Local && c.out == mesh.Local) {
				inputs = append(inputs, in)
				share += uint64(counts.CounterMax(in, c.out))
			}
		}
		if share != uint64(counts.OutputTotal[c.out]) {
			t.Fatalf("output %v: the inputs' weights add up to %d, its total is %d", c.out, share, counts.OutputTotal[c.out])
		}
		contenders := uint64(len(inputs))
		rig := newHopRig(t, d, at, c.out, c.weighted, c.iv)
		design, term := "regular", (contenders-1)*(uint64(p.HeaderOverhead)+L*uint64(c.iv))
		if c.weighted {
			design, term = "waw+wap", (share-1)*slot
		}
		worst, runs := 0, 0
		for _, v := range inputs {
			// The victim input's options: the victim's packet released at r,
			// behind k-1 packets of the input's other flows (WaW) or alone.
			var victims [][]hopPacket
			var rest [][][]hopPacket // per other input, its options
			for r := 0; r < T; r++ {
				if !c.weighted {
					victims = append(victims, []hopPacket{{r, regLong}})
					continue
				}
				for k := 1; k <= counts.CounterMax(v, c.out); k++ {
					victims = append(victims, repeatPacket(r, wap, k))
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
						runs++
						wait := rig.run()
						if wait < 0 || uint64(wait) > term {
							t.Fatalf("%s output %v iv %d: the victim on input %v waited %d cycles (term %d) in schedule %v",
								design, c.out, c.iv, v, wait, term, rig.describe())
						}
						worst = max(worst, wait)
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
		tight := "no"
		if uint64(worst) == term {
			tight = "yes"
		}
		t.Logf("%-8s %-7v %-6v %2d %3d %3d %9d %5d %5d %s", design, at, c.out, c.iv, contenders, share, runs, worst, term, tight)
	}
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

func newHopRig(t *testing.T, d mesh.Dim, at mesh.Node, out mesh.Direction, weighted bool, iv int) *hopRig {
	t.Helper()
	var counts *flows.PortCounts
	if weighted {
		counts = flows.ClosedFormCounts(d, at)
	}
	depth := network.DefaultConfig(d, network.DesignRegular).BufferDepth
	downstream := depth
	if iv > 1 {
		downstream = 1 // one flit in flight: the next waits for its credit
	}
	r, err := router.New(mesh.Plain(d), at, depth, counts, downstream)
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
