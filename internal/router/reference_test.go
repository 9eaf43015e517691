package router

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arbiter"
	"repro/internal/flit"
	"repro/internal/flows"
	"repro/internal/mesh"
)

// refRouter is the oracle the production router is pinned to: the same
// wormhole router written the obvious way — one growing slice of flit words
// per input FIFO and per staging area, every waiting head flit re-routed
// every cycle, one []bool request array per output handed to the arbiter's
// Grant. Nothing outside the tests uses it. (The arbiters themselves are
// pinned to their own oracle in the arbiter package.)
type refRouter struct {
	node       mesh.Node
	depth      int
	downstream int
	inputs     [mesh.NumDirections][]flit.Word
	staged     [mesh.NumDirections][]flit.Word
	out        [mesh.NumDirections]refPort
}

type refPort struct {
	exists   bool
	arb      refArbiter
	locked   bool
	lockedTo mesh.Direction
	credits  int
}

// refArbiter is what the reference router asks of an output's arbiter.
type refArbiter interface{ Grant(requests []bool) int }

func newRefRouter(d mesh.Dim, n mesh.Node, depth int, counts *flows.PortCounts, downstream int) *refRouter {
	r := &refRouter{node: n, depth: depth, downstream: downstream}
	for _, dir := range mesh.Directions {
		op := &r.out[dir]
		if op.exists = mesh.Plain(d).HasOutput(n, dir); !op.exists {
			continue
		}
		op.credits = downstream
		if counts == nil {
			op.arb = arbiter.NewRoundRobin(mesh.NumDirections)
			continue
		}
		weights := make([]int, mesh.NumDirections)
		for _, in := range mesh.Directions {
			weights[in] = counts.CounterMax(in, dir)
		}
		op.arb = arbiter.NewWeighted(weights)
	}
	return r
}

func (r *refRouter) stage(dir mesh.Direction, f flit.Word) error {
	if len(r.inputs[dir])+len(r.staged[dir]) >= r.depth {
		return fmt.Errorf("reference: cannot stage on %v", dir)
	}
	r.staged[dir] = append(r.staged[dir], f)
	return nil
}

func (r *refRouter) commit() {
	for i := range r.staged {
		r.inputs[i] = append(r.inputs[i], r.staged[i]...)
		r.staged[i] = nil
	}
}

func (r *refRouter) front(dir mesh.Direction) (flit.Word, bool) {
	if len(r.inputs[dir]) == 0 {
		return 0, false
	}
	return r.inputs[dir][0], true
}

func (r *refRouter) computeTransfers() []Transfer {
	var transfers []Transfer
	var inputBusy [mesh.NumDirections]bool
	for _, outDir := range mesh.Directions {
		op := &r.out[outDir]
		if !op.exists || (outDir != mesh.Local && op.credits <= 0) {
			continue
		}
		if op.locked {
			in := op.lockedTo
			f, ok := r.front(in)
			if inputBusy[in] || !ok || f.Type().IsHead() {
				continue
			}
			transfers = append(transfers, Transfer{Out: outDir, In: in, Flit: f})
			inputBusy[in] = true
			if f.Type().IsTail() {
				op.locked = false
			}
			continue
		}
		requests := make([]bool, mesh.NumDirections)
		for _, inDir := range mesh.Directions {
			f, ok := r.front(inDir)
			requests[inDir] = ok && f.Type().IsHead() && !inputBusy[inDir] &&
				mesh.XYOutputPort(r.node, f.Dst()) == outDir && mesh.LegalTurn(inDir, outDir)
		}
		winner := op.arb.Grant(requests)
		if winner < 0 {
			continue
		}
		in := mesh.Direction(winner)
		f, _ := r.front(in)
		transfers = append(transfers, Transfer{Out: outDir, In: in, Flit: f})
		inputBusy[in] = true
		if !f.Type().IsTail() {
			op.locked, op.lockedTo = true, in
		}
	}
	return transfers
}

func (r *refRouter) apply(t Transfer) {
	r.inputs[t.In] = r.inputs[t.In][1:]
	if t.Out != mesh.Local {
		r.out[t.Out].credits--
	}
}

func (r *refRouter) inputsEmpty() bool {
	for i := range r.inputs {
		if len(r.inputs[i])+len(r.staged[i]) > 0 {
			return false
		}
	}
	return true
}

func (r *refRouter) quiescent() bool {
	if !r.inputsEmpty() {
		return false
	}
	for _, op := range r.out {
		if w, ok := op.arb.(*arbiter.Weighted); ok && !op.locked && !w.IdleStable() {
			return false
		}
	}
	return true
}

// checkSummaries recomputes what the router caches — each front byte, the
// request masks and the four port summaries — from the per-input and
// per-port state, and reports the first cache that differs.
func checkSummaries(r *Router) error {
	var want [mesh.NumDirections]uint8
	var credOK, lockMask, wantAny, owing uint8
	for in := range r.front {
		if r.occupied&(1<<uint(in)) == 0 {
			continue
		}
		s := r.info[in*r.depth+int(r.head[in])]
		if r.front[in] != s {
			return fmt.Errorf("input %v front byte %#x, slot holds %#x", mesh.Direction(in), r.front[in], s)
		}
		if s&slotRequest != 0 {
			want[s>>slotOutShift] |= 1 << uint(in)
		}
	}
	for out := range r.out {
		op, bit := &r.out[out], uint8(1)<<uint(out)
		if op.credits > 0 {
			credOK |= bit
		}
		if op.locked {
			lockMask |= bit
		}
		if want[out] != 0 {
			wantAny |= bit
		}
		if op.exists && r.weighted && !r.waw[out].IdleStable() {
			owing |= bit
		}
	}
	switch {
	case want != r.wantMask:
		return fmt.Errorf("request masks %v, recomputed %v", r.wantMask, want)
	case credOK != r.credOK:
		return fmt.Errorf("credOK %05b, recomputed %05b", r.credOK, credOK)
	case lockMask != r.lockMask:
		return fmt.Errorf("lockMask %05b, recomputed %05b", r.lockMask, lockMask)
	case wantAny != r.wantAny:
		return fmt.Errorf("wantAny %05b, recomputed %05b", r.wantAny, wantAny)
	case owing != r.owing:
		return fmt.Errorf("owing %05b, recomputed %05b", r.owing, owing)
	}
	return nil
}

// script feeds the lockstep driver its decisions one byte at a time; the
// run ends when it is exhausted.
type script struct {
	data []byte
	pos  int
}

func (s *script) next() byte {
	if s.pos >= len(s.data) {
		return 0
	}
	s.pos++
	return s.data[s.pos-1]
}

func (s *script) done() bool { return s.pos >= len(s.data) }

var (
	refDepths      = []int{1, 3, 4, 8}
	refDownstreams = []int{0, 2, 6} // 0: the router's own depth
	refNodes       = []mesh.Node{{X: 2, Y: 2}, {X: 0, Y: 0}, {X: 4, Y: 2}, {X: 1, Y: 4}}
)

// runAgainstReference drives one production router and the oracle through
// the same scripted cycles — arrivals of 1–4-flit packets (several stagings
// per port per cycle, attempted even when the buffer is full; now and then a
// misrouted or tail-less packet), credit returns, bulk idle replays and
// resets — and compares every transfer and the whole observable state after
// every cycle. A bit of each cycle's control byte picks how the production
// router moves its flits: the one-walk Forward, staging into neighbour
// routers that the driver checks and drains, or ComputeTransfers and then
// ApplyTransfer per transfer. After every cycle the router's cached masks
// must equal their recomputation from its per-port state (checkSummaries).
func runAgainstReference(t *testing.T, weighted bool, depthSel, downSel, nodeSel uint8, data []byte) {
	t.Helper()
	d := mesh.MustDim(5, 5)
	node := refNodes[int(nodeSel)%len(refNodes)]
	depth := refDepths[int(depthSel)%len(refDepths)]
	downstream := refDownstreams[int(downSel)%len(refDownstreams)]
	if downstream == 0 {
		downstream = depth
	}
	var counts *flows.PortCounts // nil: a round-robin router
	if weighted {
		counts = flows.ClosedFormCounts(d, node)
	}
	prod, err := New(mesh.Plain(d), node, depth, counts, downstream)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefRouter(d, node, depth, counts, downstream)
	var down [mesh.NumDirections]*Router // Forward's staging targets
	for _, dir := range mesh.Directions[:mesh.Local] {
		if nb, ok := d.Neighbor(node, dir); ok {
			if down[dir], err = New(mesh.Plain(d), nb, downstream, nil, 0); err != nil {
				t.Fatal(err)
			}
		}
	}

	// legal[in] lists the destinations a flit arriving on input in may
	// legally be heading for under XY routing.
	var legal [mesh.NumDirections][]mesh.Node
	for _, in := range mesh.Directions {
		for _, dst := range d.AllNodes() {
			if mesh.LegalTurn(in, mesh.XYOutputPort(node, dst)) {
				legal[in] = append(legal[in], dst)
			}
		}
	}

	s := &script{data: data}
	var upstream [mesh.NumDirections][]flit.Word // rest of the packet each link is sending
	stage := func(cycle int) {
		for _, in := range mesh.Directions {
			b := s.next()
			for k := int(b & 3); k > 0; k-- {
				if len(upstream[in]) == 0 {
					sel := s.next()
					dst := legal[in][int(sel)%len(legal[in])]
					if sel >= 0xF8 { // rarely: anywhere, illegal turns included
						dst = d.NodeAt(int(s.next()) % d.Nodes())
					}
					upstream[in] = makePacket(dst, 1+int(b>>2&3))
					if sel&0xF8 == 0xF0 && len(upstream[in]) > 1 {
						// Rarely: a packet that loses its tail, so a second
						// output can lock onto the same input behind it.
						upstream[in] = upstream[in][:len(upstream[in])-1]
					}
				}
				f := upstream[in][0]
				errProd, errRef := prod.StageArrival(in, f), ref.stage(in, f)
				if (errProd == nil) != (errRef == nil) {
					t.Fatalf("cycle %d: staging on %v: router says %v, reference says %v", cycle, in, errProd, errRef)
				}
				if errProd == nil {
					upstream[in] = upstream[in][1:]
				}
			}
		}
	}
	for cycle := 0; !s.done(); cycle++ {
		ctl := s.next()
		switch {
		case ctl == 0xFF:
			prod.Reset()
			ref = newRefRouter(d, node, depth, counts, downstream)
			upstream = [mesh.NumDirections][]flit.Word{}
		case ctl&0xF0 == 0xF0 && prod.InputsEmpty() && ref.inputsEmpty():
			// The bulk idle replay against that many request-less cycles.
			k := 1 + int(s.next()%40)
			prod.CatchUpIdle(uint64(k))
			for i := 0; i < k; i++ {
				if tr := ref.computeTransfers(); len(tr) != 0 {
					t.Fatalf("cycle %d: idle reference router forwarded %+v", cycle, tr)
				}
			}
		}
		if ctl&1 != 0 {
			stage(cycle)
		}
		forward := ctl&2 != 0
		var got []Transfer
		if forward {
			got = prod.Forward(&down)
		} else {
			got = prod.ComputeTransfers()
		}
		want := ref.computeTransfers()
		if len(got) != len(want) {
			t.Fatalf("cycle %d (forward %v): transfers %+v, reference %+v", cycle, forward, got, want)
		}
		for i, tr := range want {
			if got[i] != tr {
				t.Fatalf("cycle %d (forward %v): transfer %d is %+v, reference %+v", cycle, forward, i, got[i], tr)
			}
			switch {
			case !forward:
				if f := prod.ApplyTransfer(got[i]); f != tr.Flit {
					t.Fatalf("cycle %d: applied flit %v, reference %v", cycle, f, tr.Flit)
				}
			case tr.Out != mesh.Local:
				// Forward staged the flit into the neighbour: it must be the
				// only flit there, on the input named after the output.
				nb := down[tr.Out]
				nb.CommitArrivals()
				if f := nb.PopInput(tr.Out); f != tr.Flit || !nb.InputsEmpty() {
					t.Fatalf("cycle %d: output %v staged %v downstream, reference %v", cycle, tr.Out, f, tr.Flit)
				}
			}
			ref.apply(tr)
		}
		if ctl&1 == 0 {
			stage(cycle)
		}
		returns := s.next()
		for _, out := range mesh.Directions[:mesh.Local] {
			if returns&(1<<uint(out)) != 0 && ref.out[out].exists && ref.out[out].credits < downstream {
				prod.ReturnCredit(out)
				ref.out[out].credits++
			}
		}
		prod.CommitArrivals()
		ref.commit()

		for _, dir := range mesh.Directions {
			if got, want := prod.InputOccupancy(dir), len(ref.inputs[dir]); got != want {
				t.Fatalf("cycle %d: input %v occupancy %d, reference %d", cycle, dir, got, want)
			}
			if got, want := prod.InputSpace(dir), depth-len(ref.inputs[dir]); got != want {
				t.Fatalf("cycle %d: input %v space %d, reference %d", cycle, dir, got, want)
			}
			op := ref.out[dir]
			if prod.out[dir].exists != op.exists {
				t.Fatalf("cycle %d: output %v existence differs", cycle, dir)
			}
			if !op.exists {
				continue
			}
			if in, locked := prod.OutputLocked(dir); locked != op.locked || (locked && in != op.lockedTo) {
				t.Fatalf("cycle %d: output %v lock (%v,%v), reference (%v,%v)", cycle, dir, in, locked, op.lockedTo, op.locked)
			}
			if dir != mesh.Local && prod.Credits(dir) != op.credits {
				t.Fatalf("cycle %d: output %v credits %d, reference %d", cycle, dir, prod.Credits(dir), op.credits)
			}
			if w, ok := op.arb.(*arbiter.Weighted); ok && *prod.Arbiter(dir) != *w {
				t.Fatalf("cycle %d: output %v WaW arbiter %+v, reference %+v", cycle, dir, *prod.Arbiter(dir), *w)
			}
		}
		if err := checkSummaries(prod); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if prod.InputsEmpty() != ref.inputsEmpty() || prod.Quiescent() != ref.quiescent() {
			t.Fatalf("cycle %d: InputsEmpty/Quiescent %v/%v, reference %v/%v",
				cycle, prod.InputsEmpty(), prod.Quiescent(), ref.inputsEmpty(), ref.quiescent())
		}
	}
}

// TestRouterMatchesReference runs long seeded scripts over every buffer
// depth (ring wrap-around at the non-power-of-two depth 3 included), every
// downstream depth, interior, corner and edge routers, both arbiters.
func TestRouterMatchesReference(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		for depthSel := range refDepths {
			for downSel := range refDownstreams {
				for nodeSel := range refNodes {
					rng := rand.New(rand.NewSource(int64(1 + depthSel + 10*downSel + 100*nodeSel)))
					data := make([]byte, 6000)
					rng.Read(data)
					runAgainstReference(t, weighted, uint8(depthSel), uint8(downSel), uint8(nodeSel), data)
				}
			}
		}
	}
}

// FuzzRouterMatchesReference lets the fuzzer write the script; a round-robin
// and a WaW router run it against the oracle.
func FuzzRouterMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, depthSel, downSel, nodeSel uint8, data []byte) {
		runAgainstReference(t, false, depthSel, downSel, nodeSel, data)
		runAgainstReference(t, true, depthSel, downSel, nodeSel, data)
	})
}
