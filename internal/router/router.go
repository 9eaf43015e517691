// Package router implements the cycle-level model of a wormhole mesh router:
// five input-buffered ports (X+, X-, Y+, Y-, PME/local), XY route computation
// on head flits, per-output-port arbitration (plain round-robin for the
// regular wNoC, WaW weighted round-robin for a router built with port counts),
// wormhole output-port locking and credit-based link-level flow control.
//
// Once per cycle Forward walks the output ports that can act, decides each
// one's flit and moves it at once: popped, charged a credit and staged into
// the downstream router; it returns the moves, whose credits and wake-ups
// the network books. The network also calls StageArrival (injection),
// ReturnCredit and CommitArrivals, and owns the rule that a flit forwarded in
// cycle T is visible downstream in T+1. ComputeTransfers, then ApplyTransfer
// per transfer, is the same decision and pop in two phases.
// The Router type documents the data layout — ring FIFOs of flit words, a
// head-of-line byte per buffered flit, per-output request masks and four
// one-byte port summaries — that keeps the decision inside the struct.
package router

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/arbiter"
	"repro/internal/flit"
	"repro/internal/flows"
	"repro/internal/mesh"
)

// Transfer describes one flit movement decided by an output port in the
// current cycle: the flit at the head of input port In is forwarded through
// output port Out.
type Transfer struct {
	Out  mesh.Direction
	In   mesh.Direction
	Flit flit.Word
}

// The head-of-line byte: everything the per-cycle decision needs to know
// about a buffered flit, computed once from its word when the flit is
// staged.
const (
	slotHead     uint8 = 1 << iota // carries routing information (HEAD, HEAD+TAIL)
	slotTail                       // forwarding it releases the wormhole lock
	slotRequest                    // a head whose routed output is a legal turn from its input
	slotOutShift = 3               // bits 3..5 of a head's byte: the routed output port
)

// MaxBufferDepth is the deepest input FIFO the ring counters (one byte each)
// can describe.
const MaxBufferDepth = math.MaxUint8

// outputPort holds the per-output state: the wormhole reservation, the
// credit counter towards the downstream buffer and the round-robin arbiter
// (the WaW arbiters of a weighted router live in Router.waw), summarised in
// Router.credOK and Router.lockMask.
type outputPort struct {
	// credits is the free slots the router believes the downstream buffer
	// has; a port forwards only while it is positive. A port that does not
	// exist holds zero, the never back-pressured ejection port a constant one.
	credits  int
	exists   bool
	locked   bool
	lockedTo uint8 // input port holding the reservation while locked
	rr       arbiter.RoundRobin

	// forwarded counts the flits sent through this output (statistics).
	forwarded uint64
}

// Router is the cycle-level wormhole router model.
//
// # Data layout
//
// Each input FIFO is a ring of BufferDepth slots carved out of one slots
// array of flit words (8 bytes each) allocated at construction: head is the
// front position, count the committed flits behind it and staged the
// arrivals of the current cycle behind those, so committing arrivals is a
// counter bump. A parallel info array holds one head-of-line byte per slot
// (see slotHead).
//
// The per-cycle decision reads only the Router struct: front caches the
// head-of-line byte of every non-empty FIFO, and wantMask[out] is the set of
// inputs whose front flit requests output out; both change only when a FIFO
// front changes. Four port summaries, one bit per output, are kept equal to
// the per-port state where it changes: credOK (a credit), lockMask (locked),
// wantAny (a non-empty wantMask) and owing (a WaW arbiter that is not
// idle-stable). A cycle visits only credOK & (lockMask | wantAny), in
// ascending order, each free output handing its arbiter wantMask[out] minus
// the inputs already granted; then the owing outputs that had a credit, were
// unlocked and granted nothing get their request-less grant in one pass. The
// arbiters are independent of each other, so this is the state a
// port-by-port walk reaches.
type Router struct {
	Node mesh.Node

	// weighted selects the WaW arbiters in waw over the ports' round-robin ones.
	weighted bool

	// downstreamDepth is the credit budget of each non-local output port (the
	// neighbours' input-buffer depth); Reset restores the counters to it.
	downstreamDepth int

	// occupied and stagedMask are per-direction occupancy bitmasks (bit i =
	// input i holds committed / staged flits).
	occupied   uint8
	stagedMask uint8

	// The port summaries (see Data layout), each updated where its state
	// changes.
	credOK   uint8 // ConsumeCredit, ReturnCredit, New, Reset
	lockMask uint8 // the walk
	wantAny  uint8 // exposeFront, PopInput
	owing    uint8 // set after a contended grant, cleared by a saturating replenish

	depth    int // input-buffer depth, the ring size
	head     [mesh.NumDirections]uint8
	count    [mesh.NumDirections]uint8
	staged   [mesh.NumDirections]uint8
	front    [mesh.NumDirections]uint8 // info byte of the front flit; valid while occupied
	wantMask [mesh.NumDirections]uint8
	out      [mesh.NumDirections]outputPort
	waw      [mesh.NumDirections]arbiter.Weighted

	slots []flit.Word // input i owns slots[i*depth : (i+1)*depth]
	info  []uint8     // head-of-line byte of the flit in the same slot

	// transferScratch backs the slices Forward and ComputeTransfers return.
	transferScratch [mesh.NumDirections]Transfer
}

// New builds a router with depth-flit input FIFOs at router-grid node n of
// topology t: port existence comes from the topology's port table, and each
// head flit is routed XY towards the destination router its word names. A
// router given counts (typically its entry of flows.WeightTableFor(t))
// arbitrates with WaW, taking its per-port weights from them; with nil
// counts it arbitrates round-robin. The downstream credit counters are
// initialised to downstreamDepth, the input-buffer depth of the neighbouring
// routers (depth itself when below one).
func New(t mesh.Topology, n mesh.Node, depth int, counts *flows.PortCounts, downstreamDepth int) (*Router, error) {
	if depth < 1 || depth > MaxBufferDepth {
		return nil, fmt.Errorf("router: buffer depth must be in 1..%d, got %d", MaxBufferDepth, depth)
	}
	d := t.RouterDim()
	if !d.Contains(n) {
		return nil, fmt.Errorf("router: node %v outside %v mesh", n, d)
	}
	if downstreamDepth < 1 {
		downstreamDepth = depth
	}
	weighted := counts != nil
	r := &Router{Node: n, downstreamDepth: downstreamDepth,
		weighted: weighted,
		depth:    depth,
		slots:    make([]flit.Word, mesh.NumDirections*depth),
		info:     make([]uint8, mesh.NumDirections*depth),
	}
	for _, dir := range mesh.Directions {
		if !t.HasOutput(n, dir) {
			continue
		}
		op := &r.out[dir]
		op.exists = true
		r.credOK |= 1 << uint(dir)
		if weighted {
			var weights [mesh.NumDirections]int
			for _, in := range mesh.Directions {
				weights[in] = counts.CounterMax(in, dir)
			}
			r.waw[dir] = *arbiter.NewWeighted(weights[:])
		} else {
			op.rr = *arbiter.NewRoundRobin(mesh.NumDirections)
		}
		op.credits = r.downstreamDepth
		if dir == mesh.Local {
			op.credits = 1
		}
	}
	return r, nil
}

// Credits returns the credit count of the output port, the free slots the
// router believes the downstream buffer has (the router's own depth for the
// never back-pressured ejection port).
func (r *Router) Credits(dir mesh.Direction) int {
	if dir == mesh.Local {
		return r.depth
	}
	return r.out[dir].credits
}

// OutputLocked reports whether the output port is currently reserved by an
// in-flight packet, and if so by which input port.
func (r *Router) OutputLocked(dir mesh.Direction) (mesh.Direction, bool) {
	op := &r.out[dir]
	return mesh.Direction(op.lockedTo), op.locked
}

// Forwarded returns the number of flits forwarded through the output port
// since construction.
func (r *Router) Forwarded(dir mesh.Direction) uint64 { return r.out[dir].forwarded }

// InputOccupancy returns the number of committed flits waiting in the input
// FIFO of port dir (staged arrivals of the current cycle are not counted).
func (r *Router) InputOccupancy(dir mesh.Direction) int { return int(r.count[dir]) }

// InputSpace returns the number of free slots of the input FIFO of port dir,
// accounting for arrivals already staged this cycle.
func (r *Router) InputSpace(dir mesh.Direction) int {
	return r.depth - int(r.count[dir]) - int(r.staged[dir])
}

// StageArrival places a flit arriving on input port dir into the staging
// area; it becomes visible in the FIFO after CommitArrivals. It returns an
// error when the buffer (committed plus staged) is full — with correct
// credit-based flow control this never happens.
func (r *Router) StageArrival(dir mesh.Direction, w flit.Word) error {
	used := int(r.count[dir]) + int(r.staged[dir])
	if used >= r.depth {
		return fmt.Errorf("router %v: input buffer %v overflow (flow-control violation)", r.Node, dir)
	}
	pos := int(r.head[dir]) + used
	if pos >= r.depth {
		pos -= r.depth
	}
	slot := int(dir)*r.depth + pos
	r.slots[slot] = w
	// The head-of-line byte: a head records the XY routing decision towards
	// its destination router and whether it is a legal turn; body and tail
	// flits follow the wormhole reservation of their packet.
	var s uint8
	typ := w.Type()
	if typ.IsTail() {
		s = slotTail
	}
	if typ.IsHead() {
		out := mesh.XYOutputPort(r.Node, w.Dst())
		s |= slotHead | uint8(out)<<slotOutShift | turnRequest[dir][out]
	}
	r.info[slot] = s
	r.staged[dir]++
	r.stagedMask |= 1 << uint(dir)
	return nil
}

// turnRequest is mesh.LegalTurn as a table of head-of-line bits: slotRequest
// where a head arriving on input in may leave through output out, else 0.
var turnRequest = func() (t [mesh.NumDirections][mesh.NumDirections]uint8) {
	for _, in := range mesh.Directions {
		for _, out := range mesh.Directions {
			if mesh.LegalTurn(in, out) {
				t[in][out] = slotRequest
			}
		}
	}
	return t
}()

// CommitArrivals moves the flits staged during the current cycle into the
// input FIFOs; the network calls it once per cycle, after every move.
func (r *Router) CommitArrivals() {
	for m := r.stagedMask; m != 0; m &= m - 1 {
		in := bits.TrailingZeros8(m)
		wasEmpty := r.count[in] == 0
		r.count[in] += r.staged[in]
		r.staged[in] = 0
		if wasEmpty {
			r.exposeFront(in)
		}
	}
	r.stagedMask = 0
}

// HasStaged reports whether any arrival is staged for commit this cycle; it
// inlines, so the network skips CommitArrivals for a staged-nothing router.
func (r *Router) HasStaged() bool { return r.stagedMask != 0 }

// exposeFront publishes the flit at the head position of non-empty input in
// as the FIFO's front: its head-of-line byte is cached and, when it requests
// an output, the input joins that output's wantMask.
func (r *Router) exposeFront(in int) {
	s := r.info[in*r.depth+int(r.head[in])]
	r.front[in] = s
	r.occupied |= 1 << uint(in)
	if s&slotRequest != 0 {
		r.wantMask[s>>slotOutShift] |= 1 << uint(in)
		r.wantAny |= 1 << (s >> slotOutShift)
	}
}

// PopInput removes and returns the flit at the head of the input FIFO of
// port dir; it panics if the FIFO is empty (a bug in the transfer logic).
func (r *Router) PopInput(dir mesh.Direction) flit.Word {
	in := int(dir)
	if r.count[in] == 0 {
		panic(fmt.Sprintf("router %v: pop from empty input %v", r.Node, dir))
	}
	w := r.slots[in*r.depth+int(r.head[in])]
	if s := r.front[in]; s&slotRequest != 0 {
		out := s >> slotOutShift
		if r.wantMask[out] &^= 1 << uint(in); r.wantMask[out] == 0 {
			r.wantAny &^= 1 << out
		}
	}
	r.head[in]++
	if int(r.head[in]) == r.depth {
		r.head[in] = 0
	}
	r.count[in]--
	if r.count[in] == 0 {
		r.occupied &^= 1 << uint(in)
	} else {
		r.exposeFront(in)
	}
	return w
}

// ConsumeCredit decrements the credit counter of the output port after a flit
// has been forwarded through it. The local ejection port is never
// back-pressured, so its credits are not tracked.
func (r *Router) ConsumeCredit(dir mesh.Direction) {
	if dir == mesh.Local {
		return
	}
	op := &r.out[dir]
	if op.credits <= 0 {
		panic(fmt.Sprintf("router %v: credit underflow on output %v", r.Node, dir))
	}
	if op.credits--; op.credits == 0 {
		r.credOK &^= 1 << uint(dir)
	}
}

// ReturnCredit increments the credit counter of the output port; the network
// calls it when the downstream router frees a slot of the buffer this output
// feeds.
func (r *Router) ReturnCredit(dir mesh.Direction) {
	if dir == mesh.Local {
		return
	}
	op := &r.out[dir]
	op.credits++
	if op.credits > r.downstreamDepth {
		panic(fmt.Sprintf("router %v: credit overflow on output %v", r.Node, dir))
	}
	r.credOK |= 1 << uint(dir)
}

// Forward runs the router's cycle in one walk over the output ports that can
// act: each port decides as in ComputeTransfers, and its winner moves at once
// — popped, charged a credit and, unless ejected, staged into down[out]. It
// returns the moves in output order, in ComputeTransfers' scratch buffer, for
// the caller to return credits, wake the downstream routers and eject the
// Local flit. A flow-control violation panics with PopInput's,
// ConsumeCredit's or StageArrival's text.
func (r *Router) Forward(down *[mesh.NumDirections]*Router) []Transfer { return r.walk(down) }

// ComputeTransfers decides, for the current cycle, which flit every output
// port forwards, and moves none of them. At most one transfer is produced per
// output port and per input port. The decision mutates only the arbitration
// state and the wormhole locks; the caller must then apply each transfer with
// ApplyTransfer (or equivalent calls to PopInput/ConsumeCredit) and deliver
// the flit downstream. The returned slice is backed by a per-router scratch
// buffer and is only valid until the next ComputeTransfers or Forward call.
func (r *Router) ComputeTransfers() []Transfer { return r.walk(nil) }

// walk is the one decision loop of Forward (down set: each winner moves as
// soon as it is granted) and of ComputeTransfers (down nil: it stays put).
func (r *Router) walk(down *[mesh.NumDirections]*Router) []Transfer {
	n := 0
	var busy, moved uint8 // inputs feeding an output this cycle; outputs that moved a flit
	idle := r.owing & r.credOK &^ r.lockMask
	for m := r.credOK & (r.lockMask | r.wantAny); m != 0; m &= m - 1 {
		out := bits.TrailingZeros8(m)
		op := &r.out[out]
		var in int
		if op.locked {
			// Wormhole: the port is reserved for the packet coming from
			// lockedTo; forward its next flit if it is at the front of that
			// input FIFO (a head there belongs to a later packet).
			in = int(op.lockedTo)
			bit := uint8(1) << uint(in)
			if (r.occupied&^busy)&bit == 0 || r.front[in]&slotHead != 0 {
				continue
			}
			if r.front[in]&slotTail != 0 {
				op.locked = false
				r.lockMask &^= 1 << uint(out)
			}
		} else {
			// Free port: arbitrate among the inputs whose front flit is a
			// head routed here. With no requester it is owed the hardware's
			// idle-cycle replenishment, given after the loop.
			requests := r.wantMask[out] &^ busy
			if requests == 0 {
				continue
			}
			if r.weighted {
				in = r.waw[out].GrantMask(requests)
				if !r.waw[out].IdleStable() {
					r.owing |= 1 << uint(out)
				}
			} else {
				in = op.rr.GrantMask(requests)
			}
			if r.front[in]&slotTail == 0 {
				op.locked = true
				op.lockedTo = uint8(in)
				r.lockMask |= 1 << uint(out)
			}
		}
		busy |= 1 << uint(in)
		moved |= 1 << uint(out)
		var w flit.Word
		if down == nil {
			w = r.slots[in*r.depth+int(r.head[in])]
		} else {
			w = r.PopInput(mesh.Direction(in))
			r.ConsumeCredit(mesh.Direction(out))
			op.forwarded++
			if out != int(mesh.Local) {
				d := down[out]
				if d == nil {
					panic(fmt.Sprintf("router %v: no downstream router on output %v", r.Node, mesh.Direction(out)))
				}
				if err := d.StageArrival(mesh.Direction(out), w); err != nil {
					panic(err.Error())
				}
			}
		}
		r.transferScratch[n] = Transfer{Out: mesh.Direction(out), In: mesh.Direction(in), Flit: w}
		n++
	}
	if idle &^= moved; idle != 0 {
		r.replenish(idle, 1)
	}
	return r.transferScratch[:n]
}

// replenish gives every WaW output in mask m cycles request-less grants and
// clears the owing bit of each whose arbiter saturates.
func (r *Router) replenish(m uint8, cycles uint64) {
	for ; m != 0; m &= m - 1 {
		out := bits.TrailingZeros8(m)
		if r.waw[out].Replenish(cycles); r.waw[out].IdleStable() {
			r.owing &^= 1 << uint(out)
		}
	}
}

// Quiescent reports whether a ComputeTransfers call would neither produce a
// transfer nor change any router state: every input FIFO is empty
// (committed and staged), and no unlocked output owes a request-less grant
// (a locked port never consults its arbiter, and a WaW arbiter still
// replenishing keeps the router busy until its counters saturate). Credits
// do not appear: a zero-credit port skips its arbiter either way. The
// active-set engine drops a router on the weaker InputsEmpty and leaves the
// owed replenishment to CatchUpIdle.
func (r *Router) Quiescent() bool { return r.InputsEmpty() && r.owing&^r.lockMask == 0 }

// InputsEmpty reports whether every input FIFO — committed and staged — is
// empty, so the router can neither forward a flit nor form a request this
// cycle or the next. It is the active-set engine's drop predicate: such a
// router's visit is only the request-less replenishment CatchUpIdle replays
// in bulk when a staged arrival or a returned credit wakes it.
func (r *Router) InputsEmpty() bool { return r.occupied == 0 && r.stagedMask == 0 }

// CatchUpIdle replays cycles idle cycles of output-port arbitration in one
// step: every owing output a per-cycle visit would have consulted —
// unlocked, with a credit — gets as many request-less grants. The caller
// (the network's lazy-replenishment bookkeeping) guarantees that the
// router's inputs were empty and that no credit or lock changed over the
// replayed window, which makes the bulk replay exact.
func (r *Router) CatchUpIdle(cycles uint64) {
	if r.owing != 0 && cycles != 0 {
		r.replenish(r.owing&r.credOK&^r.lockMask, cycles)
	}
}

// Arbiter exposes the WaW arbiter of the output port in direction dir for
// tests and state inspection: nil when the port does not exist or the router
// arbitrates round-robin. Callers must not grant through it; the router owns
// the arbitration schedule.
func (r *Router) Arbiter(dir mesh.Direction) *arbiter.Weighted {
	if !r.out[dir].exists || !r.weighted {
		return nil
	}
	return &r.waw[dir]
}

// Reset rewinds the router to its just-constructed state: input FIFOs and
// staging areas emptied, wormhole locks released, credit counters restored
// to the downstream buffer depth, arbiters back to their power-on state and
// forwarding statistics cleared. Nothing is reallocated.
func (r *Router) Reset() {
	var zero [mesh.NumDirections]uint8
	r.head, r.count, r.staged, r.wantMask = zero, zero, zero, zero
	r.occupied, r.stagedMask, r.credOK, r.lockMask, r.wantAny, r.owing = 0, 0, 0, 0, 0, 0
	for out := range r.out {
		op := &r.out[out]
		op.locked = false
		op.lockedTo = 0
		op.forwarded = 0
		if op.exists {
			r.credOK |= 1 << uint(out)
			if out != int(mesh.Local) {
				op.credits = r.downstreamDepth
			}
		}
		op.rr.Reset()
		r.waw[out].Reset()
	}
}

// ApplyTransfer removes the transferred flit from its input FIFO, consumes a
// credit of the output port and counts it forwarded. It returns the flit for
// the caller to deliver to the downstream router or the local NIC.
func (r *Router) ApplyTransfer(t Transfer) flit.Word {
	w := r.PopInput(t.In)
	if w != t.Flit {
		panic(fmt.Sprintf("router %v: transfer flit mismatch on input %v", r.Node, t.In))
	}
	r.ConsumeCredit(t.Out)
	r.out[t.Out].forwarded++
	return w
}
