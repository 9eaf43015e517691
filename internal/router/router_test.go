package router

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/flit"
	"repro/internal/flows"
	"repro/internal/mesh"
)

// nextRecord numbers the test flits: each gets a record index of its own, so
// comparing words tells every flit apart.
var nextRecord uint32

// depth is the input-buffer depth of the evaluation platform.
const depth = 4

// mustNew builds a router with depth-flit buffers at node n of the plain mesh
// d, with downstream buffers as deep as its own; it panics on error.
func mustNew(d mesh.Dim, n mesh.Node, counts *flows.PortCounts) *Router {
	r, err := New(mesh.Plain(d), n, depth, counts, depth)
	if err != nil {
		panic(err)
	}
	return r
}

// makePacket builds a well-formed packet of n flits bound for router dst.
func makePacket(dst mesh.Node, n int) []flit.Word {
	out := make([]flit.Word, 0, n)
	for i := 0; i < n; i++ {
		typ := flit.Body
		switch {
		case n == 1:
			typ = flit.HeadTail
		case i == 0:
			typ = flit.Head
		case i == n-1:
			typ = flit.Tail
		}
		nextRecord++
		out = append(out, flit.NewWord(typ, dst, nextRecord))
	}
	return out
}

func stageAll(t *testing.T, r *Router, dir mesh.Direction, fl []flit.Word) {
	t.Helper()
	for _, f := range fl {
		if err := r.StageArrival(dir, f); err != nil {
			t.Fatalf("stage %v on %v: %v", f, dir, err)
		}
	}
	r.CommitArrivals()
}

// TestConfigValidate checks New's buffer-depth range: the ring positions and
// counts are one byte each.
func TestConfigValidate(t *testing.T) {
	topo := mesh.Plain(mesh.MustDim(3, 3))
	for depth, valid := range map[int]bool{0: false, 1: true, 4: true, MaxBufferDepth: true, MaxBufferDepth + 1: false} {
		if _, err := New(topo, mesh.Node{X: 1, Y: 1}, depth, nil, 0); (err == nil) != valid {
			t.Errorf("depth %d: error %v, want valid=%v", depth, err, valid)
		}
	}
}

// TestDeepestRingWraps fills, drains and refills a 255-slot FIFO so every
// one-byte counter passes through its largest value and the ring wraps.
func TestDeepestRingWraps(t *testing.T) {
	d := mesh.MustDim(3, 3)
	r, err := New(mesh.Plain(d), mesh.Node{X: 1, Y: 1}, 255, nil, 255)
	if err != nil {
		t.Fatal(err)
	}
	var queue []flit.Word // what the FIFO must hold, oldest first
	for round := 0; round < 3; round++ {
		for r.InputSpace(mesh.Local) > 0 {
			f := makePacket(mesh.Node{X: 1, Y: 1}, 1)[0]
			if err := r.StageArrival(mesh.Local, f); err != nil {
				t.Fatal(err)
			}
			queue = append(queue, f)
		}
		r.CommitArrivals()
		if len(queue) != 255 || r.InputOccupancy(mesh.Local) != 255 {
			t.Fatalf("round %d: %d flits staged in all, occupancy %d", round, len(queue), r.InputOccupancy(mesh.Local))
		}
		if r.StageArrival(mesh.Local, queue[0]) == nil {
			t.Fatal("a full 255-slot FIFO accepted another flit")
		}
		// Drain 155 and keep 100, so the next round's fill wraps the ring.
		for i := 0; i < 155; i++ {
			tr := r.ComputeTransfers()
			if len(tr) != 1 || tr[0].Out != mesh.Local || tr[0].Flit != queue[0] {
				t.Fatalf("round %d flit %d: transfers %+v, want %v ejected", round, i, tr, queue[0])
			}
			r.ApplyTransfer(tr[0])
			queue = queue[1:]
		}
	}
}

func TestNewValidation(t *testing.T) {
	d := mesh.MustDim(3, 3)
	if _, err := New(mesh.Plain(d), mesh.Node{X: 5, Y: 5}, depth, nil, 4); err == nil {
		t.Error("node outside mesh should fail")
	}
	if _, err := New(mesh.Plain(d), mesh.Node{X: 0, Y: 0}, 0, nil, 4); err == nil {
		t.Error("zero buffer depth should fail")
	}
	r, err := New(mesh.Plain(d), mesh.Node{X: 1, Y: 1}, depth, nil, 0)
	if err != nil {
		t.Fatalf("valid router rejected: %v", err)
	}
	if r.Credits(mesh.XPlus) != depth {
		t.Errorf("downstreamDepth<1 should default to BufferDepth, credits=%d", r.Credits(mesh.XPlus))
	}
}

func TestOutputExistence(t *testing.T) {
	d := mesh.MustDim(3, 3)
	corner := mustNew(d, mesh.Node{X: 0, Y: 0}, nil)
	if corner.out[mesh.XMinus].exists || corner.out[mesh.YMinus].exists {
		t.Error("corner router should not have X-/Y- outputs")
	}
	if !corner.out[mesh.XPlus].exists || !corner.out[mesh.YPlus].exists || !corner.out[mesh.Local].exists {
		t.Error("corner router missing expected outputs")
	}
	center := mustNew(d, mesh.Node{X: 1, Y: 1}, nil)
	for _, dir := range mesh.Directions {
		if !center.out[dir].exists {
			t.Errorf("centre router missing output %v", dir)
		}
	}
}

func TestSingleFlitTraversalDecision(t *testing.T) {
	d := mesh.MustDim(4, 4)
	r := mustNew(d, mesh.Node{X: 1, Y: 1}, nil)
	// A single-flit packet injected locally, destined to (3,1): must leave
	// through X+.
	pkt := makePacket(mesh.Node{X: 3, Y: 1}, 1)
	stageAll(t, r, mesh.Local, pkt)

	transfers := r.ComputeTransfers()
	if len(transfers) != 1 {
		t.Fatalf("expected 1 transfer, got %d", len(transfers))
	}
	tr := transfers[0]
	if tr.Out != mesh.XPlus || tr.In != mesh.Local || tr.Flit != pkt[0] {
		t.Errorf("unexpected transfer %+v", tr)
	}
	// Single-flit packets must not lock the output port.
	if _, locked := r.OutputLocked(mesh.XPlus); locked {
		t.Error("HEAD+TAIL flit should not lock the output")
	}
	f := r.ApplyTransfer(tr)
	if f != pkt[0] {
		t.Error("ApplyTransfer returned wrong flit")
	}
	if r.Credits(mesh.XPlus) != depth-1 {
		t.Errorf("credits after send = %d", r.Credits(mesh.XPlus))
	}
	if r.InputOccupancy(mesh.Local) != 0 {
		t.Error("input FIFO not drained")
	}
	if r.Forwarded(mesh.XPlus) != 1 {
		t.Errorf("forwarded count = %d", r.Forwarded(mesh.XPlus))
	}
}

func TestEjectionAtDestination(t *testing.T) {
	d := mesh.MustDim(4, 4)
	dst := mesh.Node{X: 2, Y: 2}
	r := mustNew(d, dst, nil)
	pkt := makePacket(dst, 1)
	stageAll(t, r, mesh.XPlus, pkt)
	transfers := r.ComputeTransfers()
	if len(transfers) != 1 || transfers[0].Out != mesh.Local {
		t.Fatalf("expected ejection through Local, got %+v", transfers)
	}
}

func TestWormholeLockingAndRelease(t *testing.T) {
	d := mesh.MustDim(4, 4)
	r := mustNew(d, mesh.Node{X: 1, Y: 1}, nil)
	pkt := makePacket(mesh.Node{X: 1, Y: 3}, 3) // Head, Body, Tail via Y+
	stageAll(t, r, mesh.Local, pkt)

	// Cycle 1: head wins arbitration and locks Y+.
	tr := r.ComputeTransfers()
	if len(tr) != 1 || tr[0].Flit != pkt[0] || tr[0].Out != mesh.YPlus {
		t.Fatalf("cycle 1 transfers %+v", tr)
	}
	r.ApplyTransfer(tr[0])
	if in, locked := r.OutputLocked(mesh.YPlus); !locked || in != mesh.Local {
		t.Fatalf("Y+ should be locked to Local after head, locked=%v in=%v", locked, in)
	}

	// A competing head flit from another input wanting Y+ must now wait.
	other := makePacket(mesh.Node{X: 1, Y: 3}, 1)
	stageAll(t, r, mesh.XMinus, other)

	// Cycle 2: body flit of the locked packet is forwarded, competitor waits.
	tr = r.ComputeTransfers()
	if len(tr) != 1 || tr[0].Flit != pkt[1] {
		t.Fatalf("cycle 2 transfers %+v", tr)
	}
	r.ApplyTransfer(tr[0])
	if _, locked := r.OutputLocked(mesh.YPlus); !locked {
		t.Fatal("Y+ should remain locked until the tail")
	}

	// Cycle 3: tail flit releases the lock.
	tr = r.ComputeTransfers()
	if len(tr) != 1 || tr[0].Flit != pkt[2] {
		t.Fatalf("cycle 3 transfers %+v", tr)
	}
	r.ApplyTransfer(tr[0])
	if _, locked := r.OutputLocked(mesh.YPlus); locked {
		t.Fatal("Y+ should be unlocked after the tail")
	}

	// Cycle 4: the competitor finally gets the port.
	tr = r.ComputeTransfers()
	if len(tr) != 1 || tr[0].Flit != other[0] || tr[0].In != mesh.XMinus {
		t.Fatalf("cycle 4 transfers %+v", tr)
	}
}

func TestCreditBackpressure(t *testing.T) {
	d := mesh.MustDim(4, 4)
	r, err := New(mesh.Plain(d), mesh.Node{X: 1, Y: 1}, 2, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Two single-flit packets towards X+ exhaust the 2 credits; a third
	// packet must not be forwarded until a credit returns.
	for i := 0; i < 2; i++ {
		pkt := makePacket(mesh.Node{X: 3, Y: 1}, 1)
		if err := r.StageArrival(mesh.Local, pkt[0]); err != nil {
			t.Fatal(err)
		}
	}
	r.CommitArrivals()
	for i := 0; i < 2; i++ {
		tr := r.ComputeTransfers()
		if len(tr) != 1 {
			t.Fatalf("cycle %d: expected 1 transfer, got %d", i, len(tr))
		}
		r.ApplyTransfer(tr[0])
	}
	third := makePacket(mesh.Node{X: 3, Y: 1}, 1)
	stageAll(t, r, mesh.Local, third)
	if r.Credits(mesh.XPlus) != 0 {
		t.Fatalf("credits = %d, want 0", r.Credits(mesh.XPlus))
	}
	if tr := r.ComputeTransfers(); len(tr) != 0 {
		t.Fatalf("transfer allowed with zero credits: %+v", tr)
	}
	r.ReturnCredit(mesh.XPlus)
	if tr := r.ComputeTransfers(); len(tr) != 1 {
		t.Fatal("transfer should resume after credit return")
	}
}

func TestCreditPanics(t *testing.T) {
	d := mesh.MustDim(3, 3)
	r := mustNew(d, mesh.Node{X: 1, Y: 1}, nil)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("credit underflow should panic")
			}
		}()
		for i := 0; i < depth+1; i++ {
			r.ConsumeCredit(mesh.XPlus)
		}
	}()
	r2 := mustNew(d, mesh.Node{X: 1, Y: 1}, nil)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("credit overflow should panic")
			}
		}()
		r2.ReturnCredit(mesh.XPlus)
	}()
	// The local ejection port ignores credit operations entirely.
	r3 := mustNew(d, mesh.Node{X: 1, Y: 1}, nil)
	r3.ConsumeCredit(mesh.Local)
	r3.ReturnCredit(mesh.Local)
}

// TestCreditOverflowTracksDownstreamDepth: the credit counter counts slots of
// the downstream buffer, so its ceiling is the downstream depth, whichever
// way that differs from the router's own buffer depth.
func TestCreditOverflowTracksDownstreamDepth(t *testing.T) {
	d := mesh.MustDim(3, 3)
	for _, downstream := range []int{2, 6} { // own depth is 4
		r, err := New(mesh.Plain(d), mesh.Node{X: 1, Y: 1}, depth, nil, downstream)
		if err != nil {
			t.Fatal(err)
		}
		if r.Credits(mesh.XPlus) != downstream {
			t.Fatalf("downstream %d: initial credits %d", downstream, r.Credits(mesh.XPlus))
		}
		// Every slot consumed and returned: never an overflow.
		for i := 0; i < downstream; i++ {
			r.ConsumeCredit(mesh.XPlus)
		}
		for i := 0; i < downstream; i++ {
			r.ReturnCredit(mesh.XPlus)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("downstream %d: a credit beyond the downstream depth should panic", downstream)
				}
			}()
			r.ReturnCredit(mesh.XPlus)
		}()
	}
}

func TestInputOverflowRejected(t *testing.T) {
	d := mesh.MustDim(3, 3)
	r, err := New(mesh.Plain(d), mesh.Node{X: 0, Y: 0}, 2, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	p := makePacket(mesh.Node{X: 0, Y: 0}, 3)
	if err := r.StageArrival(mesh.XMinus, p[0]); err != nil {
		t.Fatal(err)
	}
	if err := r.StageArrival(mesh.XMinus, p[1]); err != nil {
		t.Fatal(err)
	}
	if err := r.StageArrival(mesh.XMinus, p[2]); err == nil {
		t.Error("staging beyond the buffer depth should fail")
	}
}

func TestPopEmptyPanics(t *testing.T) {
	d := mesh.MustDim(2, 2)
	r := mustNew(d, mesh.Node{X: 0, Y: 0}, nil)
	defer func() {
		if recover() == nil {
			t.Error("PopInput on empty FIFO should panic")
		}
	}()
	r.PopInput(mesh.Local)
}

func TestApplyTransferMismatchPanics(t *testing.T) {
	d := mesh.MustDim(3, 3)
	r := mustNew(d, mesh.Node{X: 1, Y: 1}, nil)
	pkt := makePacket(mesh.Node{X: 2, Y: 1}, 1)
	stageAll(t, r, mesh.Local, pkt)
	other := makePacket(mesh.Node{X: 2, Y: 1}, 1)
	defer func() {
		if recover() == nil {
			t.Error("ApplyTransfer with a stale flit should panic")
		}
	}()
	r.ApplyTransfer(Transfer{Out: mesh.XPlus, In: mesh.Local, Flit: other[0]})
}

// panicText runs f and returns the text it panicked with ("" if it did not).
func panicText(f func()) (text string) {
	defer func() {
		if v := recover(); v != nil {
			text = fmt.Sprint(v)
		}
	}()
	f()
	return ""
}

// TestForwardViolationsPanic forges the flow-control violations the one-walk
// Forward must still catch — an empty locked input, a full downstream input
// — and requires the panic texts of the two-phase mutators
// (PopInput, StageArrival) for them. A zero credit, forged the way
// ConsumeCredit leaves one (the count at 0 and the port's credOK bit
// cleared), cannot reach ConsumeCredit from Forward, whose walk skips such a
// port: it must move nothing, and the credit check it would meet is
// ConsumeCredit's own.
func TestForwardViolationsPanic(t *testing.T) {
	d := mesh.MustDim(3, 3)
	at, east := mesh.Node{X: 1, Y: 1}, mesh.Node{X: 2, Y: 1}
	// setup builds the router at (1,1) holding a one-flit packet for (2,1) on
	// its local input, and the router its X+ output feeds, whose input
	// buffers hold one flit.
	setup := func() (*Router, *Router, *[mesh.NumDirections]*Router) {
		r := mustNew(d, at, nil)
		stageAll(t, r, mesh.Local, makePacket(east, 1))
		nb, err := New(mesh.Plain(d), east, 1, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return r, nb, &[mesh.NumDirections]*Router{mesh.XPlus: nb}
	}
	check := func(what, got, want string) {
		t.Helper()
		if want == "" || got != want {
			t.Errorf("%s: Forward panicked with %q, want %q", what, got, want)
		}
	}

	// An output locked to an input that claims a flit it does not hold.
	r, _, down := setup()
	want := panicText(func() { mustNew(d, at, nil).PopInput(mesh.YPlus) })
	r.out[mesh.XPlus].locked, r.out[mesh.XPlus].lockedTo = true, uint8(mesh.YPlus)
	r.occupied |= 1 << uint(mesh.YPlus)
	check("empty locked input", panicText(func() { r.Forward(down) }), want)

	// The downstream input is full although the credit says otherwise.
	r, nb, down := setup()
	if err := nb.StageArrival(mesh.XPlus, makePacket(east, 1)[0]); err != nil {
		t.Fatal(err)
	}
	want = nb.StageArrival(mesh.XPlus, makePacket(east, 1)[0]).Error()
	check("full input", panicText(func() { r.Forward(down) }), want)

	// A zero credit: nothing moves, and the credit body Forward charges
	// through panics on it.
	r, _, down = setup()
	r.out[mesh.XPlus].credits = 0
	r.credOK &^= 1 << uint(mesh.XPlus)
	if tr := r.Forward(down); len(tr) != 0 || r.InputOccupancy(mesh.Local) != 1 {
		t.Errorf("zero credit: Forward moved %+v", tr)
	}
	if got := panicText(func() { r.ConsumeCredit(mesh.XPlus) }); !strings.Contains(got, "credit underflow on output X+") {
		t.Errorf("zero credit: ConsumeCredit panicked with %q", got)
	}
}

func TestRoundRobinContentionAlternates(t *testing.T) {
	d := mesh.MustDim(3, 3)
	dst := mesh.Node{X: 2, Y: 1}
	r := mustNew(d, mesh.Node{X: 1, Y: 1}, nil)
	// Two streams of single-flit packets contend for X+: one injected
	// locally, one arriving on the X+ input (travelling east).
	var localFlits, throughFlits []flit.Word
	for i := 0; i < 2; i++ {
		localFlits = append(localFlits, makePacket(dst, 1)...)
		throughFlits = append(throughFlits, makePacket(dst, 1)...)
	}
	stageAll(t, r, mesh.Local, localFlits)
	stageAll(t, r, mesh.XPlus, throughFlits)

	granted := make(map[mesh.Direction]int)
	for cycle := 0; cycle < 4; cycle++ {
		tr := r.ComputeTransfers()
		if len(tr) != 1 {
			t.Fatalf("cycle %d: expected 1 transfer, got %d", cycle, len(tr))
		}
		granted[tr[0].In]++
		r.ApplyTransfer(tr[0])
		r.ReturnCredit(mesh.XPlus) // pretend downstream drains immediately
	}
	if granted[mesh.Local] != 2 || granted[mesh.XPlus] != 2 {
		t.Errorf("round-robin shares = %v, want 2 and 2", granted)
	}
}

func TestWaWContentionFavoursWeightedInput(t *testing.T) {
	// At the memory-controller router of an 8x8 mesh (node (0,0)) flows from
	// the same row arrive on the X- input (7 per-destination flows) and flows
	// from every other row arrive on the Y- input (56 flows), so under
	// saturation the WaW arbiter must grant Y- roughly 8 times more often.
	d := mesh.MustDim(8, 8)
	node := mesh.Node{X: 0, Y: 0}
	counts := flows.ClosedFormCounts(d, node)
	if counts.CounterMax(mesh.XMinus, mesh.Local) != 7 || counts.CounterMax(mesh.YMinus, mesh.Local) != 56 {
		t.Fatalf("unexpected closed-form counts at (0,0): X-=%d Y-=%d",
			counts.CounterMax(mesh.XMinus, mesh.Local), counts.CounterMax(mesh.YMinus, mesh.Local))
	}
	r, err := New(mesh.Plain(d), node, depth, counts, depth)
	if err != nil {
		t.Fatal(err)
	}
	granted := make(map[mesh.Direction]int)
	const rounds = 630
	for i := 0; i < rounds; i++ {
		// Keep exactly one single-flit packet at the head of each input.
		if r.InputOccupancy(mesh.XMinus) == 0 {
			stageAll(t, r, mesh.XMinus, makePacket(node, 1))
		}
		if r.InputOccupancy(mesh.YMinus) == 0 {
			stageAll(t, r, mesh.YMinus, makePacket(node, 1))
		}
		tr := r.ComputeTransfers()
		if len(tr) != 1 {
			t.Fatalf("round %d: expected 1 transfer, got %d", i, len(tr))
		}
		granted[tr[0].In]++
		r.ApplyTransfer(tr[0])
	}
	// Expected shares: 7/63 and 56/63 of the ejection bandwidth.
	wantX := float64(rounds) * 7.0 / 63.0
	gotX := float64(granted[mesh.XMinus])
	if gotX < wantX*0.8 || gotX > wantX*1.2 {
		t.Errorf("X- grants = %v, want about %v (grants %v)", gotX, wantX, granted)
	}
}

func TestIllegalTurnNeverGranted(t *testing.T) {
	d := mesh.MustDim(3, 3)
	r := mustNew(d, mesh.Node{X: 1, Y: 1}, nil)
	// A flit arriving on a Y input can never be routed to an X output under
	// XY routing. Build a (malformed) flit that would want to do so: it
	// arrives travelling Y+ but its destination is to the east.
	bad := makePacket(mesh.Node{X: 2, Y: 1}, 1)
	stageAll(t, r, mesh.YPlus, bad)
	tr := r.ComputeTransfers()
	if len(tr) != 0 {
		t.Errorf("illegal Y->X turn was granted: %+v", tr)
	}
}

func TestHeadOfLineBlocking(t *testing.T) {
	// A head flit whose desired output is locked blocks the flits queued
	// behind it on the same input, even if they want a free output. This is
	// the head-of-line blocking inherent to wormhole switching (no virtual
	// channels), which the paper's analysis assumes.
	d := mesh.MustDim(4, 4)
	r := mustNew(d, mesh.Node{X: 1, Y: 1}, nil)

	// Lock Y+ with a 3-flit packet injected locally; only the head has
	// arrived so the lock persists.
	locker := makePacket(mesh.Node{X: 1, Y: 3}, 3)
	stageAll(t, r, mesh.Local, locker[:1])
	tr := r.ComputeTransfers()
	if len(tr) != 1 {
		t.Fatal("locker head not forwarded")
	}
	r.ApplyTransfer(tr[0])

	// On the X+ input: first a head flit that also wants Y+, then a head
	// flit that wants X+ (free). The second must wait behind the first.
	blockedHead := makePacket(mesh.Node{X: 1, Y: 3}, 1)
	freeHead := makePacket(mesh.Node{X: 3, Y: 1}, 1)
	stageAll(t, r, mesh.XPlus, append(blockedHead, freeHead...))

	tr = r.ComputeTransfers()
	for _, x := range tr {
		if x.Flit == freeHead[0] {
			t.Error("flit behind a blocked head must not bypass it (no VCs)")
		}
		if x.Flit == blockedHead[0] {
			t.Error("head wanting a locked output must not be granted")
		}
	}
}

func TestParallelOutputsSameCycle(t *testing.T) {
	// Different output ports can forward flits from different inputs in the
	// same cycle (crossbar parallelism).
	d := mesh.MustDim(3, 3)
	r := mustNew(d, mesh.Node{X: 1, Y: 1}, nil)
	east := makePacket(mesh.Node{X: 2, Y: 1}, 1)
	south := makePacket(mesh.Node{X: 1, Y: 2}, 1)
	stageAll(t, r, mesh.XPlus, east)
	stageAll(t, r, mesh.Local, south)
	tr := r.ComputeTransfers()
	if len(tr) != 2 {
		t.Fatalf("expected 2 parallel transfers, got %d: %+v", len(tr), tr)
	}
}

func TestOneTransferPerInputPerCycle(t *testing.T) {
	// A single input port can feed at most one output port per cycle, even
	// when consecutive single-flit packets in its FIFO target different
	// outputs.
	d := mesh.MustDim(3, 3)
	r := mustNew(d, mesh.Node{X: 1, Y: 1}, nil)
	first := makePacket(mesh.Node{X: 2, Y: 1}, 1)
	second := makePacket(mesh.Node{X: 1, Y: 2}, 1)
	stageAll(t, r, mesh.Local, append(first, second...))
	tr := r.ComputeTransfers()
	if len(tr) != 1 {
		t.Fatalf("expected 1 transfer (one per input per cycle), got %d", len(tr))
	}
	if tr[0].Flit != first[0] {
		t.Error("FIFO order violated")
	}
}
