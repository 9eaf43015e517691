package nic

import (
	"testing"
	"testing/quick"

	"repro/internal/flit"
	"repro/internal/mesh"
)

func testLink() flit.LinkConfig { return flit.DefaultLinkConfig() }

func node(x, y int) mesh.Node { return mesh.Node{X: x, Y: y} }

// plain is the mesh the test NICs sit on: one endpoint per router.
var plain = mesh.Plain(mesh.MustDim(8, 8))

// mustNew builds a NIC at node n of the plain mesh with a pool of its own; it
// panics on error.
func mustNew(n mesh.Node, scheme Scheme, link flit.LinkConfig) *NIC {
	ni, err := New(plain, n, scheme, link, &flit.Pool{})
	if err != nil {
		panic(err)
	}
	return ni
}

func TestSchemeString(t *testing.T) {
	if SchemeRegular.String() != "regular" || SchemeWaP.String() != "WaP" {
		t.Error("scheme names wrong")
	}
	if Scheme(7).String() != "Scheme(7)" {
		t.Error("unknown scheme string")
	}
}

func TestNewPacketizerValidation(t *testing.T) {
	pool := &flit.Pool{}
	if _, err := New(plain, node(0, 0), Scheme(9), testLink(), pool); err == nil {
		t.Error("unknown scheme should fail")
	}
	bad := testLink()
	bad.WidthBits = 0
	if _, err := New(plain, node(0, 0), SchemeRegular, bad, pool); err == nil {
		t.Error("invalid link config should fail")
	}
	if _, err := New(plain, node(0, 0), SchemeWaP, testLink(), pool); err != nil {
		t.Errorf("valid NIC rejected: %v", err)
	}
}

// packetize sends msg through a fresh NIC at its source node and returns the
// flits the NIC queued, grouped into packets in injection order. Every packet
// is checked to be a well-formed wormhole unit: HEAD, BODY..., TAIL (HEAD+TAIL
// alone), sequence numbers counting from 0, and one packet id, message id,
// flow and packet index/total shared by all its flits.
func packetize(t *testing.T, scheme Scheme, link flit.LinkConfig, msg *flit.Message) [][]*flit.Flit {
	t.Helper()
	n := mustNew(msg.Flow.Src, scheme, link)
	if _, err := n.Send(msg, 0); err != nil {
		t.Fatal(err)
	}
	var pkts [][]*flit.Flit
	for f := n.PopFlit(1); f != nil; f = n.PopFlit(1) {
		if f.Type.IsHead() {
			pkts = append(pkts, nil)
		}
		if len(pkts) == 0 {
			t.Fatalf("%v: flit stream starts with %v", scheme, f)
		}
		pkts[len(pkts)-1] = append(pkts[len(pkts)-1], f)
	}
	for i, pkt := range pkts {
		for s, f := range pkt {
			want := flit.Body
			switch {
			case len(pkt) == 1:
				want = flit.HeadTail
			case s == 0:
				want = flit.Head
			case s == len(pkt)-1:
				want = flit.Tail
			}
			if f.Type != want || f.Seq != s {
				t.Errorf("%v packet %d flit %d: %v seq %d, want %v seq %d", scheme, i, s, f.Type, f.Seq, want, s)
			}
			if f.PacketID != pkt[0].PacketID || f.MsgID != msg.ID || f.Flow != msg.Flow || f.Class != msg.Class {
				t.Errorf("%v packet %d flit %d: identity %v differs from its head %v", scheme, i, s, f, pkt[0])
			}
			if f.PacketIndex != i || f.PacketsInMsg != len(pkts) {
				t.Errorf("%v packet %d flit %d: index/total = %d/%d, want %d/%d", scheme, i, s, f.PacketIndex, f.PacketsInMsg, i, len(pkts))
			}
		}
		if i > 0 && pkt[0].PacketID == pkts[i-1][0].PacketID {
			t.Errorf("%v packets %d and %d share id %d", scheme, i-1, i, pkt[0].PacketID)
		}
	}
	return pkts
}

// payloadOf sums the payload bits the packets' flits carry.
func payloadOf(pkts [][]*flit.Flit) (bits, flits int) {
	for _, pkt := range pkts {
		flits += len(pkt)
		for _, f := range pkt {
			bits += f.PayloadBits
		}
	}
	return bits, flits
}

func TestRegularPacketizeCacheLine(t *testing.T) {
	msg := &flit.Message{ID: 5, Flow: flit.FlowID{Src: node(0, 0), Dst: node(3, 3)}, PayloadBits: 512, Class: flit.ClassReply}
	pkts := packetize(t, SchemeRegular, testLink(), msg)
	if len(pkts) != 1 {
		t.Fatalf("regular packetization produced %d packets, want 1", len(pkts))
	}
	if len(pkts[0]) != 4 {
		t.Errorf("cache-line packet has %d flits, want 4", len(pkts[0]))
	}
}

func TestWaPPacketizeCacheLine(t *testing.T) {
	msg := &flit.Message{ID: 9, Flow: flit.FlowID{Src: node(1, 1), Dst: node(0, 0)}, PayloadBits: 512, Class: flit.ClassReply}
	pkts := packetize(t, SchemeWaP, testLink(), msg)
	// 512 payload bits over packets carrying 116 payload bits each -> 5
	// single-flit packets (the paper's 25% overhead example).
	if len(pkts) != 5 {
		t.Fatalf("WaP produced %d packets, want 5", len(pkts))
	}
	for i, pkt := range pkts {
		if len(pkt) != 1 {
			t.Errorf("WaP packet %d has %d flits, want 1", i, len(pkt))
		}
	}
	if payload, total := payloadOf(pkts); total != 5 || payload != 512 {
		t.Errorf("WaP cache line = %d flits carrying %d bits, want 5 and 512", total, payload)
	}
}

func TestRegularPacketizeSplitsAboveMaxSize(t *testing.T) {
	link := testLink() // MaxPacketFlits = 4
	// Two cache lines worth of payload does not fit the 4-flit maximum
	// packet, so regular packetization must emit more than one packet, each
	// within the limit.
	msg := &flit.Message{ID: 2, Flow: flit.FlowID{Src: node(0, 0), Dst: node(1, 0)}, PayloadBits: 1024}
	pkts := packetize(t, SchemeRegular, link, msg)
	if len(pkts) < 2 {
		t.Fatalf("oversized message produced %d packets, want >= 2", len(pkts))
	}
	for _, pkt := range pkts {
		if len(pkt) > link.MaxPacketFlits {
			t.Errorf("packet of %d flits exceeds the maximum of %d", len(pkt), link.MaxPacketFlits)
		}
	}
}

func TestRegularUnlimitedPacketSize(t *testing.T) {
	link := testLink()
	link.MaxPacketFlits = 0 // protocols such as AMBA impose no limit
	msg := &flit.Message{ID: 3, Flow: flit.FlowID{Src: node(0, 0), Dst: node(1, 0)}, PayloadBits: 4096}
	pkts := packetize(t, SchemeRegular, link, msg)
	if len(pkts) != 1 {
		t.Fatalf("unlimited regular packetization produced %d packets, want 1", len(pkts))
	}
	if want := (4096 + 16 + 131) / 132; len(pkts[0]) != want {
		t.Errorf("packet size = %d flits, want %d", len(pkts[0]), want)
	}
}

func TestPacketizeOneFlitRequestIdenticalUnderBothSchemes(t *testing.T) {
	for _, scheme := range []Scheme{SchemeRegular, SchemeWaP} {
		msg := &flit.Message{ID: 4, Flow: flit.FlowID{Src: node(0, 0), Dst: node(7, 7)}, PayloadBits: 48, Class: flit.ClassRequest}
		pkts := packetize(t, scheme, testLink(), msg)
		if len(pkts) != 1 || len(pkts[0]) != 1 {
			t.Fatalf("%v: one-flit request became %d packets", scheme, len(pkts))
		}
		if pkts[0][0].Type != flit.HeadTail {
			t.Errorf("%v: single flit should be HEAD+TAIL", scheme)
		}
	}
}

// Property: for any payload size, both schemes produce well-formed packets
// whose flits carry the full payload; WaP never produces a packet larger than
// the minimum packet size and sends exactly the flits WaPFlitsForPayload
// accounts for; regular packetization fills every packet but the last to the
// maximum size.
func TestPacketizeProperty(t *testing.T) {
	link := testLink()
	f := func(raw uint16) bool {
		payload := int(raw)
		for _, scheme := range []Scheme{SchemeRegular, SchemeWaP} {
			msg := &flit.Message{ID: 77, Flow: flit.FlowID{Src: node(0, 0), Dst: node(3, 2)}, PayloadBits: payload}
			pkts := packetize(t, scheme, link, msg)
			if len(pkts) == 0 {
				return false
			}
			gotPayload, gotFlits := payloadOf(pkts)
			if gotPayload != payload {
				return false
			}
			for i, pkt := range pkts {
				if scheme == SchemeWaP && len(pkt) != link.MinPacketFlits {
					return false
				}
				if scheme == SchemeRegular && (len(pkt) > link.MaxPacketFlits || i < len(pkts)-1 && len(pkt) != link.MaxPacketFlits) {
					return false
				}
			}
			if wap, _ := link.WaPFlitsForPayload(payload); scheme == SchemeWaP && gotFlits != wap {
				return false
			}
			if scheme == SchemeRegular && len(pkts) == 1 && gotFlits != link.FlitsForPayload(payload) {
				return false
			}
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNICSendValidation(t *testing.T) {
	n := mustNew(node(1, 1), SchemeRegular, testLink())
	if _, err := n.Send(nil, 0); err == nil {
		t.Error("nil message should fail")
	}
	if _, err := n.Send(&flit.Message{Flow: flit.FlowID{Src: node(0, 0), Dst: node(1, 1)}}, 0); err == nil {
		t.Error("message from another node should fail")
	}
	if _, err := n.Send(&flit.Message{Flow: flit.FlowID{Src: node(1, 1), Dst: node(1, 1)}}, 0); err == nil {
		t.Error("message to self should fail")
	}
	id, err := n.Send(&flit.Message{Flow: flit.FlowID{Src: node(1, 1), Dst: node(0, 0)}, PayloadBits: 64}, 10)
	if err != nil {
		t.Fatalf("valid message rejected: %v", err)
	}
	if id == 0 {
		t.Error("message id not assigned")
	}
}

func TestNICInjectionQueue(t *testing.T) {
	n := mustNew(node(0, 0), SchemeWaP, testLink())
	if n.PopFlit(0) != nil {
		t.Error("empty queue should return nil")
	}
	msg := &flit.Message{Flow: flit.FlowID{Src: node(0, 0), Dst: node(1, 0)}, PayloadBits: 512}
	if _, err := n.Send(msg, 5); err != nil {
		t.Fatal(err)
	}
	if n.PendingFlits() != 5 {
		t.Fatalf("pending flits = %d, want 5", n.PendingFlits())
	}
	popped := n.PopFlit(7)
	if popped.InjectedAt != 7 {
		t.Errorf("InjectedAt = %d, want 7", popped.InjectedAt)
	}
	if popped.CreatedAt != 5 {
		t.Errorf("CreatedAt = %d, want 5", popped.CreatedAt)
	}
	if n.PendingFlits() != 4 {
		t.Errorf("pending flits after pop = %d", n.PendingFlits())
	}
}

// A backlog that grows past saturation must not be recopied on every Send:
// compaction waits until the consumed head is as long as the live queue, so
// it is amortised O(1) per flit, the slice stays within twice the live queue
// (plus the message being appended), and the flits still leave in FIFO order.
func TestNICBackloggedQueueCompactsAmortised(t *testing.T) {
	n := mustNew(node(0, 0), SchemeWaP, testLink())
	const steps = 2000
	var popped []*flit.Flit
	compactions := 0
	for i := 0; i < steps; i++ { // 5 flits in, 1 flit out: the backlog grows
		hadHead := n.injectHead > 0
		msg := &flit.Message{Flow: flit.FlowID{Src: node(0, 0), Dst: node(1, 0)}, PayloadBits: 512}
		if _, err := n.Send(msg, uint64(i)); err != nil {
			t.Fatal(err)
		}
		if hadHead && n.injectHead == 0 {
			compactions++
		}
		if len(n.injectQueue) > 2*n.PendingFlits()+5 {
			t.Fatalf("step %d: queue slice %d for %d live flits", i, len(n.injectQueue), n.PendingFlits())
		}
		popped = append(popped, n.PopFlit(uint64(i)))
	}
	if compactions > steps/100 {
		t.Errorf("%d compactions in %d sends of a growing backlog, want amortised O(1)", compactions, steps)
	}
	for n.PendingFlits() > 0 { // drain: now the head overtakes the live queue
		popped = append(popped, n.PopFlit(steps))
	}
	if len(popped) != 5*steps {
		t.Fatalf("popped %d flits, want %d", len(popped), 5*steps)
	}
	for i, f := range popped {
		if f.CreatedAt != uint64(i/5) || f.PacketIndex+f.Seq != i%5 {
			t.Fatalf("flit %d out of order: message of cycle %d, packet %d, seq %d", i, f.CreatedAt, f.PacketIndex, f.Seq)
		}
	}
}

func TestNICReceiveValidation(t *testing.T) {
	n := mustNew(node(2, 2), SchemeRegular, testLink())
	if _, err := n.Receive(nil, 0); err == nil {
		t.Error("nil flit should fail")
	}
	f := &flit.Flit{Flow: flit.FlowID{Src: node(0, 0), Dst: node(3, 3)}, Type: flit.HeadTail, PacketsInMsg: 1}
	if _, err := n.Receive(f, 0); err == nil {
		t.Error("flit for another node should fail")
	}
}

// End-to-end packetize/reassemble round trip: everything the source NIC
// sends, the destination NIC reassembles into an equivalent message,
// regardless of the scheme and the payload size.
func TestNICRoundTrip(t *testing.T) {
	for _, scheme := range []Scheme{SchemeRegular, SchemeWaP} {
		for _, payload := range []int{0, 48, 116, 117, 512, 1024, 5000} {
			src := mustNew(node(0, 0), scheme, testLink())
			dst := mustNew(node(3, 2), scheme, testLink())
			msg := &flit.Message{
				Flow:        flit.FlowID{Src: node(0, 0), Dst: node(3, 2)},
				PayloadBits: payload,
				Class:       flit.ClassData,
			}
			id, err := src.Send(msg, 100)
			if err != nil {
				t.Fatalf("%v payload %d: %v", scheme, payload, err)
			}
			cycle := uint64(101)
			var completed *flit.Message
			for src.PendingFlits() > 0 {
				f := src.PopFlit(cycle)
				got, err := dst.Receive(f, cycle+3)
				if err != nil {
					t.Fatalf("%v payload %d: receive: %v", scheme, payload, err)
				}
				if got != nil {
					completed = got
				}
				cycle++
			}
			if completed == nil {
				t.Fatalf("%v payload %d: message never completed", scheme, payload)
			}
			if completed.ID != id {
				t.Errorf("reassembled id = %d, want %d", completed.ID, id)
			}
			if completed.PayloadBits != payload {
				t.Errorf("%v: reassembled payload = %d, want %d", scheme, completed.PayloadBits, payload)
			}
			if completed.Class != flit.ClassData {
				t.Errorf("class lost in reassembly")
			}
			if dst.PendingReassemblies() != 0 {
				t.Errorf("leftover reassembly state")
			}
			if completed.CreatedAt != 100 || completed.InjectedAt != 101 || completed.DeliveredAt != cycle+2 {
				t.Errorf("%v payload %d: created/injected/delivered at %d/%d/%d, want 100/101/%d",
					scheme, payload, completed.CreatedAt, completed.InjectedAt, completed.DeliveredAt, cycle+2)
			}
		}
	}
}

// A message that arrives whole in one flit is delivered straight from the
// flit: it never enters the reassembly table and leaves no record behind,
// while a multi-flit message does both.
func TestNICOneFlitMessageSkipsReassembly(t *testing.T) {
	src := mustNew(node(0, 0), SchemeRegular, testLink())
	dst := mustNew(node(3, 2), SchemeRegular, testLink())
	flow := flit.FlowID{Src: node(0, 0), Dst: node(3, 2)}
	receiveAll := func() (last *flit.Message) {
		for src.PendingFlits() > 0 {
			msg, err := dst.Receive(src.PopFlit(7), 9)
			if err != nil {
				t.Fatal(err)
			}
			if msg == nil && dst.PendingReassemblies() != 1 {
				t.Fatal("a partial message must sit in the reassembly table")
			}
			last = msg
		}
		return last
	}
	id, err := src.Send(&flit.Message{Flow: flow, PayloadBits: 48, Class: flit.ClassRequest}, 5)
	if err != nil {
		t.Fatal(err)
	}
	msg := receiveAll()
	if msg == nil || msg.ID != id || msg.Flow != flow || msg.Class != flit.ClassRequest || msg.PayloadBits != 48 ||
		msg.CreatedAt != 5 || msg.InjectedAt != 7 || msg.DeliveredAt != 9 {
		t.Fatalf("one-flit message delivered as %+v", msg)
	}
	if dst.PendingReassemblies() != 0 || len(dst.freeReassembly) != 0 {
		t.Errorf("one-flit message used a reassembly record (pending %d, recycled %d)",
			dst.PendingReassemblies(), len(dst.freeReassembly))
	}
	if _, err := src.Send(&flit.Message{Flow: flow, PayloadBits: 512}, 5); err != nil {
		t.Fatal(err)
	}
	if receiveAll() == nil || dst.PendingReassemblies() != 0 || len(dst.freeReassembly) != 1 {
		t.Errorf("four-flit message: pending %d, recycled %d records", dst.PendingReassemblies(), len(dst.freeReassembly))
	}
}

// Two interleaved messages from different sources must be reassembled
// independently.
func TestNICInterleavedReassembly(t *testing.T) {
	link := testLink()
	dst := mustNew(node(0, 0), SchemeWaP, link)
	a := mustNew(node(1, 0), SchemeWaP, link)
	b := mustNew(node(2, 0), SchemeWaP, link)
	msgA := &flit.Message{Flow: flit.FlowID{Src: node(1, 0), Dst: node(0, 0)}, PayloadBits: 512}
	msgB := &flit.Message{Flow: flit.FlowID{Src: node(2, 0), Dst: node(0, 0)}, PayloadBits: 512}
	if _, err := a.Send(msgA, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Send(msgB, 0); err != nil {
		t.Fatal(err)
	}
	completed := 0
	cycle := uint64(1)
	for a.PendingFlits() > 0 || b.PendingFlits() > 0 {
		if f := a.PopFlit(cycle); f != nil {
			if m, _ := dst.Receive(f, cycle); m != nil {
				completed++
			}
		}
		if f := b.PopFlit(cycle); f != nil {
			if m, _ := dst.Receive(f, cycle); m != nil {
				completed++
			}
		}
		cycle++
	}
	if completed != 2 {
		t.Errorf("completed %d messages, want 2", completed)
	}
	if dst.PendingReassemblies() != 0 {
		t.Error("pending reassemblies left over")
	}
}

func TestNICUniqueMessageIDsAcrossNodes(t *testing.T) {
	a := mustNew(node(0, 1), SchemeRegular, testLink())
	b := mustNew(node(1, 0), SchemeRegular, testLink())
	seen := make(map[uint64]bool)
	for i := 0; i < 50; i++ {
		idA, err := a.Send(&flit.Message{Flow: flit.FlowID{Src: node(0, 1), Dst: node(3, 3)}, PayloadBits: 10}, 0)
		if err != nil {
			t.Fatal(err)
		}
		idB, err := b.Send(&flit.Message{Flow: flit.FlowID{Src: node(1, 0), Dst: node(3, 3)}, PayloadBits: 10}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if seen[idA] || seen[idB] || idA == idB {
			t.Fatalf("duplicate message id (%d, %d)", idA, idB)
		}
		seen[idA], seen[idB] = true, true
	}
}

// Reset must rewind a NIC to its just-constructed state: queue, reassembly
// table and identifier counters, so a reused NIC assigns the same message
// ids a fresh one would.
func TestNICReset(t *testing.T) {
	n := mustNew(mesh.Node{X: 1, Y: 1}, SchemeRegular, flit.DefaultLinkConfig())
	msg := &flit.Message{Flow: flit.FlowID{Src: mesh.Node{X: 1, Y: 1}, Dst: mesh.Node{X: 0, Y: 0}}, PayloadBits: 512}
	firstID, err := n.Send(msg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n.PendingFlits() == 0 {
		t.Fatal("send did not enqueue")
	}
	n.PopFlit(4)
	n.Reset()
	if n.PendingFlits() != 0 || n.PendingReassemblies() != 0 {
		t.Fatalf("Reset left state behind: %+v", n)
	}
	again := &flit.Message{Flow: msg.Flow, PayloadBits: 512}
	secondID, err := n.Send(again, 3)
	if err != nil {
		t.Fatal(err)
	}
	if secondID != firstID {
		t.Errorf("message ids after Reset must restart: first %d, after reset %d", firstID, secondID)
	}
}

// NICs sharing one pool packetize from it, return absorbed flits to it and
// reassemble into messages drawn from it.
func TestNICPooledReceive(t *testing.T) {
	var pool flit.Pool
	src, err := New(plain, mesh.Node{X: 1, Y: 0}, SchemeRegular, flit.DefaultLinkConfig(), &pool)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := New(plain, mesh.Node{X: 0, Y: 0}, SchemeRegular, flit.DefaultLinkConfig(), &pool)
	if err != nil {
		t.Fatal(err)
	}
	msg := pool.GetMessage()
	msg.Flow = flit.FlowID{Src: mesh.Node{X: 1, Y: 0}, Dst: mesh.Node{X: 0, Y: 0}}
	msg.PayloadBits = 512
	if _, err := src.Send(msg, 0); err != nil {
		t.Fatal(err)
	}
	var out *flit.Message
	for cycle := uint64(1); ; cycle++ {
		f := src.PopFlit(cycle)
		if f == nil {
			break
		}
		m, err := dst.Receive(f, cycle)
		if err != nil {
			t.Fatal(err)
		}
		if m != nil {
			out = m
		}
	}
	if out == nil {
		t.Fatal("message did not reassemble")
	}
	if out.PayloadBits != 512 {
		t.Errorf("payload = %d, want 512", out.PayloadBits)
	}
	// Only a message drawn from the pool is taken back by it.
	if pool.PutMessage(out); pool.GetMessage() != out {
		t.Error("reassembled message should come from the pool")
	}
}

// On cmesh4 one NIC serves the 2x2 block of endpoints behind its router: it
// accepts Send from, and Receive for, exactly those four and rejects the
// endpoints of other routers.
func TestNICConcentratedEndpoints(t *testing.T) {
	topo := mesh.TopoSpec{Kind: mesh.TopoCMesh, Conc: 4}.MustBuild(mesh.MustDim(4, 4))
	n, err := New(topo, node(1, 0), SchemeRegular, testLink(), &flit.Pool{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range []mesh.Node{node(2, 0), node(3, 0), node(2, 1), node(3, 1), node(1, 0), node(2, 2)} {
		want := topo.RouterOf(ep) == n.Node
		flow := flit.FlowID{Src: ep, Dst: node(0, 3)}
		if _, err := n.Send(&flit.Message{Flow: flow, PayloadBits: 48}, 0); (err == nil) != want {
			t.Errorf("Send from %v: error %v, want accepted=%v", ep, err, want)
		}
		f := &flit.Flit{Flow: flit.FlowID{Src: node(0, 3), Dst: ep}, Type: flit.HeadTail, PacketsInMsg: 1}
		if msg, err := n.Receive(f, 1); (err == nil) != want || (msg != nil) != want {
			t.Errorf("Receive for %v: message %v, error %v, want accepted=%v", ep, msg, err, want)
		}
	}
	if n.PendingFlits() != 4 {
		t.Errorf("%d flits queued, want one per block endpoint", n.PendingFlits())
	}
}
