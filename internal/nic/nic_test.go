package nic

import (
	"testing"
	"testing/quick"

	"repro/internal/flit"
	"repro/internal/mesh"
)

func testLink() flit.LinkConfig { return flit.DefaultLinkConfig() }

func node(x, y int) mesh.Node { return mesh.Node{X: x, Y: y} }

func TestSchemeString(t *testing.T) {
	if SchemeRegular.String() != "regular" || SchemeWaP.String() != "WaP" {
		t.Error("scheme names wrong")
	}
	if Scheme(7).String() != "Scheme(7)" {
		t.Error("unknown scheme string")
	}
}

func TestNewPacketizerValidation(t *testing.T) {
	if _, err := NewPacketizer(Scheme(9), testLink()); err == nil {
		t.Error("unknown scheme should fail")
	}
	bad := testLink()
	bad.WidthBits = 0
	if _, err := NewPacketizer(SchemeRegular, bad); err == nil {
		t.Error("invalid link config should fail")
	}
	if _, err := NewPacketizer(SchemeWaP, testLink()); err != nil {
		t.Errorf("valid packetizer rejected: %v", err)
	}
}

func TestRegularPacketizeCacheLine(t *testing.T) {
	p, _ := NewPacketizer(SchemeRegular, testLink())
	msg := &flit.Message{ID: 5, Flow: flit.FlowID{Src: node(0, 0), Dst: node(3, 3)}, PayloadBits: 512, Class: flit.ClassReply}
	pkts := p.Packetize(msg, 100)
	if len(pkts) != 1 {
		t.Fatalf("regular packetization produced %d packets, want 1", len(pkts))
	}
	if pkts[0].Size() != 4 {
		t.Errorf("cache-line packet has %d flits, want 4", pkts[0].Size())
	}
	if err := pkts[0].Validate(); err != nil {
		t.Errorf("packet invalid: %v", err)
	}
	if pkts[0].ID != 100 || pkts[0].MsgID != 5 {
		t.Errorf("packet ids wrong: %+v", pkts[0])
	}
	if p.FlitsForMessage(512) != 4 {
		t.Errorf("FlitsForMessage(512) = %d, want 4", p.FlitsForMessage(512))
	}
}

func TestWaPPacketizeCacheLine(t *testing.T) {
	p, _ := NewPacketizer(SchemeWaP, testLink())
	msg := &flit.Message{ID: 9, Flow: flit.FlowID{Src: node(1, 1), Dst: node(0, 0)}, PayloadBits: 512, Class: flit.ClassReply}
	pkts := p.Packetize(msg, 1)
	// 512 payload bits over packets carrying 116 payload bits each -> 5
	// single-flit packets (the paper's 25% overhead example).
	if len(pkts) != 5 {
		t.Fatalf("WaP produced %d packets, want 5", len(pkts))
	}
	total := 0
	payload := 0
	for i, pkt := range pkts {
		if err := pkt.Validate(); err != nil {
			t.Errorf("packet %d invalid: %v", i, err)
		}
		if pkt.Size() != 1 {
			t.Errorf("WaP packet %d has %d flits, want 1", i, pkt.Size())
		}
		if pkt.PacketIndex != i || pkt.PacketsInMsg != 5 {
			t.Errorf("packet %d index/total = %d/%d", i, pkt.PacketIndex, pkt.PacketsInMsg)
		}
		total += pkt.Size()
		for _, f := range pkt.Flits {
			payload += f.PayloadBits
		}
	}
	if total != 5 {
		t.Errorf("total WaP flits = %d, want 5", total)
	}
	if payload != 512 {
		t.Errorf("reassembled payload = %d bits, want 512", payload)
	}
	if p.FlitsForMessage(512) != 5 {
		t.Errorf("FlitsForMessage(512) = %d, want 5", p.FlitsForMessage(512))
	}
}

func TestRegularPacketizeSplitsAboveMaxSize(t *testing.T) {
	link := testLink() // MaxPacketFlits = 4
	p, _ := NewPacketizer(SchemeRegular, link)
	// Two cache lines worth of payload does not fit the 4-flit maximum
	// packet, so regular packetization must emit more than one packet, each
	// within the limit.
	msg := &flit.Message{ID: 2, Flow: flit.FlowID{Src: node(0, 0), Dst: node(1, 0)}, PayloadBits: 1024}
	pkts := p.Packetize(msg, 1)
	if len(pkts) < 2 {
		t.Fatalf("oversized message produced %d packets, want >= 2", len(pkts))
	}
	for _, pkt := range pkts {
		if pkt.Size() > link.MaxPacketFlits {
			t.Errorf("packet of %d flits exceeds the maximum of %d", pkt.Size(), link.MaxPacketFlits)
		}
		if err := pkt.Validate(); err != nil {
			t.Errorf("packet invalid: %v", err)
		}
	}
}

func TestRegularUnlimitedPacketSize(t *testing.T) {
	link := testLink()
	link.MaxPacketFlits = 0 // protocols such as AMBA impose no limit
	p, _ := NewPacketizer(SchemeRegular, link)
	msg := &flit.Message{ID: 3, Flow: flit.FlowID{Src: node(0, 0), Dst: node(1, 0)}, PayloadBits: 4096}
	pkts := p.Packetize(msg, 1)
	if len(pkts) != 1 {
		t.Fatalf("unlimited regular packetization produced %d packets, want 1", len(pkts))
	}
	want := (4096 + 16 + 131) / 132
	if pkts[0].Size() != want {
		t.Errorf("packet size = %d flits, want %d", pkts[0].Size(), want)
	}
	if p.FlitsForMessage(4096) != want {
		t.Errorf("FlitsForMessage = %d, want %d", p.FlitsForMessage(4096), want)
	}
}

func TestPacketizeOneFlitRequestIdenticalUnderBothSchemes(t *testing.T) {
	for _, scheme := range []Scheme{SchemeRegular, SchemeWaP} {
		p, _ := NewPacketizer(scheme, testLink())
		msg := &flit.Message{ID: 4, Flow: flit.FlowID{Src: node(0, 0), Dst: node(7, 7)}, PayloadBits: 48, Class: flit.ClassRequest}
		pkts := p.Packetize(msg, 1)
		if len(pkts) != 1 || pkts[0].Size() != 1 {
			t.Errorf("%v: one-flit request became %d packets", scheme, len(pkts))
		}
		if pkts[0].Flits[0].Type != flit.HeadTail {
			t.Errorf("%v: single flit should be HEAD+TAIL", scheme)
		}
	}
}

// Property: for any payload size, both schemes produce well-formed packets
// whose flits carry the full payload, and WaP never produces a packet larger
// than the minimum packet size.
func TestPacketizeProperty(t *testing.T) {
	link := testLink()
	reg, _ := NewPacketizer(SchemeRegular, link)
	wap, _ := NewPacketizer(SchemeWaP, link)
	f := func(raw uint16) bool {
		payload := int(raw)
		msg := &flit.Message{ID: 77, Flow: flit.FlowID{Src: node(0, 0), Dst: node(3, 2)}, PayloadBits: payload}
		for _, p := range []*Packetizer{reg, wap} {
			pkts := p.Packetize(msg, 1)
			if len(pkts) == 0 {
				return false
			}
			gotPayload := 0
			gotFlits := 0
			for _, pkt := range pkts {
				if pkt.Validate() != nil {
					return false
				}
				if pkt.PacketsInMsg != len(pkts) {
					return false
				}
				gotFlits += pkt.Size()
				for _, fl := range pkt.Flits {
					gotPayload += fl.PayloadBits
				}
				if p.Scheme == SchemeWaP && pkt.Size() > link.MinPacketFlits {
					return false
				}
				if p.Scheme == SchemeRegular && link.MaxPacketFlits > 0 && pkt.Size() > link.MaxPacketFlits {
					return false
				}
			}
			if gotPayload != payload {
				return false
			}
			if gotFlits != p.FlitsForMessage(payload) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNICSendValidation(t *testing.T) {
	n := MustNew(node(1, 1), SchemeRegular, testLink())
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
	if n.SentMessages() != 1 {
		t.Error("sent message counter not updated")
	}
}

func TestNICInjectionQueue(t *testing.T) {
	n := MustNew(node(0, 0), SchemeWaP, testLink())
	if n.PeekFlit() != nil || n.PopFlit(0) != nil {
		t.Error("empty queue should return nil")
	}
	msg := &flit.Message{Flow: flit.FlowID{Src: node(0, 0), Dst: node(1, 0)}, PayloadBits: 512}
	if _, err := n.Send(msg, 5); err != nil {
		t.Fatal(err)
	}
	if n.PendingFlits() != 5 {
		t.Fatalf("pending flits = %d, want 5", n.PendingFlits())
	}
	first := n.PeekFlit()
	popped := n.PopFlit(7)
	if first != popped {
		t.Error("Peek and Pop disagree")
	}
	if popped.InjectedAt != 7 {
		t.Errorf("InjectedAt = %d, want 7", popped.InjectedAt)
	}
	if popped.CreatedAt != 5 {
		t.Errorf("CreatedAt = %d, want 5", popped.CreatedAt)
	}
	if n.PendingFlits() != 4 {
		t.Errorf("pending flits after pop = %d", n.PendingFlits())
	}
	if n.InjectedFlits() != 1 {
		t.Errorf("injected counter = %d", n.InjectedFlits())
	}
}

// A backlog that grows past saturation must not be recopied on every Send:
// compaction waits until the consumed head is as long as the live queue, so
// it is amortised O(1) per flit, the slice stays within twice the live queue
// (plus the message being appended), and the flits still leave in FIFO order.
func TestNICBackloggedQueueCompactsAmortised(t *testing.T) {
	n := MustNew(node(0, 0), SchemeWaP, testLink())
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
	n := MustNew(node(2, 2), SchemeRegular, testLink())
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
			src := MustNew(node(0, 0), scheme, testLink())
			dst := MustNew(node(3, 2), scheme, testLink())
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
			deliveries := dst.Delivered()
			if len(deliveries) != 1 {
				t.Fatalf("delivered = %d messages", len(deliveries))
			}
			d := deliveries[0]
			if d.Latency != d.Msg.DeliveredAt-100 {
				t.Errorf("latency = %d", d.Latency)
			}
			if d.NetworkLatency > d.Latency {
				t.Errorf("network latency %d exceeds total latency %d", d.NetworkLatency, d.Latency)
			}
			if drained := dst.DrainDelivered(); len(drained) != 1 || len(dst.Delivered()) != 0 {
				t.Error("DrainDelivered did not clear the list")
			}
			if dst.EjectedFlits() == 0 {
				t.Error("ejected flit counter not updated")
			}
		}
	}
}

// A message that arrives whole in one flit is delivered straight from the
// flit: it never enters the reassembly table and leaves no record behind,
// while a multi-flit message does both.
func TestNICOneFlitMessageSkipsReassembly(t *testing.T) {
	src := MustNew(node(0, 0), SchemeRegular, testLink())
	dst := MustNew(node(3, 2), SchemeRegular, testLink())
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
	dst := MustNew(node(0, 0), SchemeWaP, link)
	a := MustNew(node(1, 0), SchemeWaP, link)
	b := MustNew(node(2, 0), SchemeWaP, link)
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
	a := MustNew(node(0, 1), SchemeRegular, testLink())
	b := MustNew(node(1, 0), SchemeRegular, testLink())
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
// table, history, statistics and identifier counters, so a reused NIC
// assigns the same message ids a fresh one would.
func TestNICReset(t *testing.T) {
	n := MustNew(mesh.Node{X: 1, Y: 1}, SchemeRegular, flit.DefaultLinkConfig())
	msg := &flit.Message{Flow: flit.FlowID{Src: mesh.Node{X: 1, Y: 1}, Dst: mesh.Node{X: 0, Y: 0}}, PayloadBits: 512}
	firstID, err := n.Send(msg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n.PendingFlits() == 0 || n.SentMessages() != 1 {
		t.Fatal("send did not enqueue")
	}
	n.PopFlit(4)
	n.Reset()
	if n.PendingFlits() != 0 || n.PendingReassemblies() != 0 || n.SentMessages() != 0 ||
		n.InjectedFlits() != 0 || n.EjectedFlits() != 0 || len(n.Delivered()) != 0 {
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

// A NIC attached to a pool recycles absorbed flits and reassembled
// messages; the delivered history is disabled (the owner recycles messages
// right after its delivery callback, so retaining them would dangle).
func TestNICPooledReceive(t *testing.T) {
	var pool flit.Pool
	src := MustNew(mesh.Node{X: 1, Y: 0}, SchemeRegular, flit.DefaultLinkConfig())
	dst := MustNew(mesh.Node{X: 0, Y: 0}, SchemeRegular, flit.DefaultLinkConfig())
	src.AttachPool(&pool)
	dst.AttachPool(&pool)
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
	if !out.Pooled() {
		t.Error("reassembled message should come from the pool")
	}
	if out.PayloadBits != 512 {
		t.Errorf("payload = %d, want 512", out.PayloadBits)
	}
	if len(dst.Delivered()) != 0 {
		t.Error("pooled NIC must not retain delivered messages")
	}
}
