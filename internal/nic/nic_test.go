package nic

import (
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"

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

// packetize sends msg through a fresh NIC at its source node, injects every
// flit and ejects it at a fresh NIC at its destination (the two share a
// pool). It returns the flits grouped into packets in injection order and
// the delivered message. Every packet is checked to be a well-formed
// wormhole unit — HEAD, BODY..., TAIL (HEAD+TAIL alone) — and every flit to
// name the destination router and the message's one record; the message is
// delivered by its last flit and by no other.
func packetize(t *testing.T, scheme Scheme, link flit.LinkConfig, msg *flit.Message) ([][]flit.Word, *flit.Message) {
	t.Helper()
	pool := &flit.Pool{}
	src, err := New(plain, msg.Flow.Src, scheme, link, pool)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := New(plain, msg.Flow.Dst, scheme, link, pool)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Send(msg, 0); err != nil {
		t.Fatal(err)
	}
	var pkts [][]flit.Word
	var got *flit.Message
	for w, ok := src.PopFlit(1); ok; w, ok = src.PopFlit(1) {
		if got != nil {
			t.Fatalf("%v: flit %v after the message was delivered", scheme, w)
		}
		if w.Type().IsHead() {
			pkts = append(pkts, nil)
		}
		if len(pkts) == 0 {
			t.Fatalf("%v: flit stream starts with %v", scheme, w)
		}
		pkts[len(pkts)-1] = append(pkts[len(pkts)-1], w)
		if w.Dst() != msg.Flow.Dst || w.Record() != pkts[0][0].Record() {
			t.Errorf("%v: flit %v does not name router %v and record %d", scheme, w, msg.Flow.Dst, pkts[0][0].Record())
		}
		if got, err = dst.Receive(w, 2); err != nil {
			t.Fatal(err)
		}
	}
	if got == nil {
		t.Fatalf("%v: message never delivered", scheme)
	}
	for i, pkt := range pkts {
		for s, w := range pkt {
			want := flit.Body
			switch {
			case len(pkt) == 1:
				want = flit.HeadTail
			case s == 0:
				want = flit.Head
			case s == len(pkt)-1:
				want = flit.Tail
			}
			if w.Type() != want {
				t.Errorf("%v packet %d flit %d: %v, want %v", scheme, i, s, w.Type(), want)
			}
		}
	}
	if got.ID != msg.ID || got.Flow != msg.Flow || got.Class != msg.Class {
		t.Errorf("%v: delivered %v, sent %v", scheme, got, msg)
	}
	return pkts, got
}

// flitsOf counts the flits of the packets.
func flitsOf(pkts [][]flit.Word) (flits int) {
	for _, pkt := range pkts {
		flits += len(pkt)
	}
	return flits
}

func TestRegularPacketizeCacheLine(t *testing.T) {
	msg := &flit.Message{ID: 5, Flow: flit.FlowID{Src: node(0, 0), Dst: node(3, 3)}, PayloadBits: 512, Class: flit.ClassReply}
	pkts, _ := packetize(t, SchemeRegular, testLink(), msg)
	if len(pkts) != 1 {
		t.Fatalf("regular packetization produced %d packets, want 1", len(pkts))
	}
	if len(pkts[0]) != 4 {
		t.Errorf("cache-line packet has %d flits, want 4", len(pkts[0]))
	}
}

func TestWaPPacketizeCacheLine(t *testing.T) {
	msg := &flit.Message{ID: 9, Flow: flit.FlowID{Src: node(1, 1), Dst: node(0, 0)}, PayloadBits: 512, Class: flit.ClassReply}
	pkts, got := packetize(t, SchemeWaP, testLink(), msg)
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
	if total, payload := flitsOf(pkts), got.PayloadBits; total != 5 || payload != 512 {
		t.Errorf("WaP cache line = %d flits carrying %d bits, want 5 and 512", total, payload)
	}
}

func TestRegularPacketizeSplitsAboveMaxSize(t *testing.T) {
	link := testLink() // MaxPacketFlits = 4
	// Two cache lines worth of payload does not fit the 4-flit maximum
	// packet, so regular packetization must emit more than one packet, each
	// within the limit.
	msg := &flit.Message{ID: 2, Flow: flit.FlowID{Src: node(0, 0), Dst: node(1, 0)}, PayloadBits: 1024}
	pkts, _ := packetize(t, SchemeRegular, link, msg)
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
	pkts, _ := packetize(t, SchemeRegular, link, msg)
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
		pkts, _ := packetize(t, scheme, testLink(), msg)
		if len(pkts) != 1 || len(pkts[0]) != 1 {
			t.Fatalf("%v: one-flit request became %d packets", scheme, len(pkts))
		}
		if pkts[0][0].Type() != flit.HeadTail {
			t.Errorf("%v: single flit should be HEAD+TAIL", scheme)
		}
	}
}

// Property: for any payload size, both schemes produce well-formed packets
// that deliver the full payload; WaP never produces a packet larger than
// the minimum packet size and sends exactly the flits WaPFlitsForPayload
// accounts for; regular packetization fills every packet but the last to the
// maximum size.
func TestPacketizeProperty(t *testing.T) {
	link := testLink()
	f := func(raw uint16) bool {
		payload := int(raw)
		for _, scheme := range []Scheme{SchemeRegular, SchemeWaP} {
			msg := &flit.Message{ID: 77, Flow: flit.FlowID{Src: node(0, 0), Dst: node(3, 2)}, PayloadBits: payload}
			pkts, got := packetize(t, scheme, link, msg)
			if len(pkts) == 0 {
				return false
			}
			gotFlits := flitsOf(pkts)
			if got.PayloadBits != payload {
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
	if _, ok := n.PopFlit(0); ok {
		t.Error("empty queue should yield no flit")
	}
	msg := &flit.Message{Flow: flit.FlowID{Src: node(0, 0), Dst: node(1, 0)}, PayloadBits: 512}
	if _, err := n.Send(msg, 5); err != nil {
		t.Fatal(err)
	}
	if n.PendingMessages() != 1 {
		t.Fatalf("pending messages = %d, want 1", n.PendingMessages())
	}
	w, _ := n.PopFlit(7)
	r := n.pool.Record(w.Record())
	if r.Msg.InjectedAt != 7 || r.Msg.CreatedAt != 5 || r.Tails != 5 {
		t.Errorf("record after the first flit: injected %d, created %d, %d tails; want 7, 5, 5",
			r.Msg.InjectedAt, r.Msg.CreatedAt, r.Tails)
	}
	for i := 1; i < 5; i++ {
		if n.PendingMessages() != 1 {
			t.Fatalf("after %d of 5 flits: pending messages = %d, want 1", i, n.PendingMessages())
		}
		n.PopFlit(8)
	}
	if n.PendingMessages() != 0 || n.queue.Len() != 0 {
		t.Errorf("after the last flit: pending messages = %d", n.PendingMessages())
	}
}

// mallocsOf returns the heap allocations fn makes, counted after a
// collection and on one processor, as testing.AllocsPerRun counts them but
// over a single run: counted across every processor, runtime.MemStats.Mallocs
// also picks up allocations made elsewhere in the process while fn runs.
func mallocsOf(fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// A backlog that grows past saturation is one 40-byte entry per message in
// blocks of 32, never recopied: growing it to 1 600 messages allocates about
// one block per 32 of them, and the messages still leave in FIFO order, each
// cut into its flits as it is injected.
func TestNICBackloggedQueueCompactsAmortised(t *testing.T) {
	pool := &flit.Pool{}
	n, _ := New(plain, node(0, 0), SchemeWaP, testLink(), pool)
	dst, _ := New(plain, node(1, 0), SchemeWaP, testLink(), pool)
	const steps = 2000
	msg := &flit.Message{Flow: flit.FlowID{Src: node(0, 0), Dst: node(1, 0)}, PayloadBits: 512}
	flits, delivered := 0, uint64(0)
	pop := func(now uint64) {
		w, _ := n.PopFlit(now)
		flits++
		m, err := dst.Receive(w, now)
		if err != nil {
			t.Fatal(err)
		}
		if m != nil {
			if m.CreatedAt != delivered {
				t.Fatalf("message %d delivered is the one created at cycle %d", delivered, m.CreatedAt)
			}
			delivered++
			pool.PutMessage(m)
		}
	}
	mallocs := mallocsOf(func() {
		for i := 0; i < steps; i++ { // 5 flits in, 1 flit out: the backlog grows
			msg.ID = 0
			if _, err := n.Send(msg, uint64(i)); err != nil {
				t.Fatal(err)
			}
			pop(uint64(i))
		}
	})
	live := n.PendingMessages()
	if mallocs > uint64(live+31)/32+8 && !raceEnabled {
		t.Errorf("a backlog of %d messages took %d allocations, want about one per 32", live, mallocs)
	}
	for n.PendingMessages() > 0 {
		pop(steps)
	}
	if flits != 5*steps || delivered != steps {
		t.Fatalf("popped %d flits of %d messages, want %d and %d", flits, delivered, 5*steps, steps)
	}
}

func TestNICReceiveValidation(t *testing.T) {
	n := mustNew(node(2, 2), SchemeRegular, testLink())
	if _, err := n.Receive(flit.NewWord(flit.HeadTail, node(3, 3), 0), 0); err == nil {
		t.Error("flit for another router should fail")
	}
	if _, err := n.Receive(flit.NewWord(flit.HeadTail, node(2, 2), 0), 0); err == nil {
		t.Error("flit of no message in flight should fail")
	}
}

// End-to-end packetize/reassemble round trip: everything the source NIC
// sends, the destination NIC reassembles into an equivalent message,
// regardless of the scheme and the payload size.
func TestNICRoundTrip(t *testing.T) {
	for _, scheme := range []Scheme{SchemeRegular, SchemeWaP} {
		for _, payload := range []int{0, 48, 116, 117, 512, 1024, 5000} {
			pool := &flit.Pool{}
			src, _ := New(plain, node(0, 0), scheme, testLink(), pool)
			dst, _ := New(plain, node(3, 2), scheme, testLink(), pool)
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
			for src.PendingMessages() > 0 {
				w, _ := src.PopFlit(cycle)
				got, err := dst.Receive(w, cycle+3)
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

// A message that arrives whole in one flit is delivered by that flit and is
// never a partial reassembly. A 4-flit regular cache line and a 5-packet WaP
// one are partial from their first ejected flit until their last tail, and
// each delivery closes its record: the next message reuses it.
func TestNICOneFlitMessageSkipsReassembly(t *testing.T) {
	for _, scheme := range []Scheme{SchemeRegular, SchemeWaP} {
		pool := &flit.Pool{}
		src, _ := New(plain, node(0, 0), scheme, testLink(), pool)
		dst, _ := New(plain, node(3, 2), scheme, testLink(), pool)
		flow := flit.FlowID{Src: node(0, 0), Dst: node(3, 2)}
		receiveAll := func() (last *flit.Message, flits int, rec uint32) {
			for src.PendingMessages() > 0 {
				w, _ := src.PopFlit(7)
				msg, err := dst.Receive(w, 9)
				if err != nil {
					t.Fatal(err)
				}
				if want := 1; msg == nil && dst.PendingReassemblies() != want {
					t.Fatalf("%v: a partial message must count as %d pending reassembly, got %d", scheme, want, dst.PendingReassemblies())
				}
				last, rec = msg, w.Record()
				flits++
			}
			return last, flits, rec
		}
		id, err := src.Send(&flit.Message{Flow: flow, PayloadBits: 48, Class: flit.ClassRequest}, 5)
		if err != nil {
			t.Fatal(err)
		}
		msg, flits, first := receiveAll()
		if msg == nil || flits != 1 || msg.ID != id || msg.Flow != flow || msg.Class != flit.ClassRequest || msg.PayloadBits != 48 ||
			msg.CreatedAt != 5 || msg.InjectedAt != 7 || msg.DeliveredAt != 9 {
			t.Fatalf("%v: one-flit message delivered as %+v after %d flits", scheme, msg, flits)
		}
		if dst.PendingReassemblies() != 0 {
			t.Errorf("%v: one-flit message left %d pending reassemblies", scheme, dst.PendingReassemblies())
		}
		if _, err := src.Send(&flit.Message{Flow: flow, PayloadBits: 512}, 5); err != nil {
			t.Fatal(err)
		}
		msg, flits, rec := receiveAll()
		if want := map[Scheme]int{SchemeRegular: 4, SchemeWaP: 5}[scheme]; msg == nil || flits != want || msg.PayloadBits != 512 {
			t.Errorf("%v cache line: delivered %v after %d flits, want 512 bits after %d", scheme, msg, flits, want)
		}
		if dst.PendingReassemblies() != 0 || rec != first {
			t.Errorf("%v cache line: %d pending reassemblies, record %d (the one-flit message's was %d)",
				scheme, dst.PendingReassemblies(), rec, first)
		}
	}
}

// Two interleaved messages from different sources must be reassembled
// independently.
func TestNICInterleavedReassembly(t *testing.T) {
	link := testLink()
	pool := &flit.Pool{}
	dst, _ := New(plain, node(0, 0), SchemeWaP, link, pool)
	a, _ := New(plain, node(1, 0), SchemeWaP, link, pool)
	b, _ := New(plain, node(2, 0), SchemeWaP, link, pool)
	msgA := &flit.Message{Flow: flit.FlowID{Src: node(1, 0), Dst: node(0, 0)}, PayloadBits: 512}
	msgB := &flit.Message{Flow: flit.FlowID{Src: node(2, 0), Dst: node(0, 0)}, PayloadBits: 512}
	if _, err := a.Send(msgA, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Send(msgB, 0); err != nil {
		t.Fatal(err)
	}
	var completed []mesh.Node
	cycle := uint64(1)
	for a.PendingMessages() > 0 || b.PendingMessages() > 0 {
		for _, src := range []*NIC{a, b} {
			if w, ok := src.PopFlit(cycle); ok {
				if m, _ := dst.Receive(w, cycle); m != nil {
					completed = append(completed, m.Flow.Src)
				} else if dst.PendingReassemblies() == 0 {
					t.Fatal("two messages in progress, none pending")
				}
			}
		}
		cycle++
	}
	if len(completed) != 2 || completed[0] != node(1, 0) || completed[1] != node(2, 0) {
		t.Errorf("completed messages from %v, want (1,0) then (2,0)", completed)
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

// Reset must rewind a NIC to its just-constructed state: queue (its blocks
// back in the pool), packetization state, partial count and identifier
// counter, so a reused NIC assigns the same message ids a fresh one would
// and injects from the start of its next message.
func TestNICReset(t *testing.T) {
	pool := &flit.Pool{}
	n, _ := New(plain, node(1, 1), SchemeWaP, testLink(), pool)
	dst, _ := New(plain, node(0, 0), SchemeWaP, testLink(), pool)
	msg := &flit.Message{Flow: flit.FlowID{Src: node(1, 1), Dst: node(0, 0)}, PayloadBits: 512}
	firstID, err := n.Send(msg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n.PendingMessages() == 0 {
		t.Fatal("send did not enqueue")
	}
	w, _ := n.PopFlit(4)
	if _, err := dst.Receive(w, 5); err != nil || dst.PendingReassemblies() != 1 {
		t.Fatalf("first flit of five: error %v, %d pending", err, dst.PendingReassemblies())
	}
	n.Reset()
	dst.Reset()
	pool.CloseRecords()
	if n.PendingMessages() != 0 || dst.PendingReassemblies() != 0 || pool.Record(0) != nil {
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
	if w, _ := n.PopFlit(4); w.Type() != flit.HeadTail || w.Record() != 0 {
		t.Errorf("first flit after Reset is %v, want the new message's head in record 0", w)
	}
}

// NICs sharing one pool queue into its blocks, open its records and deliver
// messages drawn from it.
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
		w, ok := src.PopFlit(cycle)
		if !ok {
			break
		}
		m, err := dst.Receive(w, cycle)
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
// accepts Send from exactly those four, rejects the endpoints of other
// routers, and each message delivered keeps its own source endpoint. Receive
// accepts only flits bound for its router.
func TestNICConcentratedEndpoints(t *testing.T) {
	topo := mesh.TopoSpec{Kind: mesh.TopoCMesh, Conc: 4}.MustBuild(mesh.MustDim(4, 4))
	pool := &flit.Pool{}
	n, err := New(topo, node(1, 0), SchemeRegular, testLink(), pool)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := New(topo, node(0, 1), SchemeRegular, testLink(), pool)
	if err != nil {
		t.Fatal(err)
	}
	var accepted []mesh.Node
	for _, ep := range []mesh.Node{node(2, 0), node(3, 0), node(2, 1), node(3, 1), node(1, 0), node(2, 2)} {
		want := topo.RouterOf(ep) == n.Node
		flow := flit.FlowID{Src: ep, Dst: node(1, 3)}
		if _, err := n.Send(&flit.Message{Flow: flow, PayloadBits: 48}, 0); (err == nil) != want {
			t.Errorf("Send from %v: error %v, want accepted=%v", ep, err, want)
		}
		if want {
			accepted = append(accepted, ep)
		}
	}
	if n.PendingMessages() != 4 {
		t.Errorf("%d messages queued, want one per block endpoint", n.PendingMessages())
	}
	for i := 0; n.PendingMessages() > 0; i++ {
		w, _ := n.PopFlit(1)
		if w.Dst() != node(0, 1) {
			t.Fatalf("flit bound for router %v, want (0,1)", w.Dst())
		}
		if _, err := n.Receive(w, 2); err == nil {
			t.Error("Receive accepted a flit for another router")
		}
		msg, err := dst.Receive(w, 2)
		if err != nil || msg == nil || msg.Flow != (flit.FlowID{Src: accepted[i], Dst: node(1, 3)}) {
			t.Errorf("message %d delivered as %v (error %v), want flow %v->(1,3)", i, msg, err, accepted[i])
		}
	}
}

// TestQueuedMessageFootprint pins the two compact forms of a message: a
// queued message is one entry of at most 40 bytes and a router slot is one
// 8-byte word. Queuing 10 000 messages allocates at most one 32-entry block
// per 32 messages, and draining and refilling the queue allocates nothing.
func TestQueuedMessageFootprint(t *testing.T) {
	if size := unsafe.Sizeof(flit.Queued{}); size > 40 {
		t.Errorf("a queued message takes %d bytes, want at most 40", size)
	}
	if size := unsafe.Sizeof(flit.Word(0)); size != 8 {
		t.Errorf("a router slot takes %d bytes, want 8", size)
	}
	const msgs = 10_000
	var pool *flit.Pool
	var src, dst *NIC
	fresh := func() { // an empty queue on a pool with no block to recycle
		pool = &flit.Pool{}
		src, _ = New(plain, node(0, 0), SchemeWaP, testLink(), pool)
		dst, _ = New(plain, node(5, 3), SchemeWaP, testLink(), pool)
	}
	flow := flit.FlowID{Src: node(0, 0), Dst: node(5, 3)}
	msg := &flit.Message{Flow: flow, PayloadBits: 48}
	fill := func() {
		for i := 0; i < msgs; i++ {
			msg.ID = 0
			if _, err := src.Send(msg, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	drain := func() {
		for src.PendingMessages() > 0 {
			w, _ := src.PopFlit(1)
			m, err := dst.Receive(w, 2)
			if err != nil || m == nil {
				t.Fatalf("delivered %v, error %v", m, err)
			}
			pool.PutMessage(m)
		}
	}
	// AllocsPerRun counts on one processor, so nothing else in the process
	// allocates meanwhile. Its uncounted warm-up call builds the empty queue
	// on a fresh pool and collects, so no collection starts while its one
	// counted call fills the queue (one that did added five allocations), and
	// every block the fill takes is a new one.
	calls := 0
	queue := func() {
		if calls++; calls == 1 {
			fresh()
			runtime.GC()
			return
		}
		fill()
	}
	if mallocs, blocks := testing.AllocsPerRun(1, queue), (msgs+31)/32; mallocs > float64(blocks) && !raceEnabled {
		t.Errorf("queuing %d messages made %v allocations, want at most %d blocks", msgs, mallocs, blocks)
	}
	// A drained queue hands every block back: refilling it takes them all
	// again, and the record slab and the message free list are warm.
	fresh()
	fill()
	drain()
	fill()
	drain()
	if allocs := testing.AllocsPerRun(5, func() { fill(); drain() }); allocs != 0 && !raceEnabled {
		t.Errorf("draining and refilling the queue: %v allocations per run, want 0", allocs)
	}
}
