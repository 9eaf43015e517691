package flit

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mesh"
)

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		Head:     "HEAD",
		Body:     "BODY",
		Tail:     "TAIL",
		HeadTail: "HEAD+TAIL",
	}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
	if Type(9).String() != "Type(9)" {
		t.Error("unknown type string")
	}
}

func TestTypePredicates(t *testing.T) {
	if !Head.IsHead() || !HeadTail.IsHead() {
		t.Error("Head and HeadTail must report IsHead")
	}
	if Body.IsHead() || Tail.IsHead() {
		t.Error("Body/Tail must not report IsHead")
	}
	if !Tail.IsTail() || !HeadTail.IsTail() {
		t.Error("Tail and HeadTail must report IsTail")
	}
	if Head.IsTail() || Body.IsTail() {
		t.Error("Head/Body must not report IsTail")
	}
}

func TestMessageClassString(t *testing.T) {
	cases := map[MessageClass]string{
		ClassRequest:  "request",
		ClassReply:    "reply",
		ClassEviction: "eviction",
		ClassAck:      "ack",
		ClassData:     "data",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("class %d = %q, want %q", c, got, want)
		}
	}
	if MessageClass(42).String() != "MessageClass(42)" {
		t.Error("unknown class string")
	}
}

func TestFlowIDString(t *testing.T) {
	f := FlowID{Src: mesh.Node{X: 0, Y: 1}, Dst: mesh.Node{X: 2, Y: 3}}
	if got := f.String(); got != "(0,1)->(2,3)" {
		t.Errorf("FlowID.String() = %q", got)
	}
}

func TestStringers(t *testing.T) {
	if got := NewWord(Head, mesh.Node{X: 2, Y: 1}, 7).String(); got != "flit{HEAD to (2,1) rec=7}" {
		t.Errorf("Word.String() = %q", got)
	}
	m := &Message{ID: 1, Class: ClassReply, PayloadBits: 512}
	if m.String() == "" {
		t.Error("Message.String empty")
	}
}

func TestDefaultLinkConfig(t *testing.T) {
	c := DefaultLinkConfig()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if c.WidthBits != 132 || c.ControlBitsPerPacket != 16 {
		t.Errorf("unexpected default config %+v", c)
	}
}

func TestLinkConfigValidate(t *testing.T) {
	bad := []LinkConfig{
		{WidthBits: 0, ControlBitsPerPacket: 16, MinPacketFlits: 1},
		{WidthBits: 132, ControlBitsPerPacket: -1, MinPacketFlits: 1},
		{WidthBits: 16, ControlBitsPerPacket: 16, MinPacketFlits: 1},
		{WidthBits: 132, ControlBitsPerPacket: 16, MinPacketFlits: 0},
		{WidthBits: 132, ControlBitsPerPacket: 16, MinPacketFlits: 2, MaxPacketFlits: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d (%+v) should be invalid", i, c)
		}
	}
}

// The paper's platform: a 64-byte cache line (512 bits) plus 16 control bits
// fits in 4 flits of 132 bits with regular packetization and needs 5 flits
// (a 25% overhead) when sliced into one-flit WaP packets.
func TestPaperCacheLineSizing(t *testing.T) {
	c := DefaultLinkConfig()
	if got := c.FlitsForPayload(512); got != 4 {
		t.Errorf("regular flits for 512-bit payload = %d, want 4", got)
	}
	flits, packets := c.WaPFlitsForPayload(512)
	if flits != 5 || packets != 5 {
		t.Errorf("WaP flits,packets for 512-bit payload = %d,%d, want 5,5", flits, packets)
	}
}

func TestOneFlitRequestSizing(t *testing.T) {
	c := DefaultLinkConfig()
	// A load request carries an address (< 116 payload bits), so it is a
	// single flit with either scheme and WaP adds no overhead.
	if got := c.FlitsForPayload(64); got != 1 {
		t.Errorf("regular flits for 64-bit payload = %d, want 1", got)
	}
	flits, packets := c.WaPFlitsForPayload(64)
	if flits != 1 || packets != 1 {
		t.Errorf("WaP flits,packets for 64-bit payload = %d,%d, want 1,1", flits, packets)
	}
}

func TestZeroAndNegativePayload(t *testing.T) {
	c := DefaultLinkConfig()
	if got := c.FlitsForPayload(0); got != 1 {
		t.Errorf("flits for empty payload = %d, want 1", got)
	}
	if got := c.FlitsForPayload(-10); got != 1 {
		t.Errorf("flits for negative payload = %d, want 1", got)
	}
	flits, packets := c.WaPFlitsForPayload(0)
	if flits != 1 || packets != 1 {
		t.Errorf("WaP empty payload = %d,%d, want 1,1", flits, packets)
	}
}

// TestHugePayloadNeverWraps: near MaxInt, payload + control bits (and payload
// + per-packet capacity) used to wrap negative and report the one-flit minimum.
func TestHugePayloadNeverWraps(t *testing.T) {
	c := DefaultLinkConfig()
	if got, want := c.FlitsForPayload(math.MaxInt), math.MaxInt/132+1; got != want {
		t.Errorf("flits for a MaxInt payload = %d, want %d", got, want)
	}
	if _, got := c.WaPFlitsForPayload(math.MaxInt); got != math.MaxInt/116+1 {
		t.Errorf("WaP packets for a MaxInt payload = %d, want %d", got, math.MaxInt/116+1)
	}
	c = LinkConfig{WidthBits: 1, MinPacketFlits: 2} // packets * 2 exceeds MaxInt
	if got, _ := c.WaPFlitsForPayload(math.MaxInt); got != math.MaxInt {
		t.Errorf("WaP flits of 2-flit packets for a MaxInt payload = %d, want saturation at MaxInt", got)
	}
}

func TestPayloadBitsPerMinPacket(t *testing.T) {
	c := DefaultLinkConfig()
	if got := c.PayloadBitsPerMinPacket(); got != 116 {
		t.Errorf("payload bits per min packet = %d, want 116", got)
	}
	c.MinPacketFlits = 2
	if got := c.PayloadBitsPerMinPacket(); got != 2*132-16 {
		t.Errorf("payload bits per 2-flit packet = %d, want %d", got, 2*132-16)
	}
}

// Property: WaP never needs fewer flits than regular packetization, and the
// two agree whenever the payload fits in a single minimum-size packet.
func TestWaPOverheadProperty(t *testing.T) {
	c := DefaultLinkConfig()
	f := func(raw uint16) bool {
		payload := int(raw) // 0..65535 bits
		regular := c.FlitsForPayload(payload)
		wap, packets := c.WaPFlitsForPayload(payload)
		if wap < regular {
			return false
		}
		if packets < 1 || wap != packets*c.MinPacketFlits {
			return false
		}
		if payload <= c.PayloadBitsPerMinPacket() && wap != regular {
			return false
		}
		// Total payload capacity of the WaP packets must cover the payload.
		if packets*c.PayloadBitsPerMinPacket() < payload {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// A Word keeps each field apart at the extremes of its range: every type,
// router coordinates 0 and MaxGridSide-1, record indices 0 and
// MaxInFlight-1.
func TestWordFields(t *testing.T) {
	for _, typ := range []Type{Head, Body, Tail, HeadTail} {
		for _, x := range []int{0, 1, MaxGridSide - 1} {
			for _, y := range []int{0, 5, MaxGridSide - 1} {
				for _, rec := range []uint32{0, 1, MaxInFlight - 1} {
					w := NewWord(typ, mesh.Node{X: x, Y: y}, rec)
					if w.Type() != typ || w.Dst() != (mesh.Node{X: x, Y: y}) || w.Record() != rec {
						t.Fatalf("NewWord(%v, (%d,%d), %d) reads back %v %v %d", typ, x, y, rec, w.Type(), w.Dst(), w.Record())
					}
				}
			}
		}
	}
}

// Pool ownership rules: pool-born messages recycle (and come back zeroed),
// caller-owned ones are ignored by PutMessage; records are reused once
// delivered, and a delivered message is a pooled copy of its record.
func TestPoolRecycling(t *testing.T) {
	var p Pool
	m := p.GetMessage()
	if !m.pooled {
		t.Fatal("pool message must be marked pooled")
	}
	m.ID = 42
	m.Flow = FlowID{Src: mesh.Node{X: 1}, Dst: mesh.Node{Y: 1}}
	p.PutMessage(m)
	m2 := p.GetMessage()
	if m2 != m {
		t.Error("pool should hand back the recycled message")
	}
	if m2.ID != 0 || m2.Flow != (FlowID{}) || !m2.pooled {
		t.Errorf("recycled message not zeroed: %+v", m2)
	}

	own := &Message{ID: 7}
	p.PutMessage(own)
	if own.ID != 7 {
		t.Error("Put must not touch caller-owned messages")
	}
	if got := p.GetMessage(); got == own {
		t.Error("caller-owned message must not enter the pool")
	}
	p.PutMessage(nil) // must not panic

	i, r := p.OpenRecord()
	r.Msg = Message{ID: 9, PayloadBits: 512, InjectedAt: 3}
	r.Tails = 5
	if p.Record(i) != r || p.Record(i+1) != nil {
		t.Fatal("Record must return the open record and nil past the slab")
	}
	d := p.Deliver(i, 11)
	if !d.pooled || d.ID != 9 || d.PayloadBits != 512 || d.InjectedAt != 3 || d.DeliveredAt != 11 {
		t.Errorf("delivered %+v", d)
	}
	if p.Record(i).Tails != 0 {
		t.Error("a delivered record must be closed")
	}
	if j, r := p.OpenRecord(); j != i || *r != (InFlight{}) {
		t.Errorf("reopened record %d (%+v), want the closed record %d zeroed", j, *r, i)
	}
	p.CloseRecords()
	if j, _ := p.OpenRecord(); j != 0 {
		t.Errorf("after CloseRecords the first record is %d, want 0", j)
	}
}

// Past MaxInFlight open records OpenRecord panics with a clear text instead of
// handing out an index a Word would wrap (the limit is lowered to 3 here).
func TestRecordLimitPanics(t *testing.T) {
	defer func(old int) { recordLimit = old }(recordLimit)
	recordLimit = 3
	var p Pool
	for range 3 {
		p.OpenRecord()
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "2^30 messages in flight") {
			t.Errorf("panic %v, want the in-flight limit", r)
		}
	}()
	p.OpenRecord()
}

// A Queue keeps FIFO order across block boundaries and returns every block
// it has emptied: a queue that has drained holds none.
func TestQueueBlocks(t *testing.T) {
	var p Pool
	var q Queue
	next, want := uint64(0), uint64(0)
	for round := 0; round < 3; round++ {
		for i := 0; i < 3*blockLen+5; i++ {
			q.Push(&p).ID = next
			next++
			if i%3 == 0 { // pop one in three: the queue grows across blocks
				if q.Front().ID != want {
					t.Fatalf("front %d, want %d", q.Front().ID, want)
				}
				q.Pop(&p)
				want++
			}
		}
		for q.Len() > 0 {
			if q.Front().ID != want {
				t.Fatalf("front %d, want %d", q.Front().ID, want)
			}
			q.Pop(&p)
			want++
		}
		if q.head != nil || q.tail != nil {
			t.Fatal("an empty queue must hold no block")
		}
	}
	free := 0
	for b := p.blocks; b != nil; b = b.next {
		free++
	}
	if free < 3 {
		t.Errorf("%d free blocks after draining, want the 3 the queue grew to", free)
	}
}
