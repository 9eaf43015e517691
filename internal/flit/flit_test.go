package flit

import (
	"math"
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
	fl := &Flit{Type: Head, Flow: FlowID{}, PacketID: 7, Seq: 0}
	if fl.String() == "" {
		t.Error("Flit.String empty")
	}
	m := &Message{ID: 1, Class: ClassReply, PayloadBits: 512}
	if m.String() == "" {
		t.Error("Message.String empty")
	}
	p := &Packet{ID: 3, PacketsInMsg: 1}
	if p.String() == "" {
		t.Error("Packet.String empty")
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
	if got := c.WaPOverhead(512); got != 0.25 {
		t.Errorf("WaP overhead for 512-bit payload = %v, want 0.25", got)
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
	if got := c.WaPOverhead(64); got != 0 {
		t.Errorf("WaP overhead for one-flit message = %v, want 0", got)
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

func TestPacketValidateSingleFlit(t *testing.T) {
	flow := FlowID{Src: mesh.Node{X: 0, Y: 0}, Dst: mesh.Node{X: 1, Y: 0}}
	p := &Packet{ID: 1, Flow: flow, PacketsInMsg: 1,
		Flits: []*Flit{{Type: HeadTail, Flow: flow, PacketID: 1, Seq: 0}}}
	if err := p.Validate(); err != nil {
		t.Errorf("valid single-flit packet rejected: %v", err)
	}
	p.Flits[0].Type = Head
	if err := p.Validate(); err == nil {
		t.Error("single Head flit without Tail should be invalid")
	}
}

func TestPacketValidateMultiFlit(t *testing.T) {
	flow := FlowID{Src: mesh.Node{X: 0, Y: 0}, Dst: mesh.Node{X: 1, Y: 1}}
	mk := func() *Packet {
		p := &Packet{ID: 9, Flow: flow, PacketsInMsg: 1}
		types := []Type{Head, Body, Body, Tail}
		for i, typ := range types {
			p.Flits = append(p.Flits, &Flit{Type: typ, Flow: flow, PacketID: 9, Seq: i})
		}
		return p
	}
	if err := mk().Validate(); err != nil {
		t.Errorf("valid 4-flit packet rejected: %v", err)
	}

	p := mk()
	p.Flits[0].Type = Body
	if err := p.Validate(); err == nil {
		t.Error("packet without head flit should be invalid")
	}
	p = mk()
	p.Flits[3].Type = Body
	if err := p.Validate(); err == nil {
		t.Error("packet without tail flit should be invalid")
	}
	p = mk()
	p.Flits[1].Type = Head
	if err := p.Validate(); err == nil {
		t.Error("packet with interior head flit should be invalid")
	}
	p = mk()
	p.Flits[2].Seq = 7
	if err := p.Validate(); err == nil {
		t.Error("packet with wrong flit sequence should be invalid")
	}
	p = mk()
	p.Flits[2].PacketID = 1234
	if err := p.Validate(); err == nil {
		t.Error("packet with foreign flit should be invalid")
	}
	p = mk()
	p.Flits[1].Flow = FlowID{Src: mesh.Node{X: 5, Y: 5}, Dst: mesh.Node{X: 0, Y: 0}}
	if err := p.Validate(); err == nil {
		t.Error("packet with mismatched flow should be invalid")
	}
	p = &Packet{ID: 2, Flow: flow}
	if err := p.Validate(); err == nil {
		t.Error("empty packet should be invalid")
	}
}

func TestPacketSize(t *testing.T) {
	p := &Packet{Flits: make([]*Flit, 3)}
	if p.Size() != 3 {
		t.Errorf("Size = %d, want 3", p.Size())
	}
}

// Pool ownership rules: pool-born objects recycle (and come back zeroed),
// caller-owned objects are ignored by Put.
func TestPoolRecycling(t *testing.T) {
	var p Pool
	m := p.GetMessage()
	if !m.Pooled() {
		t.Fatal("pool message must report Pooled")
	}
	m.ID = 42
	m.Flow = FlowID{Src: mesh.Node{X: 1}, Dst: mesh.Node{Y: 1}}
	p.PutMessage(m)
	m2 := p.GetMessage()
	if m2 != m {
		t.Error("pool should hand back the recycled message")
	}
	if m2.ID != 0 || m2.Flow != (FlowID{}) || !m2.Pooled() {
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

	f := p.GetFlit()
	if !f.Pooled() {
		t.Fatal("pool flit must report Pooled")
	}
	f.Seq = 3
	p.PutFlit(f)
	f2 := p.GetFlit()
	if f2 != f || f2.Seq != 0 || !f2.Pooled() {
		t.Errorf("flit not recycled/zeroed: %+v", f2)
	}
	p.PutFlit(&Flit{Seq: 9}) // ignored
	if got := p.GetFlit(); got.Seq != 0 {
		t.Error("caller-owned flit must not enter the pool")
	}
	p.PutMessage(nil) // must not panic
	p.PutFlit(nil)
}
