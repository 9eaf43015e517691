package memctrl

import (
	"testing"

	"repro/internal/flit"
	"repro/internal/mesh"
)

func node(x, y int) mesh.Node { return mesh.Node{X: x, Y: y} }

// MustNew is New for constant arguments; it panics on error.
func MustNew(node mesh.Node, cfg Config) *Controller {
	c, err := New(node, cfg)
	if err != nil {
		panic(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.ServiceLatency = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative latency should fail")
	}
	bad = DefaultConfig()
	bad.ReplyPayloadBits = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero reply payload should fail")
	}
	bad = DefaultConfig()
	bad.AckPayloadBits = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero ack payload should fail")
	}
	if _, err := New(node(0, 0), bad); err == nil {
		t.Error("New should reject invalid config")
	}
}

func TestAcceptValidation(t *testing.T) {
	c := MustNew(node(0, 0), DefaultConfig())
	if err := c.Accept(nil, 0); err == nil {
		t.Error("nil message should fail")
	}
	if err := c.Accept(&flit.Message{Flow: flit.FlowID{Src: node(1, 1), Dst: node(2, 2)}, Class: flit.ClassRequest}, 0); err == nil {
		t.Error("misdelivered message should fail")
	}
	if err := c.Accept(&flit.Message{Flow: flit.FlowID{Src: node(1, 1), Dst: node(0, 0)}, Class: flit.ClassReply}, 0); err == nil {
		t.Error("reply class should be rejected by the controller")
	}
}

func TestRequestGeneratesCacheLineReply(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNew(node(0, 0), cfg)
	req := &flit.Message{Flow: flit.FlowID{Src: node(3, 4), Dst: node(0, 0)}, Class: flit.ClassRequest, PayloadBits: 48}
	if err := c.Accept(req, 100); err != nil {
		t.Fatal(err)
	}
	if c.Pending() != 1 {
		t.Errorf("pending = %d", c.Pending())
	}
	if got := c.Ready(100 + uint64(cfg.ServiceLatency) - 1); len(got) != 0 {
		t.Errorf("reply ready too early: %v", got)
	}
	replies := c.Ready(100 + uint64(cfg.ServiceLatency))
	if len(replies) != 1 {
		t.Fatalf("replies = %d, want 1", len(replies))
	}
	r := replies[0]
	if r.Flow.Src != node(0, 0) || r.Flow.Dst != node(3, 4) {
		t.Errorf("reply flow = %v", r.Flow)
	}
	if r.Class != flit.ClassReply || r.PayloadBits != cfg.ReplyPayloadBits {
		t.Errorf("reply = %+v", r)
	}
	if c.Pending() != 0 || c.Served() != 1 {
		t.Errorf("pending/served = %d/%d", c.Pending(), c.Served())
	}
}

func TestEvictionGeneratesAck(t *testing.T) {
	cfg := DefaultConfig()
	c := MustNew(node(0, 0), cfg)
	ev := &flit.Message{Flow: flit.FlowID{Src: node(1, 1), Dst: node(0, 0)}, Class: flit.ClassEviction, PayloadBits: 512}
	if err := c.Accept(ev, 0); err != nil {
		t.Fatal(err)
	}
	replies := c.Ready(uint64(cfg.ServiceLatency))
	if len(replies) != 1 {
		t.Fatalf("replies = %d", len(replies))
	}
	if replies[0].Class != flit.ClassAck || replies[0].PayloadBits != cfg.AckPayloadBits {
		t.Errorf("ack = %+v", replies[0])
	}
}

// The controller is a single-channel device: back-to-back requests are
// serviced sequentially, each adding a full service latency.
func TestSequentialService(t *testing.T) {
	cfg := Config{ServiceLatency: 10, ReplyPayloadBits: 512, AckPayloadBits: 16}
	c := MustNew(node(0, 0), cfg)
	for i := 0; i < 3; i++ {
		req := &flit.Message{Flow: flit.FlowID{Src: node(1, 0), Dst: node(0, 0)}, Class: flit.ClassRequest}
		if err := c.Accept(req, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(c.Ready(10)); got != 1 {
		t.Errorf("at cycle 10: %d replies, want 1", got)
	}
	if got := len(c.Ready(19)); got != 0 {
		t.Errorf("at cycle 19: %d extra replies, want 0", got)
	}
	if got := len(c.Ready(30)); got != 2 {
		t.Errorf("at cycle 30: %d replies, want 2", got)
	}
	if c.Served() != 3 {
		t.Errorf("served = %d", c.Served())
	}
}

func TestZeroLatencyController(t *testing.T) {
	cfg := Config{ServiceLatency: 0, ReplyPayloadBits: 512, AckPayloadBits: 16}
	c := MustNew(node(2, 2), cfg)
	req := &flit.Message{Flow: flit.FlowID{Src: node(0, 0), Dst: node(2, 2)}, Class: flit.ClassRequest}
	if err := c.Accept(req, 7); err != nil {
		t.Fatal(err)
	}
	if len(c.Ready(7)) != 1 {
		t.Error("zero-latency controller should reply immediately")
	}
}
