// Package memctrl models the memory controllers of the evaluation platform:
// a per-node controller with a FIFO request queue, a fixed service latency
// and a reply generator. Load and write-miss requests are answered with a
// cache-line reply; eviction (write-back) messages are answered with a
// one-flit acknowledgement.
package memctrl

import (
	"fmt"

	"repro/internal/flit"
	"repro/internal/mesh"
)

// Config holds the memory controller parameters.
type Config struct {
	// ServiceLatency is the fixed number of cycles between accepting a
	// request and producing its reply (DRAM access time as seen from the
	// NoC).
	ServiceLatency int
	// ReplyPayloadBits is the payload of a read reply (a cache line).
	ReplyPayloadBits int
	// AckPayloadBits is the payload of a write-back acknowledgement.
	AckPayloadBits int
}

// DefaultConfig returns the platform defaults: a 30-cycle memory latency,
// 512-bit cache-line replies, 16-bit acknowledgements.
func DefaultConfig() Config {
	return Config{ServiceLatency: 30, ReplyPayloadBits: 512, AckPayloadBits: 16}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.ServiceLatency < 0 {
		return fmt.Errorf("memctrl: service latency must be non-negative, got %d", c.ServiceLatency)
	}
	if c.ReplyPayloadBits <= 0 {
		return fmt.Errorf("memctrl: reply payload must be positive, got %d", c.ReplyPayloadBits)
	}
	if c.AckPayloadBits <= 0 {
		return fmt.Errorf("memctrl: ack payload must be positive, got %d", c.AckPayloadBits)
	}
	return nil
}

// pendingRequest is a request being serviced.
type pendingRequest struct {
	readyAt uint64
	reply   *flit.Message
}

// Controller is one memory controller attached to a mesh node.
type Controller struct {
	Node mesh.Node
	cfg  Config

	queue []pendingRequest

	served uint64
}

// New builds a memory controller at the given node.
func New(node mesh.Node, cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Controller{Node: node, cfg: cfg}, nil
}

// Accept hands a request message (delivered by the NoC to the controller's
// node) to the controller at cycle now. The reply becomes available
// ServiceLatency cycles later (plus queueing behind earlier requests: the
// controller services one request at a time). Messages that are not requests
// or evictions are rejected.
func (c *Controller) Accept(msg *flit.Message, now uint64) error {
	if msg == nil {
		return fmt.Errorf("memctrl %v: nil message", c.Node)
	}
	if msg.Flow.Dst != c.Node {
		return fmt.Errorf("memctrl %v: message addressed to %v", c.Node, msg.Flow.Dst)
	}
	var reply *flit.Message
	switch msg.Class {
	case flit.ClassRequest:
		reply = &flit.Message{
			Flow:        flit.FlowID{Src: c.Node, Dst: msg.Flow.Src},
			Class:       flit.ClassReply,
			PayloadBits: c.cfg.ReplyPayloadBits,
		}
	case flit.ClassEviction:
		reply = &flit.Message{
			Flow:        flit.FlowID{Src: c.Node, Dst: msg.Flow.Src},
			Class:       flit.ClassAck,
			PayloadBits: c.cfg.AckPayloadBits,
		}
	default:
		return fmt.Errorf("memctrl %v: unexpected message class %v", c.Node, msg.Class)
	}
	// The controller is a single-channel device: a request completes
	// ServiceLatency cycles after the later of its arrival and the previous
	// request's completion.
	start := now
	if n := len(c.queue); n > 0 && c.queue[n-1].readyAt > start {
		start = c.queue[n-1].readyAt
	}
	c.queue = append(c.queue, pendingRequest{
		readyAt: start + uint64(c.cfg.ServiceLatency),
		reply:   reply,
	})
	return nil
}

// Ready returns the replies whose service completed by cycle now and removes
// them from the queue, in completion order.
func (c *Controller) Ready(now uint64) []*flit.Message {
	var out []*flit.Message
	for len(c.queue) > 0 && c.queue[0].readyAt <= now {
		out = append(out, c.queue[0].reply)
		c.queue = c.queue[1:]
		c.served++
	}
	return out
}

// Pending returns the number of requests still being serviced.
func (c *Controller) Pending() int { return len(c.queue) }

// Served returns the number of requests fully serviced so far.
func (c *Controller) Served() uint64 { return c.served }
