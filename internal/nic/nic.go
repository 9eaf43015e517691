// Package nic models the network interface controller that connects a
// processing/memory element (PME) to its mesh router. The NIC is where the
// paper's WaP mechanism lives: it packetizes outgoing messages — either into
// a single packet bounded by the network's maximum packet size (regular
// packetization) or into minimum-size packets with replicated control
// information (WCTT-aware Packetization, WaP) — injects the resulting flits
// into the local router, and delivers each incoming message when its last
// tail flit arrives.
//
// A sent message waits as one flit.Queued entry in the NIC's flit.Queue and
// is packetized one flit at a time as PopFlit injects it: its first flit
// opens the message's flit.InFlight record in the network's pool, and every
// flit is a flit.Word naming that record. The destination NIC counts the
// message's tails on the record and delivers the message from it.
package nic

import (
	"fmt"

	"repro/internal/flit"
	"repro/internal/mesh"
)

// Scheme identifies a packetization scheme.
type Scheme int

const (
	// SchemeRegular creates as few packets as possible: one packet per
	// message, split only when the message exceeds the network's maximum
	// packet size L.
	SchemeRegular Scheme = iota
	// SchemeWaP slices every message into minimum-size packets (one flit
	// each with the default link configuration), replicating the control
	// information in every packet. This bounds the arbitration slot duration
	// seen by contenders to the minimum packet size.
	SchemeWaP
)

// String names the packetization scheme.
func (s Scheme) String() string {
	switch s {
	case SchemeRegular:
		return "regular"
	case SchemeWaP:
		return "WaP"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// NIC is the per-router network interface: an injection queue of messages,
// the packetization state of the one at its head and a count of the
// messages it is receiving.
type NIC struct {
	Node mesh.Node

	// topo maps endpoints to routers: the NIC serves every endpoint core
	// attached to its router through the Local port — one on the mesh, the
	// concentration block, whose first endpoint is origin, on a concentrated
	// mesh.
	topo   mesh.Topology
	origin mesh.Node

	scheme Scheme
	link   flit.LinkConfig
	// maxFlits is the scheme's packet-size ceiling (WaP: the minimum packet
	// size; regular: the network's maximum, 0 meaning unlimited), and
	// perPacket the payload bits a ceiling-size packet carries (0:
	// unlimited).
	maxFlits, perPacket int

	// pool is the owning network's arena: queue blocks, in-flight records
	// and delivered messages.
	pool *flit.Pool

	nextMsgID uint64
	queue     flit.Queue
	cur       cursor
	partial   int // messages some, but not all, of whose flits were ejected here
}

// cursor is the packetization state of the message at the head of the
// queue once its first flit is injected.
type cursor struct {
	rec       uint32
	dst       mesh.Node // destination router
	pkts      int       // packets not fully injected; 0 before the first flit
	seq       int       // the next flit's place in its packet
	lastFlits int       // the size of the message's last packet
}

// New returns the NIC at router-grid node node of topology topo, using the
// given packetization scheme and link configuration and drawing from pool,
// the owning network's arena that every NIC of that network shares (see
// flit.Pool for the ownership rules).
func New(topo mesh.Topology, node mesh.Node, scheme Scheme, link flit.LinkConfig, pool *flit.Pool) (*NIC, error) {
	if scheme != SchemeRegular && scheme != SchemeWaP {
		return nil, fmt.Errorf("nic: unknown packetization scheme %v", scheme)
	}
	if err := link.Validate(); err != nil {
		return nil, err
	}
	n := &NIC{Node: node, topo: topo, origin: topo.BlockOrigin(node), scheme: scheme, link: link, pool: pool,
		maxFlits: link.MaxPacketFlits}
	if scheme == SchemeWaP {
		n.maxFlits = link.MinPacketFlits
	}
	if n.maxFlits > 0 {
		n.perPacket = n.maxFlits*link.WidthBits - link.ControlBitsPerPacket // > 0: Validate
	}
	return n, nil
}

// Reset rewinds the NIC to its just-constructed state, its queue's blocks
// back in the pool. The in-flight records its flits named are closed by the
// owner, which empties the routers holding those flits (Network.Reset).
func (n *NIC) Reset() {
	for n.queue.Len() > 0 {
		n.queue.Pop(n.pool)
	}
	n.cur = cursor{}
	n.partial = 0
	n.nextMsgID = 0
}

// Send accepts a message for transmission at cycle now. The message's source
// must be one of the NIC's endpoints. Send appends one entry to the
// injection queue, builds no flit and does not retain msg. It assigns the
// message an identifier when it has none (ID == 0) and returns it.
func (n *NIC) Send(msg *flit.Message, now uint64) (uint64, error) {
	if msg == nil {
		return 0, fmt.Errorf("nic %v: nil message", n.Node)
	}
	if n.topo.RouterOf(msg.Flow.Src) != n.Node {
		return 0, fmt.Errorf("nic %v: message source %v is not this node", n.Node, msg.Flow.Src)
	}
	if msg.Flow.Dst == msg.Flow.Src {
		return 0, fmt.Errorf("nic %v: message destination is the local node", n.Node)
	}
	if msg.ID == 0 {
		n.nextMsgID++
		msg.ID = uint64(n.Node.X+1)<<48 | uint64(n.Node.Y+1)<<40 | n.nextMsgID
	}
	msg.CreatedAt = now
	*n.queue.Push(n.pool) = flit.Queued{
		ID: msg.ID, CreatedAt: now, PayloadBits: msg.PayloadBits,
		DstX: uint32(msg.Flow.Dst.X), DstY: uint32(msg.Flow.Dst.Y), Class: uint8(msg.Class),
		SrcOffset: uint8(msg.Flow.Src.X-n.origin.X) | uint8(msg.Flow.Src.Y-n.origin.Y)<<1,
	}
	return msg.ID, nil
}

// PendingMessages returns the number of messages in the injection queue,
// the one being injected included.
func (n *NIC) PendingMessages() int { return n.queue.Len() }

// PopFlit removes and returns the next flit to inject at cycle now, and
// false when the queue is empty. It packetizes the head message one flit at
// a time: the scheme sets the packet-size ceiling, the payload is cut into
// chunks that fill a ceiling-size packet, and each chunk becomes one packet
// of HEAD, BODY…, TAIL flits (HEAD+TAIL when it is a single flit).
func (n *NIC) PopFlit(now uint64) (flit.Word, bool) {
	if n.queue.Len() == 0 {
		return 0, false
	}
	c := &n.cur
	if c.pkts == 0 {
		n.open(now)
	}
	flits := n.maxFlits
	if c.pkts == 1 {
		flits = c.lastFlits
	}
	typ := flit.Body
	switch {
	case flits == 1:
		typ = flit.HeadTail
	case c.seq == 0:
		typ = flit.Head
	case c.seq == flits-1:
		typ = flit.Tail
	}
	w := flit.NewWord(typ, c.dst, c.rec)
	if c.seq++; c.seq == flits {
		c.seq = 0
		if c.pkts--; c.pkts == 0 {
			n.queue.Pop(n.pool)
		}
	}
	return w, true
}

// open starts injecting the head message: it cuts the payload into packets
// and opens the message's in-flight record, injected at cycle now. Every
// packet but the last carries a ceiling-size chunk, so it is maxFlits long.
func (n *NIC) open(now uint64) {
	e := n.queue.Front()
	payload := max(e.PayloadBits, 0)
	pkts, last := 1, payload
	if n.perPacket != 0 && payload > n.perPacket {
		pkts = (payload-1)/n.perPacket + 1
		last = payload - (pkts-1)*n.perPacket
	}
	lastFlits := n.maxFlits // WaP: every packet is a minimum-size one
	if n.scheme == SchemeRegular {
		lastFlits = n.link.FlitsForPayload(last)
	}
	dst := mesh.Node{X: int(e.DstX), Y: int(e.DstY)}
	rec, r := n.pool.OpenRecord()
	*r = flit.InFlight{Tails: pkts, Msg: flit.Message{
		ID: e.ID,
		Flow: flit.FlowID{
			Src: mesh.Node{X: n.origin.X + int(e.SrcOffset&1), Y: n.origin.Y + int(e.SrcOffset>>1)},
			Dst: dst,
		},
		Class:       flit.MessageClass(e.Class),
		PayloadBits: payload,
		CreatedAt:   e.CreatedAt,
		InjectedAt:  now,
	}}
	n.cur = cursor{rec: rec, dst: n.topo.RouterOf(dst), pkts: pkts, lastFlits: lastFlits}
}

// Receive accepts a flit ejected by the local router at cycle now. When the
// flit is its message's last tail, the message is returned, drawn from the
// pool; otherwise nil.
func (n *NIC) Receive(w flit.Word, now uint64) (*flit.Message, error) {
	if w.Dst() != n.Node {
		return nil, fmt.Errorf("nic %v: received flit for router %v", n.Node, w.Dst())
	}
	r := n.pool.Record(w.Record())
	if r == nil || r.Tails <= 0 {
		return nil, fmt.Errorf("nic %v: received %v of no message in flight", n.Node, w)
	}
	if w.Type().IsTail() {
		r.Tails--
	}
	if r.Tails > 0 {
		if !r.Ejected {
			r.Ejected = true
			n.partial++
		}
		return nil, nil
	}
	if r.Ejected {
		n.partial--
	}
	return n.pool.Deliver(w.Record(), now), nil
}

// PendingReassemblies returns the number of messages some, but not all, of
// whose flits have been ejected here.
func (n *NIC) PendingReassemblies() int { return n.partial }
