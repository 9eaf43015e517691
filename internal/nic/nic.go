// Package nic models the network interface controller that connects a
// processing/memory element (PME) to its mesh router. The NIC is where the
// paper's WaP mechanism lives: it packetizes outgoing messages — either into
// a single packet bounded by the network's maximum packet size (regular
// packetization) or into minimum-size packets with replicated control
// information (WCTT-aware Packetization, WaP) — injects the resulting flits
// into the local router, and reassembles incoming flits back into messages.
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

// NIC is the per-router network interface: an injection queue of flits
// awaiting transmission and a reassembly table for incoming flits.
type NIC struct {
	Node mesh.Node

	// topo maps endpoints to routers: the NIC serves every endpoint core
	// attached to its router through the Local port — one on the mesh, the
	// concentration block on a concentrated mesh.
	topo mesh.Topology

	scheme Scheme
	link   flit.LinkConfig

	// pool supplies the flits the NIC packetizes and the messages it
	// reassembles, and receives absorbed flits back. The NIC retains no
	// delivered message: its owner sees each one as Receive returns it.
	pool *flit.Pool

	nextPacketID uint64
	nextMsgID    uint64

	// injectQueue is consumed through injectHead (a head index) so the
	// backing array is reused instead of being re-sliced away: combined
	// with the compaction in Send this keeps steady-state injection free
	// of heap allocations.
	injectQueue []*flit.Flit
	injectHead  int

	// reassembly state per message id, with a free list so completed
	// reassemblies recycle their bookkeeping instead of reallocating it per
	// message. A message that arrives whole in one flit never enters it.
	pending        map[uint64]*reassembly
	freeReassembly []*reassembly
}

type reassembly struct {
	flow          flit.FlowID
	class         flit.MessageClass
	createdAt     uint64
	firstInjected uint64
	payloadBits   int
	expectedPkts  int
	donePkts      int
}

// New returns the NIC at router-grid node node of topology topo, using the
// given packetization scheme and link configuration and drawing from pool,
// the owning network's message/flit arena that every NIC of that network
// shares (see flit.Pool for the ownership rules).
func New(topo mesh.Topology, node mesh.Node, scheme Scheme, link flit.LinkConfig, pool *flit.Pool) (*NIC, error) {
	if scheme != SchemeRegular && scheme != SchemeWaP {
		return nil, fmt.Errorf("nic: unknown packetization scheme %v", scheme)
	}
	if err := link.Validate(); err != nil {
		return nil, err
	}
	return &NIC{
		Node:    node,
		topo:    topo,
		scheme:  scheme,
		link:    link,
		pool:    pool,
		pending: make(map[uint64]*reassembly),
	}, nil
}

// ownsEndpoint reports whether the endpoint is attached to this NIC's router.
func (n *NIC) ownsEndpoint(ep mesh.Node) bool { return n.topo.RouterOf(ep) == n.Node }

// Reset rewinds the NIC to its just-constructed state: injection queue and
// reassembly table emptied, message/packet identifier counters cleared.
// Backing buffers and the pool are retained so a reset NIC allocates nothing
// when reused.
func (n *NIC) Reset() {
	clear(n.injectQueue)
	n.injectQueue = n.injectQueue[:0]
	n.injectHead = 0
	for id, r := range n.pending {
		n.putReassembly(r)
		delete(n.pending, id)
	}
	n.nextPacketID = 0
	n.nextMsgID = 0
}

// getReassembly returns a cleared reassembly record, reusing a recycled one
// when available.
func (n *NIC) getReassembly() *reassembly {
	if k := len(n.freeReassembly); k > 0 {
		r := n.freeReassembly[k-1]
		n.freeReassembly[k-1] = nil
		n.freeReassembly = n.freeReassembly[:k-1]
		return r
	}
	return &reassembly{}
}

// putReassembly recycles a completed reassembly record.
func (n *NIC) putReassembly(r *reassembly) {
	*r = reassembly{}
	n.freeReassembly = append(n.freeReassembly, r)
}

// Send accepts a message for transmission at cycle now. The message's source
// must be the NIC's node. The message is packetized immediately and its
// flits are appended to the injection queue. Send assigns the message an
// identifier when it has none (ID == 0) and returns it.
func (n *NIC) Send(msg *flit.Message, now uint64) (uint64, error) {
	if msg == nil {
		return 0, fmt.Errorf("nic %v: nil message", n.Node)
	}
	if !n.ownsEndpoint(msg.Flow.Src) {
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
	n.enqueueFlits(msg)
	return msg.ID, nil
}

// enqueueFlits packetizes the message straight into the injection queue.
// The scheme sets the packet-size ceiling (WaP: the minimum packet size;
// regular: the network's maximum, 0 meaning unlimited), the payload is cut
// into chunks that fill a ceiling-size packet, and each chunk becomes one
// packet of HEAD, BODY…, TAIL flits (HEAD+TAIL when it is a single flit)
// whose head carries the chunk's payload bits. The flits come from the pool
// and no intermediate packet values are built, so a Send on the hot path
// performs no heap allocations.
func (n *NIC) enqueueFlits(msg *flit.Message) {
	maxFlits := n.link.MaxPacketFlits
	if n.scheme == SchemeWaP {
		maxFlits = n.link.MinPacketFlits
	}
	perPacketPayload := 0
	if maxFlits > 0 {
		perPacketPayload = maxFlits*n.link.WidthBits - n.link.ControlBitsPerPacket
	}
	payload := msg.PayloadBits
	if payload < 0 {
		payload = 0
	}
	packets := 1
	if maxFlits != 0 && perPacketPayload > 0 && payload > perPacketPayload {
		packets = (payload + perPacketPayload - 1) / perPacketPayload
	}
	firstID := n.allocPacketIDs(packets)

	// Make room up front: once the consumed head is as long as the live
	// queue, move the live flits to the front of the backing array. That is
	// amortised O(1) per flit and keeps the slice within twice the live queue.
	if n.injectHead > 0 && 2*n.injectHead >= len(n.injectQueue) {
		q := n.injectQueue
		live := copy(q, q[n.injectHead:])
		clear(q[live:])
		n.injectQueue = q[:live]
		n.injectHead = 0
	}

	remaining := payload
	for i := 0; i < packets; i++ {
		chunk := remaining
		if packets > 1 && i < packets-1 {
			chunk = perPacketPayload
		}
		remaining -= chunk
		nflits := n.link.FlitsForPayload(chunk)
		if n.scheme == SchemeWaP && nflits < n.link.MinPacketFlits {
			nflits = n.link.MinPacketFlits
		}
		pktID := firstID + uint64(i)
		for s := 0; s < nflits; s++ {
			typ := flit.Body
			switch {
			case nflits == 1:
				typ = flit.HeadTail
			case s == 0:
				typ = flit.Head
			case s == nflits-1:
				typ = flit.Tail
			}
			payloadBits := 0
			if s == 0 {
				payloadBits = chunk
			}
			f := n.pool.GetFlit()
			f.Type = typ
			f.Flow = msg.Flow
			f.PacketID = pktID
			f.MsgID = msg.ID
			f.Seq = s
			f.PacketIndex = i
			f.PacketsInMsg = packets
			f.PayloadBits = payloadBits
			f.CreatedAt = msg.CreatedAt
			f.Class = msg.Class
			n.injectQueue = append(n.injectQueue, f)
		}
	}
}

func (n *NIC) allocPacketIDs(count int) uint64 {
	first := n.nextPacketID + 1
	n.nextPacketID += uint64(count)
	// Packet ids are made globally unique by embedding the node coordinates
	// in the high bits, so packets from different NICs never collide.
	return uint64(n.Node.X+1)<<48 | uint64(n.Node.Y+1)<<40 | first
}

// PendingFlits returns the number of flits waiting in the injection queue.
func (n *NIC) PendingFlits() int { return len(n.injectQueue) - n.injectHead }

// PopFlit removes and returns the next flit to inject, stamping its
// injection cycle. It returns nil when the queue is empty.
func (n *NIC) PopFlit(now uint64) *flit.Flit {
	if n.PendingFlits() == 0 {
		return nil
	}
	f := n.injectQueue[n.injectHead]
	n.injectQueue[n.injectHead] = nil // release the slot's reference
	n.injectHead++
	if n.injectHead == len(n.injectQueue) {
		n.injectQueue = n.injectQueue[:0]
		n.injectHead = 0
	}
	f.InjectedAt = now
	return f
}

// Receive accepts a flit ejected by the local router at cycle now. When the
// flit completes its message the reassembled message is returned, otherwise
// nil.
func (n *NIC) Receive(f *flit.Flit, now uint64) (*flit.Message, error) {
	if f == nil {
		return nil, fmt.Errorf("nic %v: received nil flit", n.Node)
	}
	if !n.ownsEndpoint(f.Flow.Dst) {
		return nil, fmt.Errorf("nic %v: received flit for %v", n.Node, f.Flow.Dst)
	}
	f.EjectedAt = now

	if f.PacketsInMsg == 1 && f.Type == flit.HeadTail {
		// The whole message in one flit: nothing to reassemble.
		msg := n.deliver(f.MsgID, &reassembly{flow: f.Flow, class: f.Class, createdAt: f.CreatedAt,
			firstInjected: f.InjectedAt, payloadBits: f.PayloadBits}, now)
		n.pool.PutFlit(f)
		return msg, nil
	}

	r, ok := n.pending[f.MsgID]
	if !ok {
		r = n.getReassembly()
		r.flow = f.Flow
		r.class = f.Class
		r.createdAt = f.CreatedAt
		r.firstInjected = f.InjectedAt
		r.expectedPkts = f.PacketsInMsg
		n.pending[f.MsgID] = r
	}
	if f.InjectedAt < r.firstInjected {
		r.firstInjected = f.InjectedAt
	}
	r.payloadBits += f.PayloadBits
	done := false
	if f.Type.IsTail() {
		r.donePkts++
		done = r.donePkts >= r.expectedPkts
	}
	msgID := f.MsgID
	n.pool.PutFlit(f) // the flit has been fully absorbed
	if !done {
		return nil, nil
	}
	delete(n.pending, msgID)
	msg := n.deliver(msgID, r, now)
	n.putReassembly(r)
	return msg, nil
}

// deliver builds, from the pool, the message a completed reassembly
// describes, delivered at cycle now.
func (n *NIC) deliver(msgID uint64, r *reassembly, now uint64) *flit.Message {
	msg := n.pool.GetMessage()
	msg.ID = msgID
	msg.Flow = r.flow
	msg.Class = r.class
	msg.PayloadBits = r.payloadBits
	msg.CreatedAt = r.createdAt
	msg.InjectedAt = r.firstInjected
	msg.DeliveredAt = now
	return msg
}

// PendingReassemblies returns the number of partially received messages.
func (n *NIC) PendingReassemblies() int { return len(n.pending) }
