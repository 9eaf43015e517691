package flit

// Pool is the arena of one network, which lets the simulator's steady-state
// loop run without heap allocations. It recycles Messages (drawn by traffic
// generators, returned by the network once queued at the source NIC or
// reported to the delivery callback), the blocks of the NICs' Queues (each
// returned as soon as its queue has emptied it) and the InFlight records of
// messages with flits in the network (closed as the last tail is ejected).
//
// # Ownership rules
//
//   - Only messages obtained from a Pool are ever recycled: PutMessage is a
//     no-op for messages allocated directly, so caller-owned messages (e.g.
//     those built by tests) keep their ordinary garbage-collected lifetime.
//   - A message handed back to the pool may be reused — and overwritten —
//     by the very next GetMessage. Delivery callbacks therefore must not
//     retain the *Message they receive beyond the callback's return; copy
//     the fields that matter.
//   - A Pool is not safe for concurrent use. Every pool is owned by exactly
//     one sequential consumer: a network has one arena, which its
//     generators, its NICs and its delivery path all use from the goroutine
//     that steps it, and parallel sweeps give each worker its own network
//     (and therefore its own pool).
type Pool struct {
	messages []*Message
	blocks   *block     // free blocks, linked through next
	records  []InFlight // the slab a Word's record index points into
	free     []uint32   // closed records, reused before the slab grows
}

// InFlight is the record of a message from the injection of its first flit
// to the ejection of its last tail: the words of its flits name it, and the
// destination NIC delivers the message from it.
type InFlight struct {
	Msg     Message // as it will be delivered, but for DeliveredAt
	Tails   int     // packets whose tail is still to be ejected; 0 when closed
	Ejected bool    // some flit has been ejected: a partial reassembly
}

// recordLimit is MaxInFlight, a variable only so that a test can reach it.
var recordLimit = MaxInFlight

// GetMessage returns a zeroed message owned by the pool.
func (p *Pool) GetMessage() *Message {
	if n := len(p.messages); n > 0 {
		m := p.messages[n-1]
		p.messages[n-1] = nil
		p.messages = p.messages[:n-1]
		return m
	}
	return &Message{pooled: true}
}

// PutMessage returns a message to the pool. Messages that did not come from
// a pool are ignored, so callers may unconditionally offer every message
// they have finished with.
func (p *Pool) PutMessage(m *Message) {
	if m == nil || !m.pooled {
		return
	}
	*m = Message{pooled: true}
	p.messages = append(p.messages, m)
}

// OpenRecord returns the index of a zeroed InFlight record and the record
// itself; the pointer is valid until the next OpenRecord. It panics when
// MaxInFlight records are open, the most a Word can name.
func (p *Pool) OpenRecord() (uint32, *InFlight) {
	if n := len(p.free); n > 0 {
		i := p.free[n-1]
		p.free = p.free[:n-1]
		return i, &p.records[i]
	}
	i := len(p.records)
	if i >= recordLimit {
		panic("flit: 2^30 messages in flight; a flit word cannot name another record")
	}
	p.records = append(p.records, InFlight{})
	return uint32(i), &p.records[i]
}

// Record returns open record i, or nil when no record has index i.
func (p *Pool) Record(i uint32) *InFlight {
	if int(i) >= len(p.records) {
		return nil
	}
	return &p.records[i]
}

// Deliver closes record i and returns its message, drawn from the pool and
// stamped delivered at cycle at.
func (p *Pool) Deliver(i uint32, at uint64) *Message {
	m := p.GetMessage()
	*m = p.records[i].Msg
	m.pooled = true
	m.DeliveredAt = at
	p.records[i] = InFlight{}
	p.free = append(p.free, i)
	return m
}

// CloseRecords closes every record at once: the owner has discarded every
// flit that named one (network.Network.Reset).
func (p *Pool) CloseRecords() {
	clear(p.records)
	p.records = p.records[:0]
	p.free = p.free[:0]
}
