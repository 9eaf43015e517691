package flit

// Pool is a free list of Messages and Flits that lets the simulator's
// steady-state loop run without heap allocations: traffic generators draw
// messages from the pool, NICs draw the flits they packetize from it, and
// the network returns both once they have been fully consumed (a message
// when its flits have been enqueued at the source NIC or when its
// reassembled counterpart has been reported to the delivery callback, a
// flit when the destination NIC has absorbed it).
//
// # Ownership rules
//
//   - Only objects obtained from a Pool are ever recycled: Put is a no-op
//     for objects allocated directly, so caller-owned messages (e.g. those
//     built by tests) keep their ordinary garbage-collected lifetime.
//   - An object handed back to the pool may be reused — and overwritten —
//     by the very next Get. Delivery callbacks therefore must not retain
//     the *Message they receive beyond the callback's return; copy the
//     fields that matter.
//   - A Pool is not safe for concurrent use. Every pool is owned by exactly
//     one sequential consumer: a network has one arena, which its
//     generators, its NICs and its delivery path all use from the goroutine
//     that steps it, and parallel sweeps give each worker its own network
//     (and therefore its own pool).
type Pool struct {
	messages []*Message
	flits    []*Flit
}

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

// GetFlit returns a zeroed flit owned by the pool.
func (p *Pool) GetFlit() *Flit {
	if n := len(p.flits); n > 0 {
		f := p.flits[n-1]
		p.flits[n-1] = nil
		p.flits = p.flits[:n-1]
		return f
	}
	return &Flit{pooled: true}
}

// PutFlit returns a flit to the pool; flits that did not come from a pool
// are ignored.
func (p *Pool) PutFlit(f *Flit) {
	if f == nil || !f.pooled {
		return
	}
	*f = Flit{pooled: true}
	p.flits = append(p.flits, f)
}
