package flit

// Queued is a message waiting in its source NIC's injection queue, in 40
// bytes: the NIC cuts it into flits only as it injects them.
type Queued struct {
	ID          uint64
	CreatedAt   uint64
	PayloadBits int
	DstX, DstY  uint32 // the destination endpoint
	Class       uint8  // the MessageClass
	// SrcOffset places the source endpoint in its router's block of cores:
	// bit 0 is its column, bit 1 its row (both 0 on the mesh).
	SrcOffset uint8
}

// Queue is a FIFO of Queued messages in blocks of 32 entries taken from a
// Pool, each given back as soon as the queue has emptied it: an idle NIC
// holds no block, and a backlog grows a block at a time without copying.
// The zero value is an empty queue.
type Queue struct {
	head, tail  *block
	front, back int // the next entry to pop in head, the next free one in tail
	n           int
}

const blockLen = 32

type block struct {
	entries [blockLen]Queued
	next    *block // the next block of a queue or of the pool's free list
}

// Len returns the number of queued messages.
func (q *Queue) Len() int { return q.n }

// Push appends an entry, taking a block from p when the tail block is full,
// and returns it for the caller to fill.
func (q *Queue) Push(p *Pool) *Queued {
	if q.tail == nil || q.back == blockLen {
		b := p.blocks
		if b == nil {
			b = new(block)
		} else {
			p.blocks, b.next = b.next, nil
		}
		if q.tail == nil {
			q.head = b
		} else {
			q.tail.next = b
		}
		q.tail, q.back = b, 0
	}
	e := &q.tail.entries[q.back]
	q.back++
	q.n++
	return e
}

// Front returns the oldest entry; the queue must not be empty.
func (q *Queue) Front() *Queued { return &q.head.entries[q.front] }

// Pop removes the oldest entry, returning its block to p once emptied.
func (q *Queue) Pop(p *Pool) {
	q.front++
	q.n--
	switch b := q.head; {
	case q.n == 0:
		*q = Queue{}
		b.next, p.blocks = p.blocks, b
	case q.front == blockLen:
		q.head, q.front = b.next, 0
		b.next, p.blocks = p.blocks, b
	}
}
