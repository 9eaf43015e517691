package analysis

// Grouped message bounds: a list of arbitrary (src, dst, payload) queries
// answered by the kernel pieces instead of one route walk each.
//
// Both bounds are left folds over the XY route, and the kernels (kernel.go)
// share the fold's state across routes that start their fold at the same
// router: the chained-blocking bound folds from the destination, the
// guaranteed-bandwidth bound from the source. BatchMessageWCTT groups the
// queries on that router and on the message shape (a query may carry its own
// payload), and runs the kernel pieces over only the rows and columns each
// group spans:
//
//   - A regular group (destination router rd) buckets its queries by source
//     row, builds the column states from rd out to the farthest source rows
//     (regularColStates with a row range), and for every occupied row the
//     X-segment maps from turn column rd.X out to that row's farthest source
//     on each side (regularXMaps with a column range). A query is then one
//     regularApply.
//   - A WaW group (source router rs) buckets its queries by destination
//     column, folds the X segment from rs out to the farthest turn column on
//     each side, and for every occupied turn column extends that state along
//     the column out to its farthest destination row on each side (both
//     wawSegStates). A query is then one wawFinish.
//
// A group of k queries costs O(k + the rows and columns it spans), a dense
// group O(1) per query; a lone query shares nothing and takes its route walk.
// A query finds its group through a table indexed by its route end's router,
// which chains the groups of one router that carry different shapes. Every
// entry is stamped with the generation of the call that wrote it, so a call
// never resets the table: it costs O(n + spans) in time and pooled scratch,
// with no O(N) setup, and the table holds at most one entry per router.
// Every bound is the same saturating expression the walk and the kernels
// evaluate, so every answer equals MessageWCTT's, saturated values included
// (batch_test.go).

import (
	"context"
	"sync"

	"repro/internal/mesh"
	"repro/internal/network"
)

// batchGroup is the queries of one BatchMessageWCTT call that share the
// router their fold starts from and the message shape.
type batchGroup struct {
	// end is the shared route end: the destination router of a regular
	// group, the source router of a WaW group.
	end mesh.Node
	// head is the group's first query; batchScratch.next links the rest.
	head int32
	// other is the next group of the same route end, with another shape
	// (-1 ends the chain).
	other int32
	sh    msgShape
}

// batchEnd is one router's entry in the group table: its latest group, valid
// only in the call whose generation it carries.
type batchEnd struct {
	gen   uint32
	group int32
}

// batchScratch is the transient state of one BatchMessageWCTT call.
type batchScratch struct {
	// next links the queries of a group, and then of a row or column bucket
	// (-1 ends a list). far[2i], far[2i+1] are the router coordinates of
	// query i's other route end: its source in a regular group, its
	// destination in a WaW group.
	next, far []int32
	// byEnd is the group table, one 8-byte entry per router (row-major on
	// the router grid), however many shapes a call mixes. An entry stamped
	// with gen, the call's generation, starts the chain of its router's
	// groups; any other entry is stale, so no call resets the table.
	byEnd  []batchEnd
	gen    uint32
	groups []batchGroup
	// head, lo and hi are indexed by router row (regular groups) or column
	// (WaW groups): the first query of the bucket (-1 when empty between
	// groups) and the span of its queries' far ends along the other axis.
	head, lo, hi []int32
	// t and s are the column states by router row; a and b the X-segment
	// maps or the X-segment states by router column.
	t, s, a, b []uint64
}

var batchScratches = sync.Pool{New: func() any { return new(batchScratch) }}

// reset sizes the scratch for n queries on a router grid of W x Ht and
// starts a new generation of the group table.
func (sc *batchScratch) reset(n, W, Ht int) {
	sc.next, sc.far = ensureTable(sc.next, n), ensureTable(sc.far, 2*n)
	sc.groups = sc.groups[:0]
	if sc.gen++; sc.gen == 0 {
		// The stamps wrapped: forget every entry, those past the grid too.
		clear(sc.byEnd[:cap(sc.byEnd)])
		sc.gen = 1
	}
	sc.byEnd = ensureTable(sc.byEnd, W*Ht)
	side := max(W, Ht)
	sc.head, sc.lo, sc.hi = ensureTable(sc.head, side), ensureTable(sc.lo, side), ensureTable(sc.hi, side)
	for i := range sc.head {
		sc.head[i] = -1
	}
	sc.t, sc.s = ensureTable(sc.t, Ht), ensureTable(sc.s, Ht)
	sc.a, sc.b = ensureTable(sc.a, W), ensureTable(sc.b, W)
}

// group returns the group of (end, sh), adding it if new; at is end's index
// in byEnd.
func (sc *batchScratch) group(at int, end mesh.Node, sh msgShape) *batchGroup {
	e := &sc.byEnd[at]
	if e.gen == sc.gen {
		for g := e.group; g >= 0; g = sc.groups[g].other {
			if sc.groups[g].sh == sh {
				return &sc.groups[g]
			}
		}
	} else {
		*e = batchEnd{gen: sc.gen, group: -1}
	}
	sc.groups = append(sc.groups, batchGroup{end: end, head: -1, other: e.group, sh: sh})
	e.group = int32(len(sc.groups) - 1)
	return &sc.groups[e.group]
}

// batchPoll asks a context for its error once per 1024 units of work.
type batchPoll struct {
	ctx  context.Context
	work int
}

// tick counts one unit of work, first asking ctx on every 1024th.
func (p *batchPoll) tick() error {
	p.work++
	if p.work&1023 != 1 {
		return nil
	}
	return p.ctx.Err()
}

// BatchMessageWCTT answers n message bounds in query order: out[i] is
// MessageWCTT(design, src, dst, payloadBits) for query(i)'s values,
// saturated values included. out is reused when its capacity suffices, and
// query is called once per query, in order. The queries are grouped on the
// route end the design's fold starts from and answered by grouped kernel
// sweeps (see the comment at the top of this file).
//
// When a query is invalid the call fails with MessageWCTT's error for the
// first invalid query and answers none. ctx is asked for its error once per
// 1024 queries grouped and once per 1024 answered; when it reports one, the
// call returns it.
func (m *Model) BatchMessageWCTT(ctx context.Context, design network.Design, n int,
	query func(i int) (src, dst mesh.Node, payloadBits int), out []uint64) ([]uint64, error) {
	W, Ht := m.rdim.Width, m.rdim.Height
	sc := batchScratches.Get().(*batchScratch)
	defer batchScratches.Put(sc)
	sc.reset(n, W, Ht)
	poll := batchPoll{ctx: ctx}
	var sh msgShape
	lastPayload := 0
	for i := range n {
		if err := poll.tick(); err != nil {
			return nil, err
		}
		src, dst, payload := query(i)
		if i == 0 || payload != lastPayload {
			var err error
			if sh, err = m.messageShape(design, payload); err != nil {
				return nil, err
			}
			lastPayload = payload
		}
		if sh.a < 1 || sh.b < 1 || !m.p.Dim.Contains(src) || !m.p.Dim.Contains(dst) || src == dst {
			_, err := m.MessageWCTT(design, src, dst, payload)
			return nil, err
		}
		end, far := m.topo.RouterOf(dst), m.topo.RouterOf(src)
		if sh.waw {
			end, far = far, end
		}
		g := sc.group(end.Y*W+end.X, end, sh)
		sc.next[i], g.head = g.head, int32(i)
		sc.far[2*i], sc.far[2*i+1] = int32(far.X), int32(far.Y)
	}
	out = ensureTable(out, n)
	for _, g := range sc.groups {
		var err error
		switch i := g.head; {
		case sc.next[i] < 0:
			// A lone query shares nothing: its route walk is the cheapest.
			if err = poll.tick(); err != nil {
				break
			}
			far, a, b := mesh.Node{X: int(sc.far[2*i]), Y: int(sc.far[2*i+1])}, uint64(g.sh.a), uint64(g.sh.b)
			if g.sh.waw {
				out[i] = m.wawWalk(g.end, far, a, b)
			} else {
				out[i] = m.regularWalk(far, g.end, a, b)
			}
		case g.sh.waw:
			err = m.batchWaW(sc, g, out, &poll)
		default:
			err = m.batchRegular(sc, g, out, &poll)
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// bucket moves the queries of group g onto per-line lists: the queries whose
// far end lies on line k (its row when byRow, else its column) are linked
// from sc.head[k], and sc.lo[k], sc.hi[k] span their far ends along the
// line. It returns the span of the occupied lines, widened to contain at.
func (sc *batchScratch) bucket(g batchGroup, byRow bool, at int) (first, last int) {
	first, last = at, at
	for i := g.head; i >= 0; {
		next := sc.next[i]
		line, pos := sc.far[2*i+1], sc.far[2*i]
		if !byRow {
			line, pos = pos, line
		}
		if sc.head[line] < 0 {
			sc.lo[line], sc.hi[line] = pos, pos
		} else {
			sc.lo[line], sc.hi[line] = min(sc.lo[line], pos), max(sc.hi[line], pos)
		}
		sc.next[i], sc.head[line] = sc.head[line], i
		first, last = min(first, int(line)), max(last, int(line))
		i = next
	}
	return first, last
}

// batchRegular answers the chained-blocking group g, whose queries share the
// destination router rd.
func (m *Model) batchRegular(sc *batchScratch, g batchGroup, out []uint64, poll *batchPoll) error {
	rd, S, L := g.end, uint64(g.sh.a), uint64(g.sh.b)
	ylo, yhi := sc.bucket(g, true, rd.Y)
	m.regularColStates(sc.t, sc.s, 1, rd, L, ylo, yhi)
	for y := ylo; y <= yhi; y++ {
		i := sc.head[y]
		if i < 0 {
			continue
		}
		sc.head[y] = -1
		m.regularXMaps(sc.a, sc.b, 1, y, rd.X, S, L, min(int(sc.lo[y]), rd.X), max(int(sc.hi[y]), rd.X))
		t, iv := sc.t[y], sc.s[y]
		for ; i >= 0; i = sc.next[i] {
			if err := poll.tick(); err != nil {
				return err
			}
			x := sc.far[2*i]
			out[i] = regularApply(t, iv, sc.a[x], sc.b[x])
		}
	}
	return nil
}

// batchWaW answers the guaranteed-bandwidth group g, whose queries share the
// source router rs: the X segment is folded once out to the farthest turn
// column, and each occupied turn column once out to its farthest
// destination rows.
func (m *Model) batchWaW(sc *batchScratch, g batchGroup, out []uint64, poll *batchPoll) error {
	rs, P, slot, R, W := g.end, uint64(g.sh.a), uint64(g.sh.b), uint64(m.p.RouterLatency), m.rdim.Width
	xlo, xhi := sc.bucket(g, false, rs.X)
	m.wawSegStates(sc.a, sc.b, true, rs.Y, rs.X, 0, 1, slot, xlo, xhi)
	ej := m.outShare[mesh.Local]
	for cx := xlo; cx <= xhi; cx++ {
		i := sc.head[cx]
		if i < 0 {
			continue
		}
		sc.head[cx] = -1
		m.wawSegStates(sc.t, sc.s, false, cx, rs.Y, sc.a[cx], sc.b[cx], slot, int(sc.lo[cx]), int(sc.hi[cx]))
		for ; i >= 0; i = sc.next[i] {
			if err := poll.tick(); err != nil {
				return err
			}
			y := sc.far[2*i+1]
			o := ej[int(y)*W+cx]
			out[i] = wawFinish(sc.t[y], sc.s[y], wawHopCost(o, slot, R), o, P, slot)
		}
	}
	return nil
}
