package analysis

// Grouped message bounds: a list of arbitrary (src, dst, payload) queries
// answered by segment-map sweeps instead of one route walk each.
//
// A query's bound is the finish of its route's segment map (segMap,
// wctt.go), and a map extends by one hop at either end in O(1), so queries
// with a common route end share the maps along its row and column.
// BatchMessageWCTT groups the queries on one end and on the message shape (a
// query may carry its own payload). It keys a call on the end with fewer
// distinct routers among its queries; on a tie, on the destination for the
// chained-blocking bound and on the source for the guaranteed-bandwidth
// bound. A group then runs two levels of line sweeps (segFold.line) over only
// the rows and columns it spans:
//
//   - keyed on the source router rs, its queries are bucketed by destination
//     column. The maps extend from rs along the source row out to the
//     farthest turn column on each side, then down each occupied turn column
//     out to its farthest destination rows; a query adds its ejection hop
//     and finishes.
//   - keyed on the destination router rd, its queries are bucketed by source
//     row. The maps extend from the ejection hop at rd along the destination
//     column out to the farthest source rows, then along each occupied
//     source row out to its farthest sources; a query finishes its source's
//     map.
//
// A group of k queries costs O(k + the rows and columns it spans): a dense
// group O(1) per query, a one-query group its route walk, and a list of
// queries that all share one endpoint (either wcet round-trip row) one O(N)
// group. A query finds its group through a table indexed by its key router,
// which chains the groups of one router that carry different shapes. Every
// entry of the table, and of the per-router stamps that count the distinct
// routers, carries the generation of the call that wrote it, so a call never
// resets them: it costs O(n + spans) in time and pooled scratch, with no
// O(N) setup. Every bound is the same saturating expression the walk
// evaluates, so every answer equals MessageWCTT's, saturated values included
// (batch_test.go).

import (
	"context"
	"sync"

	"repro/internal/mesh"
	"repro/internal/network"
)

// batchGroup is the queries of one BatchMessageWCTT call that share their
// key router and message shape.
type batchGroup struct {
	end mesh.Node // the key router
	// head is the group's first query; batchScratch.next links the rest.
	head int32
	// other is the next group of the same key router, with another shape
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
	// (-1 ends a list). ends[4i:4i+4] are the router coordinates (x, y) of
	// query i's source and then its destination, and pay[i] is its payload.
	next, ends []int32
	pay        []int
	// byEnd is the group table, one 8-byte entry per router (row-major on
	// the router grid), however many shapes a call mixes. An entry stamped
	// with gen, the call's generation, starts the chain of its router's
	// groups; any other entry is stale, so no call resets the table. seen[r]
	// is stamped with gen once router r is the other route end of a query.
	byEnd  []batchEnd
	seen   []uint32
	gen    uint32
	groups []batchGroup
	// head, lo and hi are indexed by a position along a group's first line:
	// the first query of the bucket there (-1 when empty between groups) and
	// the span of its queries' far ends along the bucket's line.
	head, lo, hi []int32
	// ms and line are the segment maps along a group's first line and along
	// the bucket line it sweeps.
	ms, line []segMap
}

var batchScratches = sync.Pool{New: func() any { return new(batchScratch) }}

// reset sizes the scratch for n queries on a router grid of W x Ht and
// starts a new generation of the group table and the stamps.
func (sc *batchScratch) reset(n, W, Ht int) {
	sc.next, sc.ends, sc.pay = ensureTable(sc.next, n), ensureTable(sc.ends, 4*n), ensureTable(sc.pay, n)
	sc.regroup()
	sc.byEnd, sc.seen = ensureTable(sc.byEnd, W*Ht), ensureTable(sc.seen, W*Ht)
	side := max(W, Ht)
	sc.head, sc.lo, sc.hi = ensureTable(sc.head, side), ensureTable(sc.lo, side), ensureTable(sc.hi, side)
	for i := range sc.head {
		sc.head[i] = -1
	}
	sc.ms, sc.line = ensureTable(sc.ms, side), ensureTable(sc.line, side)
}

// regroup drops the groups and starts a new generation.
func (sc *batchScratch) regroup() {
	sc.groups = sc.groups[:0]
	if sc.gen++; sc.gen == 0 {
		// The stamps wrapped: forget every entry, those past the grid too.
		clear(sc.byEnd[:cap(sc.byEnd)])
		clear(sc.seen[:cap(sc.seen)])
		sc.gen = 1
	}
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
// query is called once per query, in order. The queries are grouped on one
// route end and answered by group sweeps of segment maps (see the comment at
// the top of this file).
//
// When a query is invalid the call fails with MessageWCTT's error for the
// first invalid query and answers none. ctx is asked for its error once per
// 1024 queries read and once per 1024 answered; when it reports one, the
// call returns it.
func (m *Model) BatchMessageWCTT(ctx context.Context, design network.Design, n int,
	query func(i int) (src, dst mesh.Node, payloadBits int), out []uint64) ([]uint64, error) {
	W, Ht := m.rdim.Width, m.rdim.Height
	sc := batchScratches.Get().(*batchScratch)
	defer batchScratches.Put(sc)
	sc.reset(n, W, Ht)
	poll := batchPoll{ctx: ctx}
	// The queries are grouped on the tie's key as they are read, and again
	// only when the other end has fewer distinct routers. key is the offset
	// of the key end's coordinates in ends; keys and others count the
	// distinct routers at the key end and at the other end.
	var sh msgShape
	waw := design == network.DesignWaWWaP || design == network.DesignWaWOnly
	key, keys, others := 2, 0, 0
	if waw {
		key = 0
	}
	for i := range n {
		if err := poll.tick(); err != nil {
			return nil, err
		}
		src, dst, payload := query(i)
		if i == 0 || payload != sc.pay[i-1] {
			var err error
			if sh, err = m.messageShape(design, payload); err != nil {
				return nil, err
			}
		}
		if sh.a < 1 || sh.b < 1 || !m.p.Dim.Contains(src) || !m.p.Dim.Contains(dst) || src == dst {
			_, err := m.MessageWCTT(design, src, dst, payload)
			return nil, err
		}
		rs, rd := m.topo.RouterOf(src), m.topo.RouterOf(dst)
		sc.pay[i] = payload
		e := sc.ends[4*i : 4*i+4]
		e[0], e[1], e[2], e[3] = int32(rs.X), int32(rs.Y), int32(rd.X), int32(rd.Y)
		end, other := rd, rs
		if waw {
			end, other = rs, rd
		}
		at := end.Y*W + end.X
		if sc.byEnd[at].gen != sc.gen {
			keys++
		}
		if k := other.Y*W + other.X; sc.seen[k] != sc.gen {
			sc.seen[k], others = sc.gen, others+1
		}
		g := sc.group(at, end, sh)
		sc.next[i], g.head = g.head, int32(i)
	}
	if others < keys {
		key = 2 - key
		sc.regroup()
		for i := range n {
			if i == 0 || sc.pay[i] != sc.pay[i-1] {
				sh, _ = m.messageShape(design, sc.pay[i]) // valid: checked above
			}
			end := mesh.Node{X: int(sc.ends[4*i+key]), Y: int(sc.ends[4*i+key+1])}
			g := sc.group(end.Y*W+end.X, end, sh)
			sc.next[i], g.head = g.head, int32(i)
		}
	}
	out = ensureTable(out, n)
	for _, g := range sc.groups {
		if err := m.sweep(sc, g, key == 0, out, &poll); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sweep answers the queries of group g into out, g keyed on its source
// router (bySrc) or on its destination router (see the comment at the top of
// this file).
func (m *Model) sweep(sc *batchScratch, g batchGroup, bySrc bool, out []uint64, poll *batchPoll) error {
	f, e, W := m.fold(g.sh), g.end, m.rdim.Width
	ej, eject := f.planes[mesh.Local], f.eject()
	// The first line, router row or column idx, runs through the key router:
	// along the source row from rs.X, or up and down the destination column
	// from rd.Y, seeded with the ejection hop. far is the offset of a query's
	// other end in ends, and along its coordinate on the first line's axis.
	idx, at, far, along, seed := e.Y, e.X, 2, 0, segMap{p: 1}
	if !bySrc {
		idx, at, far, along, seed = e.X, e.Y, 0, 1, f.hop(ej[e.Y*W+e.X])
	}
	lo, hi := sc.bucket(g, far+along, far+1-along, at)
	f.line(sc.ms, bySrc, idx, at, lo, hi, seed, !bySrc)
	// Every bucket is a line across the first one, a turn column or a source
	// row, swept from where it crosses it.
	for k := lo; k <= hi; k++ {
		i := sc.head[k]
		if i < 0 {
			continue
		}
		sc.head[k] = -1
		f.line(sc.line, !bySrc, k, idx, min(int(sc.lo[k]), idx), max(int(sc.hi[k]), idx), sc.ms[k], !bySrc)
		for ; i >= 0; i = sc.next[i] {
			if err := poll.tick(); err != nil {
				return err
			}
			pos := int(sc.ends[4*int(i)+far+1-along])
			if bySrc {
				out[i] = eject(sc.line[pos], ej[pos*W+k])
			} else {
				out[i] = f.finish(sc.line[pos])
			}
		}
	}
	return nil
}

// sweepFrom writes into out, indexed by router, the bound of shape sh from
// source router rs to every router: the source-keyed sweep of a group whose
// queries are every router, so every position of every line is a
// destination and no bucket is needed.
func (m *Model) sweepFrom(rs mesh.Node, sh msgShape, out []uint64) {
	f, W, Ht := m.fold(sh), m.rdim.Width, m.rdim.Height
	sc := batchScratches.Get().(*batchScratch)
	defer batchScratches.Put(sc)
	sc.ms, sc.line = ensureTable(sc.ms, W), ensureTable(sc.line, Ht)
	ej, eject := f.planes[mesh.Local], f.eject()
	f.line(sc.ms, true, rs.Y, rs.X, 0, W-1, segMap{p: 1}, false)
	for k, start := range sc.ms {
		f.line(sc.line, false, k, rs.Y, 0, Ht-1, start, false)
		for y, s := range sc.line {
			out[y*W+k] = eject(s, ej[y*W+k])
		}
	}
}

// bucket moves the queries of group g onto per-position lists: the queries
// whose ends[4i+ln] is k are linked from sc.head[k], and sc.lo[k], sc.hi[k]
// span their ends[4i+pos]. It returns the span of the occupied positions,
// widened to contain at.
func (sc *batchScratch) bucket(g batchGroup, ln, pos, at int) (first, last int) {
	first, last = at, at
	for i := g.head; i >= 0; {
		next := sc.next[i]
		k, p := sc.ends[4*int(i)+ln], sc.ends[4*int(i)+pos]
		if sc.head[k] < 0 {
			sc.lo[k], sc.hi[k] = p, p
		} else {
			sc.lo[k], sc.hi[k] = min(sc.lo[k], p), max(sc.hi[k], p)
		}
		sc.next[i], sc.head[k] = sc.head[k], i
		first, last = min(first, int(k)), max(last, int(k))
		i = next
	}
	return first, last
}
