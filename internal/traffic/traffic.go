// Package traffic provides the traffic generators that drive the NoC
// simulator: open-loop synthetic patterns (uniform random, hotspot,
// all-to-one memory traffic) and a deterministic pseudo-random source so that
// simulations are reproducible.
//
// The paper's evaluation platform generates two kinds of NoC traffic from the
// cores: one-flit load/write-miss requests answered by 4-flit (512-bit cache
// line) replies, and 4-flit eviction (write-back) messages answered by
// one-flit acknowledgements. The generators in this package produce the
// request side of those transactions; the closed-loop reply side is handled
// by the memctrl and manycore packages.
package traffic

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"

	"repro/internal/flit"
	"repro/internal/mesh"
	"repro/internal/network"
)

// Standard message payload sizes of the evaluation platform (Section IV).
const (
	// RequestPayloadBits is the payload of a load/write-miss request
	// (address plus command, well within one flit).
	RequestPayloadBits = 48
	// CacheLinePayloadBits is a 64-byte cache line.
	CacheLinePayloadBits = 512
)

// Generator produces messages to inject at given cycles.
type Generator interface {
	// Tick returns the messages to inject at the given cycle. The returned
	// messages have their Flow, Class and PayloadBits fields set. The
	// returned slice is only valid until the next Tick call: generators
	// reuse it to keep the injection loop allocation-free.
	Tick(cycle uint64) []*flit.Message
	// Done reports whether the generator will never produce messages again.
	Done() bool
}

// EventSource is implemented by generators that can bound their next action,
// enabling time-leap scheduling: NextEvent returns the earliest cycle >= now
// at which a Tick call may return messages or mutate generator state, and
// false when no such cycle exists. Cycles strictly before the returned one
// can be skipped without calling Tick — the skipped calls are provably
// no-ops. Generators that consume pseudo-random state on every Tick (the
// rate-driven ones) must return now itself while they are live: for them
// every cycle is an event, because skipping a Tick would desynchronise the
// deterministic random stream. The caller's goroutine alone calls Tick and
// NextEvent and steps the network; a rate-driven generator only draws its
// stream ahead on a goroutine of its own, which touches neither.
type EventSource interface {
	Generator
	NextEvent(now uint64) (uint64, bool)
}

// PoolAware is implemented by generators that can draw their messages from a
// message/flit free-list pool (normally the target network's, see
// flit.Pool). Attaching a pool makes steady-state injection allocation-free;
// the network recycles each pooled message as soon as its flits have been
// enqueued at the source NIC.
type PoolAware interface {
	AttachPool(p *flit.Pool)
}

// AttachNetworkPool connects gen to net's message pool when the generator
// supports pooling (a no-op otherwise).
func AttachNetworkPool(gen Generator, net *network.Network) {
	if pa, ok := gen.(PoolAware); ok {
		pa.AttachPool(net.Pool())
	}
}

// newMessage builds a message, drawn from the pool when one is attached.
func newMessage(p *flit.Pool, flow flit.FlowID, class flit.MessageClass, payload int) *flit.Message {
	var msg *flit.Message
	if p != nil {
		msg = p.GetMessage()
	} else {
		msg = &flit.Message{}
	}
	msg.Flow, msg.Class, msg.PayloadBits = flow, class, payload
	return msg
}

// drawSource is an exact replica of math/rand's default source, the additive
// lagged-Fibonacci generator out[n] = out[n-607] + out[n-273] (mod 2^64).
// Each output of that source is also the state word it has just stored, so
// the first 607 outputs of rand.NewSource(seed) are its whole state:
// newDrawSource captures them and refill extends the stream a block at a time,
// with no interface call and no tap bookkeeping per draw. Bounded draws apply
// Rand.Intn's rejection rule to the same 31 bits of each output, so every
// stream is bit-identical to rand.New(rand.NewSource(seed)).
//
// A source serves one generator and knows its per-node rate draw ("does this
// node send this cycle?"). The pass that writes a block also marks its
// events: the outputs that hit the rate draw and the ones Rand.Intn rejects.
// Every other output is a plain miss, so scan walks a cycle's nodes from
// event to event and does per-draw work only at one.
// TestDrawSourceMatchesMathRand and TestScanRejectedOutputs pin the draws
// across refills, and TestGeneratorsMatchMathRandReference and the
// Fuzz*TickMatchesReference targets pin both generators to the math/rand
// per-node loop kept in traffic_test.go.
type drawSource struct {
	vec [rngLen]uint64 // one block of consecutive outputs
	// events marks outputs most significant bit first (bit 63-p%64 of word
	// p/64 is vec[p]) and always marks position rngLen, as a sentinel.
	events [rngLen/64 + 1]uint64
	pos    int // vec[pos:] is not consumed yet

	rate  bound  // the range of the rate draw
	below uint64 // an accepted output v hits iff rate.recip*v mod 2^64 < below
}

const rngLen, rngTap = 607, 273 // the two lags; rngLen is also the state size

// newDrawSource returns the source of rand.NewSource(seed) for a generator
// whose rate draw hits when Rand.Intn(b.n) < rate. It panics when the
// replica's second block differs from the next 607 outputs of the real
// source, i.e. when math/rand has stopped being this recurrence: a silent
// fallback would change every seeded traffic stream.
func newDrawSource(seed int64, b bound, rate uint64) drawSource {
	src, ok := rand.NewSource(seed).(rand.Source64)
	if !ok {
		panic("traffic: math/rand source of " + runtime.Version() + " is not a rand.Source64")
	}
	d := drawSource{rate: b, below: ^uint64(0)} // for n <= 2^31 the low product never reaches 2^64-1
	if rate < b.n {
		// The draw is the high word of (recip*v mod 2^64) * n, so it is below
		// rate exactly when the low product is below ⌈rate·2^64/n⌉.
		d.below, _ = bits.Div64(rate, b.n-1, b.n)
	}
	var first [rngLen]uint64
	for i := range first {
		first[i] = src.Uint64()
	}
	d.load(&first)
	next := d
	next.refill()
	for i, v := range next.vec {
		if got := src.Uint64(); got != v {
			panic(fmt.Sprintf("traffic: math/rand of %s is not the lagged-Fibonacci source drawSource replicates (output %d: %#x, replica %#x)", runtime.Version(), rngLen+i, got, v))
		}
	}
	return d
}

// load makes block the current block, events marked, by refilling from the
// state that precedes it: the recurrence inverted, block[i] = prev[i] +
// prev[i+334] below the tap and block[i] = prev[i] + block[i-273] from it on.
func (d *drawSource) load(block *[rngLen]uint64) {
	for i := rngTap; i < rngLen; i++ {
		d.vec[i] = block[i] - block[i-rngTap]
	}
	for i := 0; i < rngTap; i++ {
		d.vec[i] = block[i] - d.vec[i+rngLen-rngTap]
	}
	d.refill()
	d.pos = 0
}

// refill replaces the block with the next rngLen outputs and, in the same
// pass, marks their events without a branch per output; callers rewind pos.
func (d *drawSource) refill() {
	// Rand.Intn rejects output x iff x<<1 > keep (its 31 bits exceed max).
	recip, below, keep := d.rate.recip, d.below, uint64(d.rate.max)<<33|1<<33-1
	for w := range d.events {
		var hits, rejected uint64 // shift registers of the two tests' borrows
		end := min(w*64+64, rngLen)
		for i := w * 64; i < end; i++ {
			j := i + rngLen - rngTap
			if i >= rngTap {
				j = i - rngTap
			}
			x := d.vec[i] + d.vec[j]
			d.vec[i] = x
			y := x << 1
			_, c := bits.Sub64(recip*(y>>33), below, 0) // y>>33 is Source.Int63() >> 32
			hits, _ = bits.Add64(hits, hits, c)
			_, c = bits.Sub64(keep, y, 0)
			rejected, _ = bits.Add64(rejected, rejected, c)
		}
		d.events[w] = (hits | rejected) << (64 - (end - w*64))
	}
	d.events[rngLen/64] |= 1 << (63 - rngLen%64)
}

// bound is a draw range [0, n), 0 < n <= MaxInt32, with Rand.Intn's rejection
// limit and the 64-bit reciprocal of n precomputed: reducing a draw costs two
// multiplies and no divide (Lemire's fastmod, exact for 32-bit operands). For
// a power of two the limit rejects nothing and v%n is math/rand's mask.
type bound struct {
	n, recip uint64
	max      uint32 // largest 31-bit output Rand.Intn(n) accepts
}

func newBound(n int) bound {
	return bound{n: uint64(n), recip: ^uint64(0)/uint64(n) + 1, max: 1<<31 - 1 - uint32((1<<31)%uint64(n))}
}

var perMil, perCent = newBound(1000), newBound(100) // the ranges of the rate draws

// scan takes the rate draws of nodes i, i+1, ..., n-1, one accepted output
// each, and returns the first node whose draw hits (n if none does): one
// cycle's per-node decisions. The outputs before the next event all miss, so
// node and block position advance by their count in one step; at an event a
// rejected output makes the same node redraw and an accepted one is a hit.
func (d *drawSource) scan(i, n int) int {
	pos := d.pos
	for {
		e := d.nextEvent(pos)
		if i+e-pos >= n {
			d.pos = pos + n - i
			return n
		}
		i += e - pos
		if e == rngLen {
			d.refill()
			pos = 0
			continue
		}
		pos = e + 1
		if uint32(d.vec[e]<<1>>33) <= d.rate.max {
			d.pos = pos
			return i
		}
	}
}

// nextEvent returns the first event position at or after pos; the sentinel
// makes it rngLen when the block has none left.
func (d *drawSource) nextEvent(pos int) int {
	w := pos >> 6
	m := d.events[w] & (^uint64(0) >> (pos & 63)) // positions before pos cleared
	for m == 0 {
		w++
		m = d.events[w]
	}
	return w<<6 + bits.LeadingZeros64(m)
}

// intn returns one Rand.Intn draw in b, read straight from the block.
func (d *drawSource) intn(b bound) int {
	for {
		if d.pos == rngLen {
			d.refill()
			d.pos = 0
		}
		v := uint32(d.vec[d.pos] << 1 >> 33)
		d.pos++
		if v <= b.max {
			draw, _ := bits.Mul64(b.recip*uint64(v), b.n)
			return int(draw)
		}
	}
}

// UniformRandom injects requests from every node to uniformly random
// destinations at a fixed per-node injection rate (flit-equivalents per node
// per cycle, approximated at message granularity). Its rate draw is
// Intn(1000) < messages per node per 1000 cycles, and a hit draws the
// destination from every node, itself included, dropping the message when it
// is the source.
type UniformRandom struct{ rateStream }

// NewUniformRandom builds a uniform-random generator producing `total`
// messages overall at roughly ratePerMil messages per node per 1000 cycles
// with the given payload size.
func NewUniformRandom(dim mesh.Dim, seed int64, ratePerMil, payload, total int) (*UniformRandom, error) {
	if err := dim.Validate(); err != nil {
		return nil, err
	}
	if ratePerMil <= 0 {
		return nil, fmt.Errorf("traffic: injection rate must be positive, got %d", ratePerMil)
	}
	if total < 0 {
		return nil, fmt.Errorf("traffic: total message count must be non-negative, got %d", total)
	}
	nodes := dim.AllNodes()
	rng := newDrawSource(seed, perMil, uint64(ratePerMil))
	return &UniformRandom{newRateStream(nodes, nodes, rng, newBound(len(nodes)), flit.ClassData, payload, total)}, nil
}

// Hotspot sends requests from every node towards a single hotspot node (the
// memory controller pattern of the paper's platform). Its rate draw is
// Intn(100) < the per-cycle request probability in percent, taken by every
// node but the target.
type Hotspot struct{ rateStream }

// NewHotspot builds an all-to-one generator towards target producing `total`
// messages overall; each cycle every node issues a request with probability
// ratePct percent.
func NewHotspot(dim mesh.Dim, target mesh.Node, seed int64, ratePct, payload, total int) (*Hotspot, error) {
	if err := dim.Validate(); err != nil {
		return nil, err
	}
	if !dim.Contains(target) {
		return nil, fmt.Errorf("traffic: hotspot %v outside %v mesh", target, dim)
	}
	if ratePct <= 0 || ratePct > 100 {
		return nil, fmt.Errorf("traffic: rate must be in (0,100], got %d", ratePct)
	}
	if total < 0 {
		return nil, fmt.Errorf("traffic: total message count must be non-negative, got %d", total)
	}
	t := dim.Index(target)
	sources := slices.Delete(dim.AllNodes(), t, t+1)
	rng := newDrawSource(seed, perCent, uint64(ratePct))
	return &Hotspot{newRateStream(sources, []mesh.Node{target}, rng, bound{}, flit.ClassRequest, payload, total)}, nil
}

// A rate-driven generator's stream is drawn a chunk at a time by a producer
// and handed out by Tick. Every Tick of such a generator draws one rate
// output per source, and a uniform hit one destination output more, so
// drawing is most of what a Tick costs; none of it reads network state. A
// chunk's draw budget starts small and doubles up to a ceiling. The chunks of
// a young stream are drawn inline when Tick needs them, so a short stream (a
// sweep's small scenarios) never meets another goroutine, even when every
// core is busy. From the first chunk whose budget reaches aheadDraws on, the
// producer draws chunk k+1 on a goroutine of its own while Tick hands out
// chunk k; that pays only when a core is free to run it. Two buffers take
// turns; the channel that returns a filled one has room for it, so the
// goroutine of an abandoned generator finishes its chunk and exits. The draws
// made ahead of use (the rest of chunk k and all of chunk k+1) stay within a
// small factor of the draws already handed out, so an abandoned stream, such
// as a load-curve point's endless one, draws little it never uses. The stream
// is the one Tick-by-Tick drawing gives, at any GOMAXPROCS: a chunk holds
// whole Ticks, and the last one ends with the Tick that draws the final
// message.

// A chunk takes whole Ticks while it has drawn fewer outputs than its budget
// (a Tick with no source counts as one draw), so its cost does not depend on
// the mesh. The budget of chunk k is firstChunkDraws·2^k, at most chunkDraws;
// chunks of budget aheadDraws and more are drawn ahead on a goroutine.
// chunkMessages caps a chunk's messages (raised to one Tick's worth on larger
// grids), so its memory does not depend on the rate.
const (
	firstChunkDraws, aheadDraws, chunkDraws = 1 << 12, 1 << 16, 1 << 18
	chunkMessages                           = 1 << 14
)

// chunk is a stretch of whole Ticks: the message count of each, then every
// message's source and destination index in emission order.
type chunk struct {
	counts []int32
	flows  []indexFlow
	last   bool // the stream's final message is in this chunk
}

// indexFlow is one message: indices into the generator's source and
// destination lists.
type indexFlow struct{ src, dst int32 }

// producer draws a generator's chunks. It owns the draw source and the count
// of messages left to draw, and touches nothing else: not the generator, its
// pool, or a network.
type producer struct {
	rng       drawSource
	sources   int   // rate draws per Tick, one per source
	dest      bound // the destination draw's range; n == 0: the one destination, index 0
	remaining int
	budget    int         // the draw budget of the next chunk
	next      *chunk      // the buffer fillNext writes
	ready     chan *chunk // capacity 1: fillNext never blocks
	fillNext  func()      // fill next, send it on ready; built once, so go allocates nothing
}

func newProducer(rng drawSource, sources int, dest bound, total int) *producer {
	p := &producer{rng: rng, sources: sources, dest: dest, remaining: total, budget: firstChunkDraws, ready: make(chan *chunk, 1)}
	p.fillNext = func() {
		c := p.next
		p.fill(c)
		p.ready <- c
	}
	return p
}

// fill draws the next chunk into c, reusing its buffers. A Tick takes the
// rate draws of sources 0, 1, ... in order; a hit on a uniform generator draws
// the destination and is dropped when that is the source itself. The chunk
// ends before a Tick that would start past the draw budget or could pass the
// message cap, and with the Tick that draws the last message; the next
// chunk's budget is twice this one's, up to chunkDraws.
func (p *producer) fill(c *chunk) {
	counts, flows := c.counts[:0], c.flows[:0]
	n, budget := p.sources, p.budget
	p.budget = min(2*budget, chunkDraws)
	perTick := max(n, 1) // the fewest draws a Tick makes
	if ticks := (budget + perTick - 1) / perTick; cap(counts) < ticks {
		counts = make([]int32, 0, ticks) // as many Ticks as the budget allows, so counts never grows
	}
	msgCap := max(chunkMessages, n)
	for draws := 0; draws < budget && len(flows)+n <= msgCap && p.remaining > 0; draws += perTick {
		start := len(flows)
		for i := 0; p.remaining > 0; i++ {
			if i = p.rng.scan(i, n); i == n {
				break
			}
			dst := 0
			if p.dest.n != 0 {
				draws++
				if dst = p.rng.intn(p.dest); dst == i {
					continue
				}
			}
			flows = append(flows, indexFlow{int32(i), int32(dst)})
			p.remaining--
		}
		counts = append(counts, int32(len(flows)-start))
	}
	c.counts, c.flows, c.last = counts, flows, p.remaining <= 0
}

// rateStream is what a rate-driven generator is: Tick hands out the
// producer's chunks as pooled messages on the caller's goroutine. remaining
// is its own count of the messages not yet handed out.
type rateStream struct {
	sources, dests []mesh.Node
	class          flit.MessageClass
	payload        int
	remaining      int
	pool           *flit.Pool
	p              *producer
	cur, spare     *chunk // the chunk being handed out and the other buffer; nil before the first Tick
	ahead          bool   // the producer's goroutine is drawing the next chunk into spare
	tick, at       int    // cur's next Tick and that Tick's first message
	out            []*flit.Message
}

func newRateStream(sources, dests []mesh.Node, rng drawSource, dest bound, class flit.MessageClass, payload, total int) rateStream {
	return rateStream{sources: sources, dests: dests, class: class, payload: payload, remaining: total,
		p: newProducer(rng, len(sources), dest, total)}
}

// AttachPool implements PoolAware.
func (s *rateStream) AttachPool(p *flit.Pool) { s.pool = p }

// Tick implements Generator.
func (s *rateStream) Tick(uint64) []*flit.Message {
	if s.remaining <= 0 {
		return nil
	}
	if s.cur == nil || s.tick == len(s.cur.counts) {
		s.advance()
	}
	n := int(s.cur.counts[s.tick])
	out := s.out[:0]
	for _, f := range s.cur.flows[s.at : s.at+n] {
		out = append(out, newMessage(s.pool, flit.FlowID{Src: s.sources[f.src], Dst: s.dests[f.dst]}, s.class, s.payload))
	}
	s.tick, s.at, s.remaining = s.tick+1, s.at+n, s.remaining-n
	s.out = out
	return out
}

// advance moves on to the next chunk: received from the goroutine that drew
// it, or else drawn inline. Unless it is the last, the chunk after it is
// started on the goroutine, in the other buffer, once its budget has reached
// aheadDraws.
func (s *rateStream) advance() {
	p := s.p
	if s.cur == nil {
		s.cur, s.spare = &chunk{}, &chunk{}
	}
	if s.ahead {
		s.cur, s.spare = <-p.ready, s.cur
	} else {
		p.fill(s.cur)
	}
	if s.ahead = !s.cur.last && p.budget >= aheadDraws; s.ahead {
		p.next = s.spare
		go p.fillNext()
	}
	s.tick, s.at = 0, 0
}

// Done implements Generator.
func (s *rateStream) Done() bool { return s.remaining <= 0 }

// NextEvent implements EventSource: while live, every cycle consumes
// pseudo-random draws, so no cycle can be skipped.
func (s *rateStream) NextEvent(now uint64) (uint64, bool) {
	if s.remaining <= 0 {
		return 0, false
	}
	return now, true
}

// Drive runs the generator against the network until the generator is done
// and the network has drained, or until maxCycles have elapsed. It returns
// the number of messages injected and whether the run completed.
//
// Drive attaches pool-aware generators to the network's message pool, and it
// is time-leap aware: whenever the network is event-idle (Network.Leapable)
// and the generator can bound its next action (EventSource), the skipped
// cycles are leapt over in O(1) instead of stepped through. The observable
// outcome — every injection cycle, every delivery, the final cycle count and
// the return values — is identical to the cycle-by-cycle loop, because only
// provably no-op cycles are skipped; idle, warmup and drain windows just
// cost O(events) instead of O(cycles).
func Drive(net *network.Network, gen Generator, maxCycles int) (int, bool) {
	injected, done, _ := DriveContext(context.Background(), net, gen, maxCycles)
	return injected, done
}

// DriveContext is Drive with cooperative cancellation, polled every few
// thousand iterations so even a single long simulate point honours a sweep's
// cancellation. It additionally returns ctx's error when the run was
// abandoned before completing (the injected count and completion flag then
// describe the partial run).
func DriveContext(ctx context.Context, net *network.Network, gen Generator, maxCycles int) (int, bool, error) {
	AttachNetworkPool(gen, net)
	injected := 0
	if maxCycles <= 0 {
		return injected, gen.Done() && net.Drained(), nil
	}
	es, _ := gen.(EventSource)
	deadline := net.Cycle() + uint64(maxCycles)
	for iter := 0; net.Cycle() < deadline; iter++ {
		if iter&ctxPollMask == 0 {
			if err := ctx.Err(); err != nil {
				return injected, false, err
			}
		}
		for _, msg := range gen.Tick(net.Cycle()) {
			if _, err := net.Send(msg); err == nil {
				injected++
			}
		}
		if gen.Done() && net.Drained() {
			return injected, true, nil
		}
		if es != nil && net.Leapable() {
			// min(horizons): the generator's next event, capped by the
			// cycle budget. No event source means no horizon bound, and a
			// live non-EventSource generator must be ticked every cycle.
			target := deadline
			if next, ok := es.NextEvent(net.Cycle() + 1); ok && next < target {
				target = next
			}
			net.LeapTo(target)
			continue
		}
		net.Step()
	}
	return injected, gen.Done() && net.Drained(), nil
}

// ctxPollMask throttles the cancellation poll of DriveContext to once every
// 4096 loop iterations — invisible next to a simulated cycle, while keeping
// the cancellation latency bounded.
const ctxPollMask = 1<<12 - 1
