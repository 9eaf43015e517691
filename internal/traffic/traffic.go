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
	// AckPayloadBits is a one-flit acknowledgement.
	AckPayloadBits = 16
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
// deterministic random stream.
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

// Rand is the deterministic pseudo-random source used by the generators.
func Rand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

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
// per cycle, approximated at message granularity).
type UniformRandom struct {
	nodes     []mesh.Node // AllNodes, precomputed once
	rng       drawSource  // rate draw: Intn(1000) < messages per node per 1000 cycles
	anyNode   bound       // the destination draw's range, [0, len(nodes))
	payload   int
	remaining int
	pool      *flit.Pool
	out       []*flit.Message // reused Tick result buffer
}

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
	return &UniformRandom{
		nodes:     dim.AllNodes(),
		rng:       newDrawSource(seed, perMil, uint64(ratePerMil)),
		anyNode:   newBound(dim.Nodes()),
		payload:   payload,
		remaining: total,
	}, nil
}

// AttachPool implements PoolAware.
func (u *UniformRandom) AttachPool(p *flit.Pool) { u.pool = p }

// Tick implements Generator.
func (u *UniformRandom) Tick(uint64) []*flit.Message {
	if u.remaining <= 0 {
		return nil
	}
	out := u.out[:0]
	for i := 0; u.remaining > 0; i++ {
		if i = u.rng.scan(i, len(u.nodes)); i == len(u.nodes) {
			break
		}
		src, dst := u.nodes[i], u.nodes[u.rng.intn(u.anyNode)]
		if dst == src {
			continue
		}
		out = append(out, newMessage(u.pool, flit.FlowID{Src: src, Dst: dst}, flit.ClassData, u.payload))
		u.remaining--
	}
	u.out = out
	return out
}

// Done implements Generator.
func (u *UniformRandom) Done() bool { return u.remaining <= 0 }

// NextEvent implements EventSource: while live, every cycle consumes
// pseudo-random draws, so no cycle can be skipped.
func (u *UniformRandom) NextEvent(now uint64) (uint64, bool) {
	if u.remaining <= 0 {
		return 0, false
	}
	return now, true
}

// Hotspot sends requests from every node towards a single hotspot node (the
// memory controller pattern of the paper's platform).
type Hotspot struct {
	sources   []mesh.Node // every node but target, in AllNodes order
	target    mesh.Node
	rng       drawSource // rate draw: Intn(100) < the per-cycle request probability in percent
	payload   int
	remaining int
	pool      *flit.Pool
	out       []*flit.Message // reused Tick result buffer
}

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
	return &Hotspot{
		sources:   slices.Delete(dim.AllNodes(), t, t+1),
		target:    target,
		rng:       newDrawSource(seed, perCent, uint64(ratePct)),
		payload:   payload,
		remaining: total,
	}, nil
}

// AttachPool implements PoolAware.
func (h *Hotspot) AttachPool(p *flit.Pool) { h.pool = p }

// Tick implements Generator.
func (h *Hotspot) Tick(uint64) []*flit.Message {
	if h.remaining <= 0 {
		return nil
	}
	out := h.out[:0]
	for i := 0; h.remaining > 0; i++ {
		if i = h.rng.scan(i, len(h.sources)); i == len(h.sources) {
			break
		}
		out = append(out, newMessage(h.pool, flit.FlowID{Src: h.sources[i], Dst: h.target}, flit.ClassRequest, h.payload))
		h.remaining--
	}
	h.out = out
	return out
}

// Done implements Generator.
func (h *Hotspot) Done() bool { return h.remaining <= 0 }

// NextEvent implements EventSource: while live, every cycle consumes
// pseudo-random draws, so no cycle can be skipped.
func (h *Hotspot) NextEvent(now uint64) (uint64, bool) {
	if h.remaining <= 0 {
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
