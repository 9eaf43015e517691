package traffic

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/flit"
	"repro/internal/mesh"
	"repro/internal/network"
)

// Rand is the math/rand stream the generators' draw source replicates.
func Rand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestUniformRandomValidation(t *testing.T) {
	d := mesh.MustDim(4, 4)
	if _, err := NewUniformRandom(mesh.Dim{}, 1, 10, 64, 10); err == nil {
		t.Error("invalid dim should fail")
	}
	if _, err := NewUniformRandom(d, 1, 0, 64, 10); err == nil {
		t.Error("zero rate should fail")
	}
	if _, err := NewUniformRandom(d, 1, 10, 64, -1); err == nil {
		t.Error("negative total should fail")
	}
}

func TestUniformRandomProducesExactlyTotal(t *testing.T) {
	d := mesh.MustDim(4, 4)
	g, err := NewUniformRandom(d, 42, 500, 64, 37)
	if err != nil {
		t.Fatal(err)
	}
	produced := 0
	for cycle := uint64(0); !g.Done() && cycle < 100000; cycle++ {
		msgs := g.Tick(cycle)
		for _, m := range msgs {
			if m.Flow.Src == m.Flow.Dst {
				t.Error("self flow generated")
			}
			if !d.Contains(m.Flow.Src) || !d.Contains(m.Flow.Dst) {
				t.Error("flow outside the mesh")
			}
		}
		produced += len(msgs)
	}
	if produced != 37 {
		t.Errorf("produced %d messages, want 37", produced)
	}
	if !g.Done() {
		t.Error("generator should be done")
	}
	if g.Tick(0) != nil {
		t.Error("done generator should not produce messages")
	}
}

func TestUniformRandomDeterministic(t *testing.T) {
	d := mesh.MustDim(3, 3)
	run := func() []flit.FlowID {
		g, _ := NewUniformRandom(d, 7, 300, 64, 20)
		var flows []flit.FlowID
		for cycle := uint64(0); !g.Done(); cycle++ {
			for _, m := range g.Tick(cycle) {
				flows = append(flows, m.Flow)
			}
		}
		return flows
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different traffic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestHotspotValidation(t *testing.T) {
	d := mesh.MustDim(4, 4)
	target := mesh.Node{X: 0, Y: 0}
	if _, err := NewHotspot(mesh.Dim{}, target, 1, 50, 48, 10); err == nil {
		t.Error("invalid dim should fail")
	}
	if _, err := NewHotspot(d, mesh.Node{X: 9, Y: 9}, 1, 50, 48, 10); err == nil {
		t.Error("target outside mesh should fail")
	}
	if _, err := NewHotspot(d, target, 1, 0, 48, 10); err == nil {
		t.Error("zero rate should fail")
	}
	if _, err := NewHotspot(d, target, 1, 101, 48, 10); err == nil {
		t.Error("rate above 100 should fail")
	}
	if _, err := NewHotspot(d, target, 1, 50, 48, -5); err == nil {
		t.Error("negative total should fail")
	}
}

func TestHotspotTargetsSingleNode(t *testing.T) {
	d := mesh.MustDim(4, 4)
	target := mesh.Node{X: 0, Y: 0}
	g, err := NewHotspot(d, target, 3, 100, RequestPayloadBits, 45)
	if err != nil {
		t.Fatal(err)
	}
	produced := 0
	for cycle := uint64(0); !g.Done() && cycle < 1000; cycle++ {
		for _, m := range g.Tick(cycle) {
			if m.Flow.Dst != target {
				t.Errorf("message to %v, want %v", m.Flow.Dst, target)
			}
			if m.Flow.Src == target {
				t.Error("hotspot node should not send to itself")
			}
			if m.Class != flit.ClassRequest {
				t.Errorf("class = %v, want request", m.Class)
			}
			produced++
		}
	}
	if produced != 45 {
		t.Errorf("produced %d messages, want 45", produced)
	}
}

func TestDriveDeliversEverything(t *testing.T) {
	d := mesh.MustDim(4, 4)
	net := network.MustNew(network.DefaultConfig(d, network.DesignWaWWaP))
	g, err := NewHotspot(d, mesh.Node{X: 0, Y: 0}, 11, 40, RequestPayloadBits, 60)
	if err != nil {
		t.Fatal(err)
	}
	injected, done := Drive(net, g, 100000)
	if !done {
		t.Fatal("drive did not complete")
	}
	if injected != 60 {
		t.Errorf("injected %d messages, want 60", injected)
	}
	if net.TotalDeliveredMessages() != 60 {
		t.Errorf("delivered %d messages, want 60", net.TotalDeliveredMessages())
	}
}

func TestDriveRespectsMaxCycles(t *testing.T) {
	d := mesh.MustDim(2, 2)
	net := network.MustNew(network.DefaultConfig(d, network.DesignRegular))
	g, err := NewHotspot(d, mesh.Node{X: 0, Y: 0}, 1, 100, CacheLinePayloadBits, 1000)
	if err != nil {
		t.Fatal(err)
	}
	_, done := Drive(net, g, 10)
	if done {
		t.Error("drive should not complete in 10 cycles")
	}
}

// TestDrawSourceMatchesMathRand pins the replicated source to math/rand: for
// the ranges the generators use, awkward ones around powers of two and two
// that reject about half of (respectively almost no) raw outputs, drawSource
// must return the values Rand.Intn returns, draw for draw, across several
// block refills, so no seeded traffic stream can differ from math/rand's.
func TestDrawSourceMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{1, 3, 7, 11, 42, 1 << 40, 0, -1, -(1 << 40)} {
		for _, n := range []int{1, 2, 7, 16, 64, 100, 1000, 1 << 20, (1 << 30) + 1, (1 << 31) - 1} {
			ref, b := Rand(seed), newBound(n)
			fast := newDrawSource(seed, b, uint64(n)/2)
			for i := 0; i < 2000; i++ {
				want := ref.Intn(n)
				got := fast.intn(b)
				if want != got {
					t.Fatalf("seed=%d n=%d draw %d: math/rand %d, drawSource %d", seed, n, i, want, got)
				}
			}
		}
	}
	// A scan that ends exactly on, one before or one after a block boundary
	// must hand the stream over intact: consume count draws in one all-miss
	// scan (rate 0), then compare the draws that follow. With n = 2^30+1 the
	// redraw loop itself crosses the boundary.
	for _, n := range []int{1000, (1 << 30) + 1} {
		for _, count := range []int{605, 606, 607, 608, 1213, 1214, 1215, 3 * rngLen} {
			ref, b := Rand(9), newBound(n)
			fast := newDrawSource(9, b, 0)
			for i := 0; i < count; i++ {
				ref.Intn(n)
			}
			if i := fast.scan(0, count); i != count {
				t.Fatalf("n=%d: all-miss scan stopped at %d of %d", n, i, count)
			}
			for i := 0; i < 5; i++ {
				if want, got := ref.Intn(n), fast.intn(b); want != got {
					t.Fatalf("n=%d draw %d after %d: math/rand %d, drawSource %d", n, i, count, want, got)
				}
			}
		}
	}
	// A seeded stream meets Rand.Intn's rejection limit itself once in 2^31
	// draws, so the limit is pinned on hand-made blocks: the largest output
	// Int31n accepts is reduced, the next larger one is skipped, and neither
	// the sign bit nor the low word of an output takes part.
	for _, n := range []int{3, 100, 1000, (1 << 30) + 1, (1 << 31) - 1} {
		max := int32((1 << 31) - 1 - (1<<31)%uint32(n)) // as in Rand.Int31n
		const noise = 1<<63 | 1<<32 - 1
		var d drawSource
		d.vec[0] = uint64(max)<<32 | noise
		d.vec[1] = uint64(max+1)<<32 | noise
		d.vec[2] = 5<<32 | noise
		b := newBound(n)
		if got, want := d.intn(b), int(max%int32(n)); got != want {
			t.Errorf("n=%d: largest accepted output reduced to %d, want %d", n, got, want)
		}
		if got, want := d.intn(b), 5%n; got != want || d.pos != 3 {
			t.Errorf("n=%d: draw after a rejected output = %d at block position %d, want %d at 3", n, got, d.pos, want)
		}
	}
	// Interleaved mixed ranges must stay in lockstep too: the generators
	// alternate rate draws and destination draws on one stream.
	ref, fast := Rand(5), newDrawSource(5, perMil, 2)
	for i := 0; i < 5000; i++ {
		n := []int{1000, 256, 1000, 15, 100, 3}[i%6]
		if want, got := ref.Intn(n), fast.intn(newBound(n)); want != got {
			t.Fatalf("interleaved draw %d (n=%d): math/rand %d, drawSource %d", i, n, want, got)
		}
	}
}

// referenceScan is the per-draw loop scan replaces: node by node, one
// Rand.Intn(d.rate.n) each with rejected outputs redrawn, reduced with a
// plain modulo, on the source's own blocks and without its event bitmap.
func referenceScan(d *drawSource, rate uint64, i, n int) int {
	for ; i < n; i++ {
		var v uint32
		for {
			if d.pos == rngLen {
				d.refill()
				d.pos = 0
			}
			v = uint32(d.vec[d.pos] << 1 >> 33)
			d.pos++
			if v <= d.rate.max {
				break
			}
		}
		if uint64(v)%d.rate.n < rate {
			return i
		}
	}
	return n
}

// TestScanRejectedOutputs: a seeded stream meets Rand.Intn's rejection limit
// once in 2^31 draws, so hand-made blocks put rejected outputs where scan
// must see them as events: twice in a row in the middle of a scan, on the
// first output of a block and on its last, with the scan crossing into the
// next block. Over four 256-node cycles scan must stop at the nodes the
// per-draw loop stops at and leave the block position where it does, for
// both rate ranges, a rate at which every accepted output hits, and a range
// that rejects almost half of the outputs.
func TestScanRejectedOutputs(t *testing.T) {
	const nodes = 256
	const noise = 1<<63 | 1<<32 - 1 // the bits Int31 drops
	word := func(v uint32) uint64 { return uint64(v)<<32 | noise }
	for _, c := range []struct {
		b    bound
		rate uint64
	}{{perMil, 2}, {perCent, 30}, {perCent, 100}, {newBound(1<<30 + 1), 1 << 29}} {
		for _, layout := range []struct {
			name           string
			rejected, hits []int
		}{
			{"mid-scan", []int{10, 11, 40}, []int{20, 300}},
			{"block-start", []int{0}, []int{5}},
			{"block-end", []int{rngLen - 1}, nil},
			{"block-end-after-hit", []int{rngLen - 1}, []int{rngLen - 2}},
		} {
			var block [rngLen]uint64
			for p := range block {
				block[p] = word(uint32(c.b.n - 1)) // a miss unless every output hits
			}
			for _, p := range layout.hits {
				block[p] = word(0)
			}
			for _, p := range layout.rejected {
				// The largest output: rejected, and a miss once reduced, so
				// only its rejection can make it an event.
				block[p] = word(1<<31 - 1)
			}
			d := newDrawSource(1, c.b, c.rate)
			d.load(&block)
			if d.vec != block {
				t.Fatalf("load installed a different block")
			}
			ref := d
			for cycle := 0; cycle < 4; cycle++ {
				for i := 0; ; i++ {
					got, want := d.scan(i, nodes), referenceScan(&ref, c.rate, i, nodes)
					if got != want || d.pos != ref.pos {
						t.Fatalf("n=%d rate=%d %s cycle %d: scan from node %d stopped at %d (block position %d), per-draw loop at %d (%d)",
							c.b.n, c.rate, layout.name, cycle, i, got, d.pos, want, ref.pos)
					}
					if i = got; i == nodes {
						break
					}
				}
			}
		}
	}
}

// reference is the oracle the rate-driven generators are pinned to: the
// per-node loop over math/rand's own Rand.Intn that they ran before the draw
// kernel replaced it.
type reference struct {
	nodes     []mesh.Node
	target    mesh.Node
	rng       *rand.Rand
	rate      int
	payload   int
	remaining int
}

func referenceUniformTick(r *reference) []flit.Message {
	var out []flit.Message
	for _, src := range r.nodes {
		if r.remaining <= 0 {
			break
		}
		if r.rng.Intn(1000) >= r.rate {
			continue
		}
		dst := r.nodes[r.rng.Intn(len(r.nodes))]
		if dst == src {
			continue
		}
		out = append(out, flit.Message{Flow: flit.FlowID{Src: src, Dst: dst}, Class: flit.ClassData, PayloadBits: r.payload})
		r.remaining--
	}
	return out
}

func referenceHotspotTick(r *reference) []flit.Message {
	var out []flit.Message
	for _, src := range r.nodes {
		if r.remaining <= 0 {
			break
		}
		if src == r.target {
			continue
		}
		if r.rng.Intn(100) >= r.rate {
			continue
		}
		out = append(out, flit.Message{Flow: flit.FlowID{Src: src, Dst: r.target}, Class: flit.ClassRequest, PayloadBits: r.payload})
		r.remaining--
	}
	return out
}

// matchReference ticks gen and the oracle side by side and requires the same
// messages in the same order every cycle, and the same Done.
func matchReference(t *testing.T, gen Generator, ref *reference, refTick func(*reference) []flit.Message, ticks int) {
	t.Helper()
	for cycle := 0; cycle < ticks; cycle++ {
		want, got := refTick(ref), gen.Tick(uint64(cycle))
		if len(got) != len(want) {
			t.Fatalf("cycle %d: %d messages, reference %d", cycle, len(got), len(want))
		}
		for i, m := range got {
			if w := want[i]; m.Flow != w.Flow || m.Class != w.Class || m.PayloadBits != w.PayloadBits {
				t.Fatalf("cycle %d message %d: %v class %v payload %d, reference %v class %v payload %d",
					cycle, i, m.Flow, m.Class, m.PayloadBits, w.Flow, w.Class, w.PayloadBits)
			}
		}
		if done := ref.remaining <= 0; gen.Done() != done {
			t.Fatalf("cycle %d: Done() = %v, reference %v", cycle, gen.Done(), done)
		}
	}
}

func matchUniformReference(t *testing.T, d mesh.Dim, seed int64, rate, total, ticks int) {
	t.Helper()
	g, err := NewUniformRandom(d, seed, rate, 64, total)
	if err != nil {
		t.Fatal(err)
	}
	ref := &reference{nodes: d.AllNodes(), rng: Rand(seed), rate: rate, payload: 64, remaining: total}
	matchReference(t, g, ref, referenceUniformTick, ticks)
}

func matchHotspotReference(t *testing.T, d mesh.Dim, target mesh.Node, seed int64, pct, total, ticks int) {
	t.Helper()
	g, err := NewHotspot(d, target, seed, pct, RequestPayloadBits, total)
	if err != nil {
		t.Fatal(err)
	}
	ref := &reference{nodes: d.AllNodes(), target: target, rng: Rand(seed), rate: pct, payload: RequestPayloadBits, remaining: total}
	matchReference(t, g, ref, referenceHotspotTick, ticks)
}

// refillTicks is enough cycles for a generator on d to consume more than
// three blocks of draws even when it draws only once per node per cycle.
func refillTicks(d mesh.Dim) int { return 3*rngLen/d.Nodes() + 40 }

// TestGeneratorsMatchMathRandReference: both rate-driven generators produce,
// message for message, what the math/rand per-node loop produces, on
// degenerate, rectangular and large grids, from rates where nearly every draw
// misses to rates where every draw hits, through several block refills, and
// with totals that run out in the middle of a cycle. The stream is drawn a
// chunk at a time, so it must also survive the chunk boundaries: totals that
// end on a chunk's last message, one message after it and inside chunk 0,
// streams of planChunks chunks on 16x16 and 64x64 grids (the last one at the
// full draw budget), and rates at which the message cap, not the draw
// budget, ends a chunk.
func TestGeneratorsMatchMathRandReference(t *testing.T) {
	dims := []mesh.Dim{mesh.MustDim(1, 1), mesh.MustDim(1, 7), mesh.MustDim(7, 1), mesh.MustDim(4, 4), mesh.MustDim(5, 3), mesh.MustDim(16, 16)}
	seeds := []int64{1, 5, 7, -3, 1 << 40}
	totals := []int{0, 1, 37, 1000, math.MaxInt32}
	for _, d := range dims {
		for _, seed := range seeds {
			for _, total := range totals {
				for _, rate := range []int{1, 2, 40, 400, 999, 1000, 1500} {
					matchUniformReference(t, d, seed, rate, total, refillTicks(d))
				}
				for _, pct := range []int{1, 50, 100} {
					matchHotspotReference(t, d, hotspotTarget(d), seed, pct, total, refillTicks(d))
				}
			}
		}
	}
	for _, c := range []streamCase{
		{"uniform/16x16/rate2", mesh.MustDim(16, 16), 2, false, false},
		{"hotspot/16x16/pct1", mesh.MustDim(16, 16), 1, true, false},
		{"uniform/64x64/rate2", mesh.MustDim(64, 64), 2, false, false},
		{"hotspot/64x64/pct1", mesh.MustDim(64, 64), 1, true, false},
		{"uniform/16x16/rate1000", mesh.MustDim(16, 16), 1000, false, true},
		{"hotspot/16x16/pct100", mesh.MustDim(16, 16), 100, true, true},
		{"uniform/64x64/rate1500", mesh.MustDim(64, 64), 1500, false, true},
	} {
		for _, seed := range []int64{1, -3} {
			ticks, msgs := c.plan(t, seed, planChunks)
			for _, total := range []int{msgs[0] / 2, msgs[0], msgs[0] + 1, msgs[planChunks-2], msgs[planChunks-2] + 1} {
				c.match(t, seed, total, ticks[planChunks-1])
			}
			c.match(t, seed, math.MaxInt32, ticks[planChunks-1]+1)
		}
	}
}

// streamCase is a rate-driven generator whose stream
// TestGeneratorsMatchMathRandReference follows across chunk boundaries:
// rate is per mil for a uniform generator and percent for a hotspot, and
// capped says whether the message cap ends its chunks.
type streamCase struct {
	name    string
	d       mesh.Dim
	rate    int
	hotspot bool
	capped  bool
}

// stream builds the case's generator, not yet ticked.
func (c streamCase) stream(t *testing.T, seed int64, total int) (Generator, *rateStream) {
	t.Helper()
	if c.hotspot {
		g, err := NewHotspot(c.d, hotspotTarget(c.d), seed, c.rate, RequestPayloadBits, total)
		if err != nil {
			t.Fatal(err)
		}
		return g, &g.rateStream
	}
	g, err := NewUniformRandom(c.d, seed, c.rate, 64, total)
	if err != nil {
		t.Fatal(err)
	}
	return g, &g.rateStream
}

// planChunks is how many chunks TestGeneratorsMatchMathRandReference follows
// a stream through: the budget doubles from firstChunkDraws to chunkDraws
// over the first six, so the last one has the full budget.
const planChunks = 7

// plan draws the first k chunks of the case's endless stream with its
// producer alone and returns the Ticks and the messages up to the end of
// each. It fails unless the chunks end the way the case says: the last two on
// the message cap, or every one on the draw budget (the early, small budgets
// end a capped case's first chunks too).
func (c streamCase) plan(t *testing.T, seed int64, k int) (ticks, msgs []int) {
	t.Helper()
	_, s := c.stream(t, seed, math.MaxInt32)
	var ch chunk
	for i := 0; i < k; i++ {
		s.p.fill(&ch)
		capped := len(ch.flows)+s.p.sources > max(chunkMessages, s.p.sources)
		if capped && !c.capped || !capped && c.capped && i >= k-2 || ch.last {
			t.Fatalf("%s seed %d: chunk %d of %d Ticks and %d messages: capped %v (case capped %v), last %v",
				c.name, seed, i, len(ch.counts), len(ch.flows), capped, c.capped, ch.last)
		}
		if i == 0 {
			ticks, msgs = append(ticks, 0), append(msgs, 0)
		} else {
			ticks, msgs = append(ticks, ticks[i-1]), append(msgs, msgs[i-1])
		}
		ticks[i] += len(ch.counts)
		msgs[i] += len(ch.flows)
	}
	return ticks, msgs
}

// match ticks the case's generator with the given total next to the
// math/rand per-node loop.
func (c streamCase) match(t *testing.T, seed int64, total, ticks int) {
	t.Helper()
	if c.hotspot {
		matchHotspotReference(t, c.d, hotspotTarget(c.d), seed, c.rate, total, ticks)
	} else {
		matchUniformReference(t, c.d, seed, c.rate, total, ticks)
	}
}

// hotspotTarget is the target node of the reference tests' hotspot streams.
func hotspotTarget(d mesh.Dim) mesh.Node { return mesh.Node{X: d.Width / 2, Y: d.Height - 1} }

// wrap maps any fuzzed v into [lo, hi].
func wrap(v, lo, hi int) int { return lo + int(uint(v-lo)%uint(hi-lo+1)) }

// FuzzUniformTickMatchesReference lets the fuzzer pick the grid, rate, total
// and run length; the committed corpus (testdata/fuzz) holds the corners of
// the grid above and also runs under plain `go test`.
func FuzzUniformTickMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, w, h, rate, total, ticks int) {
		d := mesh.MustDim(wrap(w, 1, 16), wrap(h, 1, 16))
		matchUniformReference(t, d, seed, wrap(rate, 1, 1500), wrap(total, 0, 1<<20), wrap(ticks, 1, 4096))
	})
}

// FuzzHotspotTickMatchesReference is the same for the hotspot generator: the
// fuzzer also picks the percentage (1 to 100) and the target node.
func FuzzHotspotTickMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, w, h, pct, target, total, ticks int) {
		d := mesh.MustDim(wrap(w, 1, 16), wrap(h, 1, 16))
		matchHotspotReference(t, d, d.NodeAt(wrap(target, 0, d.Nodes()-1)), seed, wrap(pct, 1, 100), wrap(total, 0, 1<<20), wrap(ticks, 1, 4096))
	})
}

// TestDriveContextCancellation: a cancelled context aborts DriveContext with
// the context's error instead of running out the cycle budget, and a live
// context leaves the outcome identical to Drive.
func TestDriveContextCancellation(t *testing.T) {
	d := mesh.MustDim(4, 4)
	mk := func() (*network.Network, Generator) {
		net := network.MustNew(network.DefaultConfig(d, network.DesignWaWWaP))
		g, err := NewHotspot(d, mesh.Node{X: 0, Y: 0}, 11, 40, RequestPayloadBits, 60)
		if err != nil {
			t.Fatal(err)
		}
		return net, g
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	net, g := mk()
	if _, done, err := DriveContext(ctx, net, g, 100000); err == nil || done {
		t.Errorf("cancelled DriveContext: done=%v err=%v, want aborted", done, err)
	}

	net, g = mk()
	refNet, refG := mk()
	injected, done, err := DriveContext(context.Background(), net, g, 100000)
	if err != nil || !done {
		t.Fatalf("live DriveContext: done=%v err=%v", done, err)
	}
	refInjected, refDone := Drive(refNet, refG, 100000)
	if injected != refInjected || done != refDone || net.Cycle() != refNet.Cycle() {
		t.Errorf("DriveContext (%d, %v, cycle %d) diverged from Drive (%d, %v, cycle %d)",
			injected, done, net.Cycle(), refInjected, refDone, refNet.Cycle())
	}
}

// cancelAtPoll is a context whose Err starts to fail at its at-th call.
type cancelAtPoll struct {
	context.Context
	polls, at int
}

// inFlight fails unless s's producer is drawing a chunk on its goroutine.
func inFlight(t *testing.T, s *rateStream) {
	t.Helper()
	if !s.ahead {
		t.Fatal("abandoned with no chunk in flight")
	}
}

func (c *cancelAtPoll) Err() error {
	if c.polls++; c.polls >= c.at {
		return context.Canceled
	}
	return nil
}

// TestAbandonedGeneratorJoins: past its first chunks, a rate-driven
// generator draws its next chunk on a goroutine of its own, and a generator
// abandoned mid-stream must leave at most that chunk running, which then
// exits: after a DriveContext cancelled mid-stream, a Drive whose cycle
// budget ends mid-stream, a generator dropped a Tick after its first chunk
// drawn ahead was started and an endless one (the load curve's MaxInt32
// total) dropped after several chunks, the goroutine count must be back to
// its starting value within a second. Each case checks that a chunk was in
// flight when the generator was abandoned.
func TestAbandonedGeneratorJoins(t *testing.T) {
	d := mesh.MustDim(16, 16)
	uniform := func(total int) *UniformRandom {
		g, err := NewUniformRandom(d, 1, 2, RequestPayloadBits, total)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"cancelled-drive", func(t *testing.T) {
			net := network.MustNew(network.DefaultConfig(d, network.DesignRegular))
			ctx := &cancelAtPoll{Context: context.Background(), at: 3} // at cycle 8192, chunk 13 or so
			g := uniform(50_000)
			if _, done, err := DriveContext(ctx, net, g, math.MaxInt32); done || !errors.Is(err, context.Canceled) {
				t.Fatalf("DriveContext: done %v, err %v; want cancelled", done, err)
			}
			inFlight(t, &g.rateStream)
		}},
		{"drive-budget", func(t *testing.T) {
			net := network.MustNew(network.DefaultConfig(d, network.DesignWaWWaP))
			g, err := NewHotspot(d, mesh.Node{X: 0, Y: 0}, 11, 1, RequestPayloadBits, 50_000)
			if err != nil {
				t.Fatal(err)
			}
			if injected, done := Drive(net, g, 5_000); done || injected == 0 {
				t.Fatalf("Drive: %d injected, done %v; want a partial run", injected, done)
			}
			inFlight(t, &g.rateStream)
		}},
		{"dropped", func(t *testing.T) {
			g := uniform(50_000)
			cycle := uint64(0)
			for ; !g.ahead; cycle++ {
				g.Tick(cycle)
			}
			g.Tick(cycle)
		}},
		{"endless", func(t *testing.T) {
			g := uniform(math.MaxInt32)
			for cycle := uint64(0); cycle < 5_000; cycle++ {
				g.Tick(cycle)
			}
			if g.Done() {
				t.Fatal("endless generator done")
			}
			inFlight(t, &g.rateStream)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			goroutines := runtime.NumGoroutine()
			c.run(t)
			// The count may also end lower: the starting one can include
			// an earlier case's goroutine on its way out.
			for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > goroutines {
				t.Fatalf("%d goroutines a second after the generator was abandoned, %d before", n, goroutines)
			}
		})
	}
}
