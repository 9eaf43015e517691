package network

import (
	"context"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/flit"
	"repro/internal/mesh"
	"repro/internal/router"
	"repro/internal/stats"
)

func node(x, y int) mesh.Node { return mesh.Node{X: x, Y: y} }

func newNet(t *testing.T, w, h int, design Design) *Network {
	t.Helper()
	n, err := New(DefaultConfig(mesh.MustDim(w, h), design))
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func send(t *testing.T, n *Network, src, dst mesh.Node, payloadBits int, class flit.MessageClass) uint64 {
	t.Helper()
	id, err := n.Send(&flit.Message{Flow: flit.FlowID{Src: src, Dst: dst}, PayloadBits: payloadBits, Class: class})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// flowLatencies records, through the delivery hook, the latency of every
// message each flow delivers from now on.
func flowLatencies(n *Network) map[flit.FlowID]*stats.Sampler {
	lat := map[flit.FlowID]*stats.Sampler{}
	n.DeliveryHook = func(m *flit.Message, _ uint64) {
		s := lat[m.Flow]
		if s == nil {
			s = &stats.Sampler{}
			lat[m.Flow] = s
		}
		s.AddUint(m.DeliveredAt - m.CreatedAt)
	}
	return lat
}

func TestDesignString(t *testing.T) {
	names := map[Design]string{
		DesignRegular: "regular",
		DesignWaWWaP:  "WaW+WaP",
		DesignWaWOnly: "WaW-only",
		DesignWaPOnly: "WaP-only",
	}
	for d, want := range names {
		if d.String() != want {
			t.Errorf("%d.String() = %q, want %q", d, d.String(), want)
		}
	}
	if Design(9).String() != "Design(9)" {
		t.Error("unknown design string")
	}
}

func TestConfigValidate(t *testing.T) {
	cfg := DefaultConfig(mesh.MustDim(2, 2), DesignRegular)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := cfg
	bad.BufferDepth = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero buffer depth should be rejected")
	}
	bad.BufferDepth = router.MaxBufferDepth + 1
	if err := bad.Validate(); err == nil {
		t.Error("a buffer depth the router rings cannot hold should be rejected")
	}
	bad = cfg
	bad.Link.WidthBits = 0
	if err := bad.Validate(); err == nil {
		t.Error("invalid link config should be rejected")
	}
	bad = cfg
	bad.Dim = mesh.Dim{}
	if err := bad.Validate(); err == nil {
		t.Error("invalid dim should be rejected")
	}
	// A flit word names its destination router in 16 bits per coordinate:
	// the router grid, not the endpoint grid, may be at most 65536 a side.
	for _, c := range []struct {
		w, h  int
		topo  mesh.TopoSpec
		valid bool
	}{
		{65536, 1, mesh.TopoSpec{}, true},
		{65537, 1, mesh.TopoSpec{}, false},
		{1, 65537, mesh.TopoSpec{}, false},
		{131072, 2, mesh.TopoSpec{Kind: mesh.TopoCMesh, Conc: 2}, true},
		{131074, 2, mesh.TopoSpec{Kind: mesh.TopoCMesh, Conc: 2}, false},
		{2, 131072, mesh.TopoSpec{Kind: mesh.TopoCMesh, Conc: 4}, true},
		{2, 131074, mesh.TopoSpec{Kind: mesh.TopoCMesh, Conc: 4}, false},
	} {
		big := cfg
		big.Dim, big.Topo = mesh.Dim{Width: c.w, Height: c.h}, c.topo
		err := big.Validate()
		if (err == nil) != c.valid || err != nil && !strings.Contains(err.Error(), "limit of 65536 routers per side") {
			t.Errorf("%v %dx%d: error %v, want valid=%v or the 65536-router limit", c.topo, c.w, c.h, err, c.valid)
		}
	}
}

// TestDesignConfiguresNetwork checks that the design point alone sets both
// policies on every topology: WaW arbiters on every router output exactly
// for WaW+WaP and WaW-only, and WaP slicing of a 512-bit message into five
// one-flit packets (four flits as one regular packet) exactly for WaW+WaP
// and WaP-only.
func TestDesignConfiguresNetwork(t *testing.T) {
	flits := map[Design]uint64{DesignRegular: 4, DesignWaWWaP: 5, DesignWaWOnly: 4, DesignWaPOnly: 5}
	for _, spec := range []mesh.TopoSpec{{Kind: mesh.TopoMesh}, {Kind: mesh.TopoCMesh, Conc: 2}, {Kind: mesh.TopoCMesh, Conc: 4}} {
		for design, want := range flits {
			cfg := DefaultConfig(mesh.MustDim(4, 4), design)
			cfg.Topo = spec
			n, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			weighted := design == DesignWaWWaP || design == DesignWaWOnly
			for _, nd := range n.Topology().RouterDim().AllNodes() {
				for _, dir := range mesh.Directions {
					waw := n.Router(nd).Arbiter(dir) != nil
					if n.Topology().HasOutput(nd, dir) && waw != weighted {
						t.Fatalf("%v %v: router %v output %v: WaW arbiter %v, want %v", spec, design, nd, dir, waw, weighted)
					}
				}
			}
			send(t, n, node(0, 0), node(3, 3), 512, flit.ClassReply)
			if !n.RunUntilDrained(500) {
				t.Fatalf("%v %v: network did not drain", spec, design)
			}
			if n.TotalDeliveredMessages() != 1 || n.TotalInjectedFlits() != want {
				t.Errorf("%v %v: %d messages delivered in %d flits, want 1 in %d",
					spec, design, n.TotalDeliveredMessages(), n.TotalInjectedFlits(), want)
			}
		}
	}
}

func TestSendValidation(t *testing.T) {
	n := newNet(t, 2, 2, DesignRegular)
	if _, err := n.Send(nil); err == nil {
		t.Error("nil message should fail")
	}
	if _, err := n.Send(&flit.Message{Flow: flit.FlowID{Src: node(9, 9), Dst: node(0, 0)}}); err == nil {
		t.Error("flow outside mesh should fail")
	}
}

// Zero-load latency: a single one-flit packet crossing h links with no
// contention takes (h + number of routers) cycle steps of pipeline plus the
// injection cycle — in this model one cycle per router traversal plus one
// injection cycle. Verify the exact latency is small, deterministic and
// increases with distance.
func TestZeroLoadLatency(t *testing.T) {
	for _, design := range []Design{DesignRegular, DesignWaWWaP} {
		n := newNet(t, 4, 4, design)
		send(t, n, node(0, 0), node(3, 0), 48, flit.ClassRequest)
		if !n.RunUntilDrained(200) {
			t.Fatalf("%v: network did not drain", design)
		}
		if n.TotalDeliveredMessages() != 1 {
			t.Fatalf("%v: message not delivered", design)
		}
		lat3 := n.AggregateLatency().Mean()

		n2 := newNet(t, 4, 4, design)
		send(t, n2, node(0, 0), node(1, 0), 48, flit.ClassRequest)
		n2.RunUntilDrained(200)
		lat1 := n2.AggregateLatency().Mean()

		if lat3 <= lat1 {
			t.Errorf("%v: latency should grow with distance (1 hop %.0f, 3 hops %.0f)", design, lat1, lat3)
		}
		if lat3 != lat1+2 {
			t.Errorf("%v: expected one extra cycle per extra hop, got %.0f vs %.0f", design, lat1, lat3)
		}
		if lat1 > 10 {
			t.Errorf("%v: unloaded 1-hop latency suspiciously high: %.0f", design, lat1)
		}
	}
}

// A multi-flit message is delivered completely and its serialization latency
// grows with its size.
func TestMultiFlitMessageDelivery(t *testing.T) {
	n := newNet(t, 4, 4, DesignRegular)
	send(t, n, node(0, 0), node(2, 2), 512, flit.ClassReply)
	if !n.RunUntilDrained(500) {
		t.Fatal("network did not drain")
	}
	if n.TotalDeliveredMessages() != 1 {
		t.Fatal("reply not delivered")
	}
	nSmall := newNet(t, 4, 4, DesignRegular)
	send(t, nSmall, node(0, 0), node(2, 2), 48, flit.ClassRequest)
	nSmall.RunUntilDrained(500)
	large, small := n.AggregateLatency().Mean(), nSmall.AggregateLatency().Mean()
	if large <= small {
		t.Errorf("4-flit reply (%.0f cycles) should take longer than 1-flit request (%.0f cycles)", large, small)
	}
}

// Under WaP the same 512-bit payload is sliced into 5 single-flit packets but
// must still arrive as one message.
func TestWaPSlicedMessageDelivery(t *testing.T) {
	n := newNet(t, 4, 4, DesignWaWWaP)
	send(t, n, node(3, 3), node(0, 0), 512, flit.ClassReply)
	if !n.RunUntilDrained(500) {
		t.Fatal("network did not drain")
	}
	if n.TotalDeliveredMessages() != 1 {
		t.Fatalf("delivered %d messages, want 1", n.TotalDeliveredMessages())
	}
	if n.TotalInjectedFlits() != 5 {
		t.Errorf("injected %d flits, want 5 (WaP slicing)", n.TotalInjectedFlits())
	}
}

// Conservation: every message sent is eventually delivered exactly once,
// regardless of design, for a burst of all-to-one traffic.
func TestAllMessagesDeliveredAllToOne(t *testing.T) {
	for _, design := range []Design{DesignRegular, DesignWaWWaP, DesignWaWOnly, DesignWaPOnly} {
		n := newNet(t, 4, 4, design)
		dst := node(0, 0)
		sent := 0
		for _, src := range n.Config().Dim.AllNodes() {
			if src == dst {
				continue
			}
			send(t, n, src, dst, 512, flit.ClassEviction)
			sent++
		}
		if !n.RunUntilDrained(20000) {
			t.Fatalf("%v: network did not drain", design)
		}
		if int(n.TotalDeliveredMessages()) != sent {
			t.Errorf("%v: delivered %d of %d messages", design, n.TotalDeliveredMessages(), sent)
		}
	}
}

// Per-flow in-order delivery: consecutive messages of the same flow are
// delivered in the order they were sent (wormhole networks with a single
// path and FIFO buffers preserve per-flow ordering).
func TestPerFlowOrdering(t *testing.T) {
	n := newNet(t, 4, 4, DesignWaWWaP)
	var order []uint64
	n.DeliveryHook = func(m *flit.Message, at uint64) {
		order = append(order, m.ID)
	}
	var sentIDs []uint64
	for i := 0; i < 10; i++ {
		id := send(t, n, node(3, 3), node(0, 0), 512, flit.ClassData)
		sentIDs = append(sentIDs, id)
	}
	if !n.RunUntilDrained(5000) {
		t.Fatal("network did not drain")
	}
	if len(order) != len(sentIDs) {
		t.Fatalf("delivered %d of %d messages", len(order), len(sentIDs))
	}
	for i := range sentIDs {
		if order[i] != sentIDs[i] {
			t.Fatalf("out-of-order delivery: got %v, want %v", order, sentIDs)
		}
	}
}

// Contention: two sources saturating the same destination share its ejection
// bandwidth; with plain round-robin they get equal throughput.
func TestRoundRobinFairSharingAtHotspot(t *testing.T) {
	n := newNet(t, 3, 3, DesignRegular)
	lat := flowLatencies(n)
	dst := node(0, 0)
	srcA, srcB := node(2, 0), node(0, 2)
	const msgs = 30
	for i := 0; i < msgs; i++ {
		send(t, n, srcA, dst, 48, flit.ClassRequest)
		send(t, n, srcB, dst, 48, flit.ClassRequest)
	}
	if !n.RunUntilDrained(20000) {
		t.Fatal("network did not drain")
	}
	a := lat[flit.FlowID{Src: srcA, Dst: dst}]
	b := lat[flit.FlowID{Src: srcB, Dst: dst}]
	if a == nil || b == nil || a.Count() != msgs || b.Count() != msgs {
		t.Fatal("not all messages delivered")
	}
	// Both flows saturate the same ejection port, so their mean latencies
	// must be of the same order (fair round-robin sharing).
	ratio := a.Mean() / b.Mean()
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("unfair sharing under round-robin: mean latencies %.1f vs %.1f", a.Mean(), b.Mean())
	}
}

// The WaW design must give a far-away flow a larger share of the hotspot
// bandwidth than the regular design does, reducing the latency gap between a
// nearby flow and a far flow under congestion. This is the qualitative
// behaviour behind Table II.
func TestWaWReducesFarFlowPenalty(t *testing.T) {
	type result struct{ near, far float64 }
	measure := func(design Design) result {
		n := newNet(t, 4, 1, design) // a 4-node row: (3,0) is far from (0,0), (1,0) is adjacent
		lat := flowLatencies(n)
		dst := node(0, 0)
		near, far := node(1, 0), node(3, 0)
		const msgs = 40
		for i := 0; i < msgs; i++ {
			send(t, n, near, dst, 48, flit.ClassRequest)
			send(t, n, far, dst, 48, flit.ClassRequest)
			// The intermediate node also competes, making the chained
			// round-robin unfairness visible.
			send(t, n, node(2, 0), dst, 48, flit.ClassRequest)
		}
		if !n.RunUntilDrained(50000) {
			t.Fatal("network did not drain")
		}
		return result{
			near: lat[flit.FlowID{Src: near, Dst: dst}].Max(),
			far:  lat[flit.FlowID{Src: far, Dst: dst}].Max(),
		}
	}
	reg := measure(DesignRegular)
	waw := measure(DesignWaWWaP)
	regGap := reg.far / reg.near
	wawGap := waw.far / waw.near
	if wawGap >= regGap {
		t.Errorf("WaW should narrow the far/near latency gap: regular %.2f, WaW %.2f (reg=%+v waw=%+v)",
			regGap, wawGap, reg, waw)
	}
}

// TestDrainedAndRunHelpers: a network is drained only when no message is
// queued, buffered or partly delivered. A 4-flit regular cache line and a
// 5-packet WaP one are partial reassemblies at their destination NIC from
// their first ejected flit to their last, and keep the network undrained
// even with their source queue empty.
func TestDrainedAndRunHelpers(t *testing.T) {
	for _, design := range []Design{DesignRegular, DesignWaWWaP} {
		n := newNet(t, 2, 2, design)
		send(t, n, node(0, 0), node(1, 0), 512, flit.ClassReply)
		partial := 0
		for !n.Drained() {
			if n.Cycle() > 100 {
				t.Fatalf("%v: cache line did not drain", design)
			}
			// Drained reading true at a partial cycle would end the loop
			// early and miss the count below.
			if p := n.NIC(node(1, 0)).PendingReassemblies(); p > 1 {
				t.Fatalf("%v: %d pending reassemblies for one message", design, p)
			} else if p == 1 {
				partial++
			}
			n.Step()
		}
		if want := map[Design]int{DesignRegular: 3, DesignWaWWaP: 4}[design]; partial != want || n.TotalDeliveredMessages() != 1 {
			t.Errorf("%v: %d cycles with a partial reassembly and %d deliveries, want %d and 1",
				design, partial, n.TotalDeliveredMessages(), want)
		}
	}

	n := newNet(t, 2, 2, DesignRegular)
	if !n.Drained() {
		t.Error("fresh network should be drained")
	}
	send(t, n, node(0, 0), node(1, 1), 48, flit.ClassRequest)
	if n.Drained() {
		t.Error("network with a queued message should not be drained")
	}
	for range 3 {
		n.Step()
	}
	if n.Cycle() != 3 {
		t.Errorf("cycle = %d, want 3", n.Cycle())
	}
	if !n.RunUntilDrained(100) {
		t.Error("network should drain")
	}
	if got := n.AggregateLatency().Count(); got != 1 {
		t.Errorf("aggregate latency count = %d", got)
	}
}

func TestRouterAndNICAccessors(t *testing.T) {
	n := newNet(t, 3, 3, DesignRegular)
	if n.Router(node(1, 1)) == nil || n.NIC(node(2, 2)) == nil {
		t.Error("accessors returned nil")
	}
	if n.Router(node(1, 1)).Node != node(1, 1) {
		t.Error("router node mismatch")
	}
	if n.NIC(node(2, 2)).Node != node(2, 2) {
		t.Error("nic node mismatch")
	}
}

// Property: random batches of messages on a small mesh always drain and the
// delivered count equals the sent count, for both designs (no flit loss,
// duplication or deadlock).
func TestRandomTrafficConservationProperty(t *testing.T) {
	f := func(seeds []uint16, wapDesign bool) bool {
		if len(seeds) == 0 {
			return true
		}
		if len(seeds) > 40 {
			seeds = seeds[:40]
		}
		design := DesignRegular
		if wapDesign {
			design = DesignWaWWaP
		}
		n := MustNew(DefaultConfig(mesh.MustDim(3, 3), design))
		dim := n.Config().Dim
		sent := 0
		for _, s := range seeds {
			src := dim.NodeAt(int(s) % dim.Nodes())
			dst := dim.NodeAt(int(s/16) % dim.Nodes())
			if src == dst {
				continue
			}
			payload := int(s%5) * 128
			if _, err := n.Send(&flit.Message{Flow: flit.FlowID{Src: src, Dst: dst}, PayloadBits: payload}); err != nil {
				return false
			}
			sent++
		}
		if !n.RunUntilDrained(50000) {
			return false
		}
		return int(n.TotalDeliveredMessages()) == sent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRunContextCancellation: the context-aware run window aborts with the
// context's error, and with a live context it behaves exactly like its
// plain counterpart (including the event-idle leap).
func TestRunContextCancellation(t *testing.T) {
	d := mesh.MustDim(4, 4)
	load := func(net *Network) {
		// Sustained traffic so the run windows have real work to abandon.
		for _, src := range []mesh.Node{{X: 3, Y: 3}, {X: 0, Y: 3}, {X: 3, Y: 0}} {
			msg := &flit.Message{
				Flow:        flit.FlowID{Src: src, Dst: mesh.Node{X: 0, Y: 0}},
				Class:       flit.ClassData,
				PayloadBits: 512,
			}
			if _, err := net.Send(msg); err != nil {
				t.Fatal(err)
			}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	net := MustNew(DefaultConfig(d, DesignRegular))
	load(net)
	if drained, err := net.RunUntilDrainedContext(ctx, 100_000); err == nil || drained {
		t.Errorf("cancelled RunUntilDrainedContext: drained=%v err=%v, want aborted", drained, err)
	}
	if net.Cycle() != 0 {
		t.Errorf("cancelled RunUntilDrainedContext advanced to cycle %d before the first poll", net.Cycle())
	}

	ref := MustNew(DefaultConfig(d, DesignRegular))
	load(ref)
	drained, err := net.RunUntilDrainedContext(context.Background(), 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if want := ref.RunUntilDrained(50_000); !drained || drained != want || net.Cycle() != ref.Cycle() {
		t.Errorf("RunUntilDrainedContext (cycle %d, drained %v) diverged from RunUntilDrained (cycle %d, drained %v)",
			net.Cycle(), drained, ref.Cycle(), want)
	}
}
