package analysis

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mesh"
	"repro/internal/network"
)

// batchQuery is one query of a BatchMessageWCTT call in the tests.
type batchQuery struct {
	src, dst mesh.Node
	payload  int
}

// batchOf answers qs through BatchMessageWCTT.
func batchOf(m *Model, design network.Design, qs []batchQuery) ([]uint64, error) {
	return m.BatchMessageWCTT(context.Background(), design, len(qs), func(i int) (mesh.Node, mesh.Node, int) {
		return qs[i].src, qs[i].dst, qs[i].payload
	}, nil)
}

// checkBatch holds BatchMessageWCTT on qs to MessageWCTT query by query: the
// same bound in every position, or the error of the first invalid query and
// no bound.
func checkBatch(t *testing.T, m *Model, design network.Design, qs []batchQuery) {
	t.Helper()
	got, err := batchOf(m, design, qs)
	want := make([]uint64, len(qs))
	var wantErr error
	for i, q := range qs {
		if want[i], wantErr = m.MessageWCTT(design, q.src, q.dst, q.payload); wantErr != nil {
			break
		}
	}
	name := fmt.Sprintf("%v %v %v, %d queries", m.topo, m.p.Dim, design, len(qs))
	switch {
	case wantErr != nil:
		if err == nil || err.Error() != wantErr.Error() || got != nil {
			t.Fatalf("%s: got %d bounds and error %v, want no bound and %v", name, len(got), err, wantErr)
		}
	case err != nil:
		t.Fatalf("%s: %v", name, err)
	case len(got) != len(qs):
		t.Fatalf("%s: %d bounds", name, len(got))
	default:
		for i := range qs {
			if got[i] != want[i] {
				t.Fatalf("%s: query %d %v->%v payload %d: batch %d, MessageWCTT %d", name, i, qs[i].src, qs[i].dst, qs[i].payload, got[i], want[i])
			}
		}
	}
}

// batchModels builds a model for every topology and endpoint grid of the
// batch tests that the topology tiles: 1x1 to 8x8, 2x9 and 9x2.
func batchModels(t *testing.T) []*Model {
	t.Helper()
	var dims []mesh.Dim
	for w := 1; w <= 8; w++ {
		for h := 1; h <= 8; h++ {
			dims = append(dims, mesh.MustDim(w, h))
		}
	}
	dims = append(dims, mesh.MustDim(2, 9), mesh.MustDim(9, 2))
	var models []*Model
	for _, spec := range []mesh.TopoSpec{{Kind: mesh.TopoMesh}, {Kind: mesh.TopoCMesh, Conc: 2}, {Kind: mesh.TopoCMesh, Conc: 4}} {
		for _, d := range dims {
			p := DefaultParams(d)
			p.Topo = spec
			if m, err := NewModel(p); err == nil {
				models = append(models, m)
			}
		}
	}
	return models
}

var batchPayloads = []int{0, 512, 4096, 1 << 20}

// chainPayloads are payloads of three and four distinct message shapes under
// every design.
var chainPayloads = [][]int{{512, 4096, 1 << 20}, {48, 4096, 65536, 1 << 20}}

// TestBatchMatchesMessageWCTT is exhaustive over the small grids of the mesh
// and both concentrated meshes and over every design: every ordered pair of
// distinct endpoints as one batch, for each payload; every pair at one
// payload followed by every pair at a payload of its own; then shuffled
// subsets of the pairs with duplicates and a payload per query, so groups of
// one shape share a router with groups of another; every query to or from
// one router with three or four shapes interleaved, so that router chains
// that many groups; then a batch whose first invalid query sits behind valid
// queries of other groups.
func TestBatchMatchesMessageWCTT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range batchModels(t) {
		nodes := m.p.Dim.AllNodes()
		var pairs []batchQuery
		for _, src := range nodes {
			for _, dst := range nodes {
				if src != dst {
					pairs = append(pairs, batchQuery{src: src, dst: dst})
				}
			}
		}
		for _, design := range allDesigns {
			for _, payload := range batchPayloads {
				all := append([]batchQuery(nil), pairs...)
				for i := range all {
					all[i].payload = payload
				}
				checkBatch(t, m, design, all)
			}
			if len(pairs) == 0 {
				checkBatch(t, m, design, nil)
				continue
			}
			// Every pair at one payload, then every pair at a payload of
			// its own: a group per router and shape, dense groups and lone
			// queries in one call.
			qs := append([]batchQuery(nil), pairs...)
			for i, q := range pairs {
				q.payload = 1000 + 37*i
				qs = append(qs, q)
			}
			checkBatch(t, m, design, qs)
			// Every query to or from one router, its payload cycling through
			// three or four shapes: the router carries a chain of groups as
			// either route end, and each query must land in its own shape's.
			for _, payloads := range chainPayloads {
				shapes := map[msgShape]bool{}
				for _, p := range payloads {
					sh, err := m.messageShape(design, p)
					if err != nil {
						t.Fatal(err)
					}
					shapes[sh] = true
				}
				if len(shapes) != len(payloads) {
					t.Fatalf("%v: payloads %v give %d shapes, want one each", design, payloads, len(shapes))
				}
				for _, end := range []mesh.Node{nodes[0], nodes[len(nodes)/2]} {
					r := m.topo.RouterOf(end)
					var qs []batchQuery
					for _, q := range pairs {
						if m.topo.RouterOf(q.src) == r || m.topo.RouterOf(q.dst) == r {
							q.payload = payloads[len(qs)%len(payloads)]
							qs = append(qs, q)
						}
					}
					checkBatch(t, m, design, qs)
				}
			}
			for _, n := range []int{1, 2, 7, len(pairs), 3 * len(pairs)} {
				qs := make([]batchQuery, n)
				for i := range qs {
					qs[i] = pairs[rng.Intn(len(pairs))]
					qs[i].payload = batchPayloads[rng.Intn(len(batchPayloads))]
				}
				checkBatch(t, m, design, qs)
			}
			bad := []batchQuery{
				{src: nodes[0], dst: nodes[0]},
				{src: nodes[0], dst: mesh.Node{X: m.p.Dim.Width, Y: 0}},
				{src: mesh.Node{X: -1, Y: 0}, dst: nodes[0]},
			}
			for _, b := range bad {
				qs := append([]batchQuery(nil), pairs...)
				rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
				at := rng.Intn(len(qs) + 1)
				qs = append(qs[:at], append([]batchQuery{b, bad[rng.Intn(len(bad))]}, qs[at:]...)...)
				checkBatch(t, m, design, qs)
			}
		}
	}
}

// TestBatchDeadline pins the poll: a call asks its context before the first
// query and once per 1024 queries of work after it, and returns the error it
// is given.
func TestBatchDeadline(t *testing.T) {
	m := MustNewModel(DefaultParams(mesh.MustDim(4, 4)))
	qs := make([]batchQuery, 2000)
	for i := range qs {
		qs[i] = batchQuery{dst: mesh.Node{X: 3, Y: 3}}
	}
	for _, c := range []struct {
		failAt, asked int
	}{{1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 4}} {
		ctx := &failingCtx{Context: context.Background(), failAt: c.failAt}
		got, err := m.BatchMessageWCTT(ctx, network.DesignRegular, len(qs), func(i int) (mesh.Node, mesh.Node, int) {
			return qs[i].src, qs[i].dst, qs[i].payload
		}, nil)
		if c.failAt <= 4 && (err != context.DeadlineExceeded || got != nil) {
			t.Errorf("context failing at call %d: %d bounds, error %v", c.failAt, len(got), err)
		}
		if c.failAt > 4 && (err != nil || len(got) != len(qs)) {
			t.Errorf("context failing at call %d: %d bounds, error %v", c.failAt, len(got), err)
		}
		if ctx.asked != c.asked {
			t.Errorf("context failing at call %d was asked %d times, want %d", c.failAt, ctx.asked, c.asked)
		}
	}
}

// failingCtx reports an exceeded deadline from its failAt-th Err call on.
type failingCtx struct {
	context.Context
	failAt, asked int
}

func (c *failingCtx) Err() error {
	if c.asked++; c.asked >= c.failAt {
		return context.DeadlineExceeded
	}
	return nil
}

// FuzzBatchMatchesMessageWCTT picks a grid, a topology, a design and a list
// of queries, invalid ones included (endpoints one step off the grid, self
// flows), with a payload each: the batch must answer every query as
// MessageWCTT does, or fail with the error of the first invalid one. The row
// byte can turn the list into a row around the first query's source, the hub:
// from the hub to every other endpoint (row%3 == 1) or from every other
// endpoint to it (row%3 == 2), the payloads cycling through the list's. A
// one-to-all row is keyed on its source and an all-to-one row on its
// destination, whatever the design, so both sweep orders of both bound
// families meet co-located endpoints, saturated rows and mixed shapes.
func FuzzBatchMatchesMessageWCTT(f *testing.F) {
	f.Fuzz(func(t *testing.T, w, h, topo, design uint8, queries []byte, row uint8) {
		specs := []mesh.TopoSpec{{Kind: mesh.TopoMesh}, {Kind: mesh.TopoCMesh, Conc: 2}, {Kind: mesh.TopoCMesh, Conc: 4}}
		p := DefaultParams(mesh.Dim{Width: 1 + int(w)%32, Height: 1 + int(h)%32})
		p.Topo = specs[int(topo)%len(specs)]
		m, err := NewModel(p)
		if err != nil {
			return // the concentration does not tile the grid
		}
		payloads := []int{0, 1, 48, 116, 117, 512, 4096, 1 << 20, 1 << 32}
		coord := func(b byte, side int) int { return int(b)%(side+2) - 1 }
		var qs []batchQuery
		for ; len(queries) >= 5; queries = queries[5:] {
			qs = append(qs, batchQuery{
				src:     mesh.Node{X: coord(queries[0], p.Dim.Width), Y: coord(queries[1], p.Dim.Height)},
				dst:     mesh.Node{X: coord(queries[2], p.Dim.Width), Y: coord(queries[3], p.Dim.Height)},
				payload: payloads[int(queries[4])%len(payloads)],
			})
		}
		if row%3 != 0 && len(qs) > 0 {
			hub, list := qs[0].src, qs
			qs = nil
			for _, e := range p.Dim.AllNodes() {
				if e == hub {
					continue
				}
				q := batchQuery{src: hub, dst: e, payload: list[len(qs)%len(list)].payload}
				if row%3 == 2 {
					q.src, q.dst = e, hub
				}
				qs = append(qs, q)
			}
		}
		checkBatch(t, m, allDesigns[int(design)%len(allDesigns)], qs)
	})
}
