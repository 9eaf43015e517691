package flows

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mesh"
)

func TestAllToOne(t *testing.T) {
	dst := mesh.Node{X: 0, Y: 0}
	d := mesh.MustDim(4, 4)
	s := AllToOne(mesh.Plain(d), d, dst)
	if s.Len() != 15 {
		t.Fatalf("all-to-one flow count = %d, want 15", s.Len())
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("all-to-one set invalid: %v", err)
	}
	for _, f := range s.Flows {
		if f.Dst != dst {
			t.Errorf("flow %v does not target %v", f, dst)
		}
		if f.Src == dst {
			t.Errorf("destination must not appear as a source")
		}
	}
}

func TestOneToAll(t *testing.T) {
	src := mesh.Node{X: 1, Y: 1}
	d := mesh.MustDim(3, 3)
	s := OneToAll(mesh.Plain(d), d, src)
	if s.Len() != 8 {
		t.Fatalf("one-to-all flow count = %d, want 8", s.Len())
	}
	for _, f := range s.Flows {
		if f.Src != src {
			t.Errorf("flow %v does not originate at %v", f, src)
		}
	}
}

func TestAllToAll(t *testing.T) {
	d := mesh.MustDim(3, 2)
	s := AllToAll(mesh.Plain(d), d)
	want := 6 * 5
	if s.Len() != want {
		t.Fatalf("all-to-all flow count = %d, want %d", s.Len(), want)
	}
	seen := make(map[Flow]bool)
	for _, f := range s.Flows {
		if seen[f] {
			t.Errorf("duplicate flow %v", f)
		}
		seen[f] = true
	}
}

func TestCustomValidation(t *testing.T) {
	d := mesh.MustDim(2, 2)
	if _, err := Custom(mesh.Plain(d), d, []Flow{{Src: mesh.Node{X: 0, Y: 0}, Dst: mesh.Node{X: 1, Y: 1}}}); err != nil {
		t.Errorf("valid custom set rejected: %v", err)
	}
	if _, err := Custom(mesh.Plain(d), d, []Flow{{Src: mesh.Node{X: 5, Y: 0}, Dst: mesh.Node{X: 0, Y: 0}}}); err == nil {
		t.Error("source outside mesh should be rejected")
	}
	if _, err := Custom(mesh.Plain(d), d, []Flow{{Src: mesh.Node{X: 0, Y: 0}, Dst: mesh.Node{X: 3, Y: 0}}}); err == nil {
		t.Error("destination outside mesh should be rejected")
	}
	if _, err := Custom(mesh.Plain(d), d, []Flow{{Src: mesh.Node{X: 1, Y: 1}, Dst: mesh.Node{X: 1, Y: 1}}}); err == nil {
		t.Error("self flow should be rejected")
	}
}

func TestAnalyzeAllToOne2x2(t *testing.T) {
	// The paper's Figure 1(b) example: all flows towards node (1,1) in a
	// 2x2 mesh. The destination router must see 1 flow on its X+ input,
	// 2 flows on its Y+ input and 3 flows on its PME output.
	dst := mesh.Node{X: 1, Y: 1}
	d := mesh.MustDim(2, 2)
	a := MustAnalyze(AllToOne(mesh.Plain(d), d, dst))
	rc := a.Counts(dst)
	if got := rc.PerPair[mesh.Local][mesh.XPlus]; got != 1 {
		t.Errorf("X+ -> PME flows = %d, want 1", got)
	}
	if got := rc.PerPair[mesh.Local][mesh.YPlus]; got != 2 {
		t.Errorf("Y+ -> PME flows = %d, want 2", got)
	}
	if got := rc.Output[mesh.Local]; got != 3 {
		t.Errorf("PME output flows = %d, want 3", got)
	}
	if w := rc.Weight(mesh.XPlus, mesh.Local); math.Abs(w-1.0/3.0) > 1e-9 {
		t.Errorf("W(X+,PME) = %v, want 1/3", w)
	}
	if w := rc.Weight(mesh.YPlus, mesh.Local); math.Abs(w-2.0/3.0) > 1e-9 {
		t.Errorf("W(Y+,PME) = %v, want 2/3", w)
	}
	ins := rc.ContendingInputs(mesh.Local)
	if len(ins) != 2 {
		t.Errorf("contending inputs for PME = %v, want 2", ins)
	}
}

func TestAnalyzeRouteCoverage(t *testing.T) {
	d := mesh.MustDim(4, 4)
	s := AllToOne(mesh.Plain(d), d, mesh.Node{X: 0, Y: 0})
	a := MustAnalyze(s)
	if len(a.Routes) != s.Len() {
		t.Fatalf("analysed %d routes, want %d", len(a.Routes), s.Len())
	}
	for _, f := range s.Flows {
		r, ok := a.Route(f)
		if !ok {
			t.Fatalf("missing route for %v", f)
		}
		if r[0].Router != f.Src || r[len(r)-1].Router != f.Dst {
			t.Errorf("route endpoints %v->%v do not match flow %v", r[0].Router, r[len(r)-1].Router, f)
		}
	}
	if _, ok := a.Route(Flow{Src: mesh.Node{X: 0, Y: 0}, Dst: mesh.Node{X: 1, Y: 1}}); ok {
		t.Error("route lookup for a flow outside the set should fail")
	}
}

// Conservation property: the number of flows entering every router equals the
// number leaving it, and the total flows crossing each router's Local output
// equals the number of flows terminating at that node.
func TestAnalyzeConservation(t *testing.T) {
	d := mesh.MustDim(5, 4)
	a := MustAnalyze(AllToAll(mesh.Plain(d), d))
	terminating := make(map[mesh.Node]int)
	for _, f := range a.Set.Flows {
		terminating[f.Dst]++
	}
	for _, n := range d.AllNodes() {
		rc := a.Counts(n)
		in, out := 0, 0
		for _, dir := range mesh.Directions {
			in += rc.Input[dir]
			out += rc.Output[dir]
		}
		if in != out {
			t.Errorf("router %v: %d flows in, %d flows out", n, in, out)
		}
		if rc.Output[mesh.Local] != terminating[n] {
			t.Errorf("router %v: %d flows ejected, want %d", n, rc.Output[mesh.Local], terminating[n])
		}
		if rc.Input[mesh.Local] != d.Nodes()-1 {
			t.Errorf("router %v: %d flows injected, want %d", n, rc.Input[mesh.Local], d.Nodes()-1)
		}
	}
}

func TestAnalyzeRejectsInvalidSet(t *testing.T) {
	d := mesh.MustDim(2, 2)
	s := &Set{Topo: mesh.Plain(d), Dim: d, Flows: []Flow{{Src: mesh.Node{X: 9, Y: 9}, Dst: mesh.Node{X: 0, Y: 0}}}}
	if _, err := Analyze(s); err == nil {
		t.Error("Analyze should reject flows outside the mesh")
	}
}

func TestMustAnalyzePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAnalyze should panic on invalid set")
		}
	}()
	d := mesh.MustDim(2, 2)
	MustAnalyze(&Set{Topo: mesh.Plain(d), Dim: d, Flows: []Flow{{Src: mesh.Node{X: 0, Y: 0}, Dst: mesh.Node{X: 0, Y: 0}}}})
}

// Table I of the paper: arbitration weights for router R(1,1) of a 2x2 mesh.
func TestTableIReproduction(t *testing.T) {
	d := mesh.MustDim(2, 2)
	entries := TableIEntries(d, mesh.Node{X: 1, Y: 1})
	get := func(in, out mesh.Direction) (WeightEntry, bool) {
		for _, e := range entries {
			if e.Pair.In == in && e.Pair.Out == out {
				return e, true
			}
		}
		return WeightEntry{}, false
	}
	type row struct {
		in, out      mesh.Direction
		regular, waw float64
	}
	// Paper Table I (the paper labels ports by the side they face; in this
	// module's travel-direction convention the flows arriving from the west
	// use the X+ input and flows from the north use the Y+ input).
	want := []row{
		{mesh.Local, mesh.XMinus, 1, 1},
		{mesh.Local, mesh.YMinus, 0.5, 0.5},
		{mesh.XPlus, mesh.Local, 0.5, 1.0 / 3.0},
		{mesh.XPlus, mesh.YMinus, 0.5, 0.5},
		{mesh.YPlus, mesh.Local, 0.5, 2.0 / 3.0},
	}
	for _, w := range want {
		e, ok := get(w.in, w.out)
		if !ok {
			t.Errorf("missing Table I entry W(%v,%v)", w.in, w.out)
			continue
		}
		if math.Abs(e.Regular-w.regular) > 1e-9 {
			t.Errorf("regular W(%v,%v) = %v, want %v", w.in, w.out, e.Regular, w.regular)
		}
		if math.Abs(e.WaW-w.waw) > 1e-9 {
			t.Errorf("WaW W(%v,%v) = %v, want %v", w.in, w.out, e.WaW, w.waw)
		}
	}
	if len(entries) != len(want) {
		t.Errorf("Table I has %d entries, want %d: %v", len(entries), len(want), entries)
	}
}

// The closed forms of the paper for the destination (PME) output port:
// I_{X+} = x, I_{Y+} = N*y, O_{PME} = N*M - 1.
func TestClosedFormPaperEquationsPMEOutput(t *testing.T) {
	d := mesh.MustDim(8, 8)
	for _, n := range d.AllNodes() {
		pc := ClosedFormCounts(d, n)
		if got := pc.OutputTotal[mesh.Local]; got != d.Nodes()-1 {
			t.Errorf("node %v O_PME = %d, want %d", n, got, d.Nodes()-1)
		}
		if got := pc.InputsPerOutput[mesh.Local][mesh.XPlus]; got != n.X {
			t.Errorf("node %v I_X+ (to PME) = %d, want %d", n, got, n.X)
		}
		if got := pc.InputsPerOutput[mesh.Local][mesh.YPlus]; got != d.Width*n.Y {
			t.Errorf("node %v I_Y+ (to PME) = %d, want %d", n, got, d.Width*n.Y)
		}
		if got := pc.InputsPerOutput[mesh.Local][mesh.XMinus]; got != d.Width-n.X-1 {
			t.Errorf("node %v I_X- (to PME) = %d, want %d", n, got, d.Width-n.X-1)
		}
		if got := pc.InputsPerOutput[mesh.Local][mesh.YMinus]; got != d.Width*(d.Height-n.Y-1) {
			t.Errorf("node %v I_Y- (to PME) = %d, want %d", n, got, d.Width*(d.Height-n.Y-1))
		}
	}
}

// WaW weights of every output port must sum to 1 (the full port bandwidth is
// distributed) and each weight must lie in (0, 1].
func TestWeightsSumToOne(t *testing.T) {
	wt := ComputeWeightTable(mesh.MustDim(6, 4))
	for _, n := range wt.Dim.AllNodes() {
		pc := wt.Counts(n)
		for _, out := range mesh.Directions {
			if pc.OutputTotal[out] == 0 {
				continue
			}
			sum := 0.0
			for _, in := range mesh.Directions {
				w := pc.Weight(in, out)
				if w < 0 || w > 1 {
					t.Errorf("node %v W(%v,%v) = %v out of range", n, in, out, w)
				}
				sum += w
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("node %v output %v weights sum to %v, want 1", n, out, sum)
			}
		}
	}
}

func TestCounterMaxMatchesInputCount(t *testing.T) {
	d := mesh.MustDim(4, 4)
	pc := ClosedFormCounts(d, mesh.Node{X: 2, Y: 1})
	for _, out := range mesh.Directions {
		for _, in := range mesh.Directions {
			if pc.CounterMax(in, out) != pc.InputsPerOutput[out][in] {
				t.Errorf("CounterMax(%v,%v) mismatch", in, out)
			}
		}
	}
}

func TestWeightTablePanicsOutside(t *testing.T) {
	wt := ComputeWeightTable(mesh.MustDim(2, 2))
	defer func() {
		if recover() == nil {
			t.Error("Counts for an outside node should panic")
		}
	}()
	wt.Counts(mesh.Node{X: 5, Y: 5})
}

func TestClosedFormPanicsOutside(t *testing.T) {
	d := mesh.MustDim(2, 2)
	defer func() {
		if recover() == nil {
			t.Error("ClosedFormCounts for an outside node should panic")
		}
	}()
	ClosedFormCounts(d, mesh.Node{X: -1, Y: 0})
}

// Property: for random mesh dimensions and nodes, the per-output totals of
// the closed forms follow the paper's equations O_{X+} = x+1, O_{X-} = N-x,
// O_{Y+} = N(y+1), O_{Y-} = N(M-y) (whenever the port exists).
func TestClosedFormOutputTotalsProperty(t *testing.T) {
	f := func(w, h, xr, yr uint8) bool {
		d := mesh.Dim{Width: 2 + int(w)%6, Height: 2 + int(h)%6}
		n := mesh.Node{X: int(xr) % d.Width, Y: int(yr) % d.Height}
		pc := ClosedFormCounts(d, n)
		if mesh.OutputExists(d, n, mesh.XPlus) && pc.OutputTotal[mesh.XPlus] != n.X+1 {
			return false
		}
		if mesh.OutputExists(d, n, mesh.XMinus) && pc.OutputTotal[mesh.XMinus] != d.Width-n.X {
			return false
		}
		if mesh.OutputExists(d, n, mesh.YPlus) && pc.OutputTotal[mesh.YPlus] != d.Width*(n.Y+1) {
			return false
		}
		if mesh.OutputExists(d, n, mesh.YMinus) && pc.OutputTotal[mesh.YMinus] != d.Width*(d.Height-n.Y) {
			return false
		}
		if pc.OutputTotal[mesh.Local] != d.Nodes()-1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPortPairString(t *testing.T) {
	p := PortPair{In: mesh.XPlus, Out: mesh.Local}
	if got := p.String(); got != "W(X+,PME)" {
		t.Errorf("PortPair.String() = %q", got)
	}
}
