package core

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/mesh"
)

func TestNewWCTTModel(t *testing.T) {
	m, err := NewWCTTModel(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if m.Params().Dim != mesh.MustDim(8, 8) {
		t.Error("unexpected model dim")
	}
	if _, err := NewWCTTModel(-1, 8); err == nil {
		t.Error("invalid size should fail")
	}
}

func TestTableIFacade(t *testing.T) {
	entries, err := TableI(2, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Errorf("Table I for R(1,1) of a 2x2 mesh has %d entries, want 5", len(entries))
	}
	if _, err := TableI(2, 2, 5, 5); err == nil {
		t.Error("router outside mesh should fail")
	}
	if _, err := TableI(0, 2, 0, 0); err == nil {
		t.Error("invalid mesh should fail")
	}
}

// TestTableIIFacade pins the sweep-scheduled Table II to the one-flit
// summaries of a model built directly for each size, row for row (the
// analysis package checks the shape of those summaries against the paper),
// and checks that an invalid size is rejected.
func TestTableIIFacade(t *testing.T) {
	sizes := []int{2, 3, 5}
	rows, err := TableII(sizes)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(sizes) {
		t.Fatalf("rows = %d, want %d", len(rows), len(sizes))
	}
	for i, s := range sizes {
		d := mesh.MustDim(s, s)
		m, err := analysis.NewModel(analysis.DefaultParams(d))
		if err != nil {
			t.Fatal(err)
		}
		if rows[i].Dim != d {
			t.Fatalf("row %d: dim %v, want %v", i, rows[i].Dim, d)
		}
		for _, c := range []struct {
			design Design
			got    analysis.WCTTSummary
		}{{DesignRegular, rows[i].Regular}, {DesignWaWWaP, rows[i].WaWWaP}} {
			want, err := m.SummarizeOneFlitWCTT(c.design)
			if err != nil {
				t.Fatal(err)
			}
			if c.got != want {
				t.Errorf("%v %v: TableII row %+v, model summary %+v", d, c.design, c.got, want)
			}
		}
	}
	if _, err := TableII([]int{0}); err == nil {
		t.Error("invalid mesh size should be rejected")
	}
}

func TestTableIIIFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("Table III over the full suite is slow")
	}
	table, err := TableIII()
	if err != nil {
		t.Fatal(err)
	}
	if len(table) != 8 || len(table[0]) != 8 {
		t.Fatalf("table size %dx%d", len(table), len(table[0]))
	}
}

func TestFigureFacades(t *testing.T) {
	a, err := Figure2a()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 3 {
		t.Errorf("Figure 2a points = %d, want 3", len(a))
	}
	b, err := Figure2b()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 4 {
		t.Errorf("Figure 2b points = %d, want 4", len(b))
	}
}

func TestAveragePerformanceFacade(t *testing.T) {
	res, err := AveragePerformance(3, 3, "rspeed", 200, 3_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.RegularCycles == 0 || res.WaWWaPCycles == 0 {
		t.Fatalf("zero makespan: %+v", res)
	}
	if res.CoresSimulated != 9 {
		t.Errorf("cores = %d", res.CoresSimulated)
	}
	if res.DegradationPct > 15 || res.DegradationPct < -15 {
		t.Errorf("implausible degradation %.1f%%", res.DegradationPct)
	}
	if _, err := AveragePerformance(0, 3, "rspeed", 1, 1000); err == nil {
		t.Error("invalid mesh should fail")
	}
	if _, err := AveragePerformance(3, 3, "nope", 1, 1000); err == nil {
		t.Error("unknown benchmark should fail")
	}
	if _, err := AveragePerformance(3, 3, "rspeed", 200, 10); err == nil {
		t.Error("absurdly small cycle budget should fail")
	}
}

func TestAreaOverheadFacade(t *testing.T) {
	cmp, err := AreaOverhead(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.OverheadPercent() <= 0 || cmp.OverheadPercent() >= 5 {
		t.Errorf("area overhead = %.2f%%, expected (0,5)", cmp.OverheadPercent())
	}
	if _, err := AreaOverhead(0, 8); err == nil {
		t.Error("invalid mesh should fail")
	}
}
