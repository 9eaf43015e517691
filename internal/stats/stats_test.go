package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSamplerEmpty(t *testing.T) {
	var s Sampler
	if s.Count() != 0 || s.Min() != 0 || s.Max() != 0 || s.Mean() != 0 || s.StdDev() != 0 {
		t.Error("empty sampler should report zeros")
	}
}

func TestSamplerBasic(t *testing.T) {
	var s Sampler
	for _, v := range []float64{4, 2, 8, 6} {
		s.Add(v)
	}
	if s.Count() != 4 {
		t.Errorf("count = %d", s.Count())
	}
	if s.Min() != 2 || s.Max() != 8 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
	if s.Mean() != 5 {
		t.Errorf("mean = %v", s.Mean())
	}
	if s.Sum() != 20 {
		t.Errorf("sum = %v", s.Sum())
	}
	wantStd := math.Sqrt(5) // population stddev of {4,2,8,6}
	if math.Abs(s.StdDev()-wantStd) > 1e-9 {
		t.Errorf("stddev = %v, want %v", s.StdDev(), wantStd)
	}
	if s.String() == "" {
		t.Error("String empty")
	}
}

func TestSamplerAddUint(t *testing.T) {
	var s Sampler
	s.AddUint(7)
	if s.Mean() != 7 {
		t.Errorf("mean = %v", s.Mean())
	}
}

func TestSamplerMerge(t *testing.T) {
	var a, b Sampler
	for _, v := range []float64{1, 2, 3} {
		a.Add(v)
	}
	for _, v := range []float64{10, 20} {
		b.Add(v)
	}
	a.Merge(&b)
	if a.Count() != 5 {
		t.Errorf("merged count = %d", a.Count())
	}
	if a.Min() != 1 || a.Max() != 20 {
		t.Errorf("merged min/max = %v/%v", a.Min(), a.Max())
	}
	if math.Abs(a.Mean()-36.0/5.0) > 1e-9 {
		t.Errorf("merged mean = %v", a.Mean())
	}
	// Merging into an empty sampler copies the other.
	var c Sampler
	c.Merge(&b)
	if c.Count() != 2 || c.Max() != 20 {
		t.Error("merge into empty failed")
	}
	// Merging nil or empty is a no-op.
	c.Merge(nil)
	var empty Sampler
	c.Merge(&empty)
	if c.Count() != 2 {
		t.Error("merge of empty changed the sampler")
	}
}

// TestSamplerStdDevLargeMagnitude is the regression test for the
// catastrophic-cancellation bugfix: with samples offset by 1e9 the naive
// E[x²]−E[x]² formula loses every significant digit of the variance (the
// two terms agree to ~18 digits while their difference is below 1), whereas
// Welford's algorithm keeps full precision.
func TestSamplerStdDevLargeMagnitude(t *testing.T) {
	const offset = 1e9
	var s Sampler
	for _, v := range []float64{offset, offset + 1, offset + 2} {
		s.Add(v)
	}
	want := math.Sqrt(2.0 / 3.0) // population stddev of {0,1,2}
	if got := s.StdDev(); math.Abs(got-want) > 1e-9 {
		t.Errorf("stddev of large-magnitude samples = %v, want %v", got, want)
	}
	// The same property must survive a merge of large-magnitude samplers.
	var a, b Sampler
	a.Add(offset)
	a.Add(offset + 1)
	b.Add(offset + 2)
	a.Merge(&b)
	if got := a.StdDev(); math.Abs(got-want) > 1e-9 {
		t.Errorf("stddev after merge = %v, want %v", got, want)
	}
}

// Property: merging two samplers is equivalent to adding all samples to one.
func TestSamplerMergeProperty(t *testing.T) {
	// Samples are mapped into a bounded range (the sampler is used for
	// latencies in cycles, not astronomically large values) so the equality
	// check is not defeated by floating-point cancellation.
	clamp := func(v float64) (float64, bool) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, false
		}
		return math.Mod(v, 1e6), true
	}
	f := func(xs, ys []float64) bool {
		var a, b, all Sampler
		for _, x := range xs {
			v, ok := clamp(x)
			if !ok {
				return true
			}
			a.Add(v)
			all.Add(v)
		}
		for _, y := range ys {
			v, ok := clamp(y)
			if !ok {
				return true
			}
			b.Add(v)
			all.Add(v)
		}
		a.Merge(&b)
		if a.Count() != all.Count() {
			return false
		}
		if a.Count() == 0 {
			return true
		}
		return a.Min() == all.Min() && a.Max() == all.Max() &&
			math.Abs(a.Mean()-all.Mean()) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
