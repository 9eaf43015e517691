package stats

import (
	"math"
	"testing"
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
}
