// Package stats provides the statistics utility used by the NoC simulator
// and the experiment drivers: a sampler with count, min/mean/max and a
// numerically stable standard deviation.
package stats

import (
	"fmt"
	"math"
)

// Sampler accumulates scalar samples (latencies in cycles, bandwidth shares,
// WCTT bounds…) and reports summary statistics. The zero value is ready to
// use.
type Sampler struct {
	count uint64
	sum   float64
	min   float64
	max   float64
	// mean and m2 are Welford's online accumulators: mean is the running
	// arithmetic mean and m2 the sum of squared deviations from it. Unlike
	// the textbook E[x²]−E[x]² formula they do not suffer catastrophic
	// cancellation when the variance is small relative to the magnitude of
	// the samples.
	mean float64
	m2   float64
}

// Add records one sample.
func (s *Sampler) Add(v float64) {
	if s.count == 0 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	s.count++
	s.sum += v
	delta := v - s.mean
	s.mean += delta / float64(s.count)
	s.m2 += delta * (v - s.mean)
}

// AddUint records one unsigned integer sample (convenience for cycle counts).
func (s *Sampler) AddUint(v uint64) { s.Add(float64(v)) }

// Count returns the number of samples recorded.
func (s *Sampler) Count() uint64 { return s.count }

// Sum returns the sum of all samples.
func (s *Sampler) Sum() float64 { return s.sum }

// Min returns the smallest sample, or 0 when empty.
func (s *Sampler) Min() float64 {
	if s.count == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest sample, or 0 when empty.
func (s *Sampler) Max() float64 {
	if s.count == 0 {
		return 0
	}
	return s.max
}

// Mean returns the arithmetic mean, or 0 when empty.
func (s *Sampler) Mean() float64 {
	if s.count == 0 {
		return 0
	}
	return s.sum / float64(s.count)
}

// StdDev returns the population standard deviation, or 0 when fewer than two
// samples have been recorded. It is computed with Welford's online algorithm,
// so large-magnitude samples with small spread do not collapse into the
// catastrophic cancellation of the naive E[x²]−E[x]² formula.
func (s *Sampler) StdDev() float64 {
	if s.count < 2 {
		return 0
	}
	variance := s.m2 / float64(s.count)
	if variance < 0 {
		variance = 0 // numerical noise
	}
	return math.Sqrt(variance)
}

// String summarises the sampler.
func (s *Sampler) String() string {
	return fmt.Sprintf("n=%d min=%.2f mean=%.2f max=%.2f", s.count, s.Min(), s.Mean(), s.Max())
}
