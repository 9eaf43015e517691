package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending-sorted sample: the smallest value with at least p% of the sample
// at or below it. It is used for per-line latencies, where the sample is
// large and a measured value (not an interpolated one) is wanted.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// quartiles returns the first quartile, median and third quartile of values
// with the exclusive method of Python's statistics.quantiles(values, n=4),
// so the spreads this program prints are the ones the PR driver computes.
// One value is its own quartiles.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 { // i-th cut point of 4
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// median is the middle of values (mean of the two middle ones when even).
func median(values []float64) float64 {
	_, med, _ := quartiles(values)
	return med
}

// summary is the detail block stored beside a metric's reported median.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

func summarize(values []float64) summary {
	if len(values) == 0 {
		return summary{}
	}
	q1, med, q3 := quartiles(values)
	s := summary{N: len(values), Min: values[0], Max: values[0], Q1: q1, Median: med, Q3: q3}
	for _, v := range values {
		s.Min = math.Min(s.Min, v)
		s.Max = math.Max(s.Max, v)
	}
	return s
}

// spread is the interquartile range as a share of the median: the run-to-run
// noise figure the driver holds against a metric's bound.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}
