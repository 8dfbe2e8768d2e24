package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a "p99" read from fewer samples would be the maximum in
// disguise, so the tail falls back to the highest percentile the sample
// count supports.
const minBeyond = 10

// dist is a set of raw samples. Quantiles are exact nearest-rank values
// over the sorted samples, never bucket bounds.
type dist []float64

// rank is the 1-based nearest rank of percentile p among n samples.
func rank(p, n int) int {
	return (p*n + 99) / 100
}

// tailPercentile returns the highest integer percentile in [50, 99]
// with at least minBeyond samples above its rank, or 50 when even the
// median has fewer.
func tailPercentile(n int) int {
	for p := 99; p > 50; p-- {
		if n-rank(p, n) >= minBeyond {
			return p
		}
	}
	return 50
}

// percentile returns the nearest-rank p-th percentile (0 when empty).
func (d dist) percentile(p int) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append([]float64(nil), d...)
	sort.Float64s(s)
	r := rank(p, len(s))
	if r < 1 {
		r = 1
	}
	return s[r-1]
}

// median returns the 50th percentile.
func (d dist) median() float64 { return d.percentile(50) }

// tail returns the tail percentile the sample count supports and its
// value.
func (d dist) tail() (int, float64) {
	p := tailPercentile(len(d))
	return p, d.percentile(p)
}

// max returns the largest sample (0 when empty).
func (d dist) max() float64 {
	m := 0.0
	for _, v := range d {
		m = math.Max(m, v)
	}
	return m
}
