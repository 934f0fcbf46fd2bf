package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// quantile is one reported percentile: its nearest-rank value and the
// sample count it was taken from.
type quantile struct {
	Value float64
	N     int
	OK    bool // false: fewer than minBeyond samples beyond the rank
}

// percentile returns the nearest-rank q-quantile (0 < q < 1) of samples,
// reported only when at least minBeyond samples lie beyond its rank.
func percentile(samples []float64, q float64) quantile {
	n := len(samples)
	k := int(math.Ceil(q * float64(n))) // 1-based rank
	if k < 1 || n-k < minBeyond {
		return quantile{N: n}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return quantile{Value: s[k-1], N: n, OK: true}
}

// String renders the percentile with its sample count.
func (q quantile) String() string {
	if !q.OK {
		return fmt.Sprintf("n/a (n=%d, fewer than %d samples beyond)", q.N, minBeyond)
	}
	return fmt.Sprintf("%.4f (n=%d)", q.Value, q.N)
}

// median of host-time readings (any count).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
