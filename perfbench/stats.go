package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. xs is sorted in place. It returns NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// beyond returns how many of n samples lie strictly above the
// nearest-rank p-th percentile: the sample count that backs the figure.
func beyond(n int, p float64) int {
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// quartiles returns the three cut points that divide xs into four equal
// groups, by the same rule as Python's statistics.quantiles(xs, n=4)
// (the default "exclusive" method). xs needs at least two samples and
// is sorted in place.
func quartiles(xs []float64) [3]float64 {
	sort.Float64s(xs)
	const n = 4
	ld := len(xs)
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (xs[j-1]*float64(n-delta) + xs[j]*float64(delta)) / n
	}
	return q
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count). xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	k := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[k]
	}
	return (xs[k-1] + xs[k]) / 2
}

// ratio returns a/b, or 0 when b is 0 (a per-query figure of a layer a
// workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// subWindows is how many equal parts the query window is cut into. The
// latency and throughput figures are medians over the parts, so a burst
// of interference from outside the process that spoils one part moves
// them little.
const subWindows = 10

// splitWindow returns, for each of n equal parts of a window, the
// latencies of the queries that completed in it. end[i] is when query i
// completed, from the window's start; a query completing after the
// window counts in the last part.
func splitWindow(lat []float64, end []int64, window time.Duration, n int) [][]float64 {
	parts := make([][]float64, n)
	for i, e := range end {
		k := int(e * int64(n) / int64(window))
		if k >= n {
			k = n - 1
		} else if k < 0 {
			k = 0
		}
		parts[k] = append(parts[k], lat[i])
	}
	return parts
}

// windowStats holds, per part of the query window, the nearest-rank
// p50 and p99 latency and the throughput.
type windowStats struct {
	p50s, p99s, rates []float64
}

func newWindowStats(lat []float64, end []int64, window time.Duration) windowStats {
	var w windowStats
	partS := window.Seconds() / subWindows
	for _, p := range splitWindow(lat, end, window, subWindows) {
		w.rates = append(w.rates, float64(len(p))/partS)
		if len(p) > 0 {
			w.p50s = append(w.p50s, percentile(p, 50))
			w.p99s = append(w.p99s, percentile(p, 99))
		}
	}
	return w
}

// spread is the distance between the first and third quartiles of xs
// as a share of their median: how far the parts of one window disagree.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q := quartiles(append([]float64(nil), xs...))
	return (q[2] - q[0]) / q[1]
}
