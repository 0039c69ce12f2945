package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the mean of the middle two; 0 for no
// samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that split xs into four groups,
// computed exactly as Python's statistics.quantiles(xs, n=4) does with its
// default "exclusive" method, so the benchmark's own spread figures match
// the ones an external checker computes from the printed results. Fewer
// than two samples return the single sample (or 0) three times.
func quartiles(xs []float64) [3]float64 {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		var v float64
		if ld == 1 {
			v = s[0]
		}
		return [3]float64{v, v, v}
	}
	const n = 4
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
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q
}

// spread is the interquartile distance as a share of the median (0 when
// the median is 0).
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q := quartiles(xs)
	return (q[2] - q[0]) / math.Abs(med)
}

// tailSamples is how many samples must lie beyond a reported tail value.
const tailSamples = 10

// tail returns the highest nearest-rank percentile of xs that still has at
// least tailSamples samples beyond it, together with that percentile (in
// percent). With n samples that is the (n-10)-th smallest, at percentile
// 100*(n-10)/n. With too few samples it returns the maximum and
// percentile 100, and ok is false.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, 0, false
	}
	s := sorted(xs)
	if n <= tailSamples {
		return s[n-1], 100, false
	}
	k := n - tailSamples // nearest rank, 1-based
	return s[k-1], 100 * float64(k) / float64(n), true
}

// percentile returns the nearest-rank p-th percentile of xs (0 for no
// samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	k := int(math.Ceil(p / 100 * float64(len(s))))
	if k < 1 {
		k = 1
	}
	return s[k-1]
}
