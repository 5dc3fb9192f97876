package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: a p99 over fewer than 1000 samples rests on fewer than ten
// observations and is not reported.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1) of sorted by the
// nearest-rank rule. ok is false when fewer than minBeyond samples lie
// strictly beyond the returned rank, so a tail figure never rests on a
// handful of observations.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, false
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if n-1-rank < minBeyond {
		return 0, false
	}
	return sorted[rank], true
}

// median returns the middle of xs (mean of the two middle values for an
// even count); it sorts a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// increase sums the growth of a monotone counter across successive samples
// of one server slot, Prometheus-style: a sample below its predecessor means
// the process restarted and its counter began again at zero, so the whole
// new value is growth. A naive last-minus-first goes negative across a
// restart.
func increase(samples []float64) float64 {
	total := 0.0
	for i := 1; i < len(samples); i++ {
		if d := samples[i] - samples[i-1]; d >= 0 {
			total += d
		} else {
			total += samples[i]
		}
	}
	return total
}

// durationsMs converts durations to float milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// sortedMs returns ds in milliseconds, sorted ascending.
func sortedMs(ds []time.Duration) []float64 {
	out := durationsMs(ds)
	sort.Float64s(out)
	return out
}

// ratio divides, reading 0 when nothing was done (den == 0).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
