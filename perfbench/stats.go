package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs (linear interpolation between the
// closest ranks); xs need not be sorted and is not modified. An empty
// sample has no quantile and reads NaN, which the finiteness check reports.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// maxSlices is the most consecutive runs sliceQuantile splits a sample
// into.
const maxSlices = 10

// sliceQuantile splits xs, in the order the samples were taken, into up to
// maxSlices runs of (nearly) equal length, as many as leave at least ten
// samples above each run's q-quantile, and returns the median of the runs'
// q-quantiles. A slow spell of the host lasting a few seconds moves the
// quantile of the runs it covers, not their median; a change that moves
// every run's quantile moves it fully.
func sliceQuantile(xs []float64, q float64) float64 {
	k := min(maxSlices, int(float64(len(xs))*(1-q)/10))
	if k <= 1 {
		return quantile(xs, q)
	}
	qs := make([]float64, k)
	for i := range qs {
		qs[i] = quantile(xs[i*len(xs)/k:(i+1)*len(xs)/k], q)
	}
	return median(qs)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio divides, reading 0 when the base is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// sliceRate is the throughput of a sequence of steps, each taking secs[i]
// seconds for sizes[i] updates: the median over up to maxSlices
// consecutive runs of steps of each run's updates per second, so that a
// slow spell of the host lasting a few seconds does not set it.
func sliceRate(secs []float64, sizes []int) float64 {
	k := min(maxSlices, len(secs))
	rates := make([]float64, k)
	for i := range rates {
		var t float64
		var n int
		for j := i * len(secs) / k; j < (i+1)*len(secs)/k; j++ {
			t += secs[j]
			n += sizes[j]
		}
		rates[i] = float64(n) / t
	}
	return median(rates)
}
