package main

import (
	"sort"

	"mpi4spark/internal/vtime"
)

// Tail rule: a tail percentile is the highest one with at least
// tailBeyond samples beyond it, and it is reported only from
// minTailSamples samples up; below that only the median is.
const (
	tailBeyond     = 10
	minTailSamples = 2 * tailBeyond
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle ones
// for an even count), or 0 for no samples.
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

// tail returns the sample at the highest percentile with at least
// tailBeyond samples beyond it. ok is false below minTailSamples samples.
func tail(xs []float64) (v float64, ok bool) {
	if len(xs) < minTailSamples {
		return 0, false
	}
	s := sorted(xs)
	return s[len(s)-1-tailBeyond], true
}

// ms converts virtual-time stamps to milliseconds.
func ms(stamps []vtime.Stamp) []float64 {
	out := make([]float64, len(stamps))
	for i, s := range stamps {
		out[i] = float64(s) / 1e6
	}
	return out
}
