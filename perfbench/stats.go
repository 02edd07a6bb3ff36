package main

import "sort"

// tailBeyond is how many samples must lie beyond a reported tail
// percentile: the tail is the highest percentile that still has this
// many solves slower than it, so it never rests on one or two outliers.
const tailBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample (the mean of the two middle ones
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tail returns the sample with exactly tailBeyond samples above it,
// the percentile it sits at, and how many samples lie beyond it. With
// too few samples it returns the maximum, with fewer beyond.
func tail(xs []float64) (value, pct float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := sorted(xs)
	beyond = min(tailBeyond, len(s)-1)
	i := len(s) - 1 - beyond
	return s[i], 100 * float64(i+1) / float64(len(s)), beyond
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never used).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
