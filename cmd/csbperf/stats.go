package main

import (
	"math"
	"slices"
)

// stat is one metric of one workload in one invocation: the median over
// the invocation's samples (segments, set-ups or passes) with quartiles,
// extremes and the sample count.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

// summarize reduces samples to their median, quartiles and extremes.
func summarize(unit string, xs []float64) stat {
	if len(xs) == 0 {
		return stat{Unit: unit}
	}
	s := sorted(xs)
	return stat{
		Value: median(s), Unit: unit,
		Q1: quantile(s, 0.25), Q3: quantile(s, 0.75),
		Min: s[0], Max: s[len(s)-1], N: len(s),
	}
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// median of xs, which need not be sorted.
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

// quantile of sorted s by the exclusive method that Python's
// statistics.quantiles uses by default: position p·(n+1), interpolated
// and clamped to the sample.
func quantile(s []float64, p float64) float64 {
	n := len(s)
	switch n {
	case 0:
		return 0
	case 1:
		return s[0]
	}
	h := p * float64(n+1)
	j := int(math.Floor(h))
	if j < 1 {
		j = 1
	} else if j > n-1 {
		j = n - 1
	}
	d := h - float64(j)
	return s[j-1] + (s[j]-s[j-1])*d
}
