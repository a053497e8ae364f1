package main

import (
	"math"
	"sort"
)

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median of unsorted xs (xs is left untouched).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// mean of xs, 0 when xs is empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailQuantile lowers q, when there are too few samples, to the highest
// quantile that leaves at least ten samples beyond it.
func tailQuantile(n int, q float64) float64 {
	if n <= 10 {
		return 0.5
	}
	if lim := 1 - 10/float64(n); q > lim {
		return math.Floor(lim*1000) / 1000
	}
	return q
}

// timing is a time metric as printed: median and quartiles with the
// sample count.
type timing struct {
	N   int     `json:"n"`
	P25 float64 `json:"p25"`
	P50 float64 `json:"p50"`
	P75 float64 `json:"p75"`
}

func summarize(xs []float64) timing {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return timing{N: len(s), P25: quantile(s, 0.25), P50: quantile(s, 0.5), P75: quantile(s, 0.75)}
}

// ratio is a ratio metric as printed, with its base.
type ratio struct {
	Num   float64 `json:"num"`
	Base  float64 `json:"base"`
	Value float64 `json:"value"`
}

func newRatio(num, base float64) ratio {
	r := ratio{Num: num, Base: base}
	if base != 0 {
		r.Value = num / base
	}
	return r
}
