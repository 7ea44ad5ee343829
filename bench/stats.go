package main

import (
	"math"
	"sort"
)

// median returns the middle value (mean of the middle two), 0 for no
// samples.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile is the linearly interpolated q-quantile of xs, 0 for no
// samples. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// mean is the arithmetic mean, 0 for no samples.
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

// geomean is the geometric mean of positive values, 0 for none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// quartileSpread is the driver's steadiness figure: the distance
// between the first and third quartile as a share of the median, with
// the quartiles of Python's statistics.quantiles(values, n=4)
// (exclusive method).
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (s[j]-s[j-1])*(pos-float64(j))
	}
	m := median(s)
	if m <= 0 {
		return 0
	}
	return (at(3) - at(1)) / m
}
