package main

import "sort"

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0 <= q <= 1) of v by linear
// interpolation between the two nearest ranks; 0 for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quartiles returns the first and third quartiles of v exactly as
// Python's statistics.quantiles(v, n=4) computes them (its default
// "exclusive" method), so spreads computed here agree with a checker
// written against the standard library. v needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n, m := 4, len(s)+1
	at := func(i int) float64 {
		j := min(max(i*m/n, 1), len(s)-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	return at(1), at(3)
}

// iqrFrac is the interquartile distance of v as a share of its median:
// the spread measure the benchmark's bounds are checked against.
func iqrFrac(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}

// tailQ is the percentile latency_p99_s reports for n samples: 0.99
// when at least ten samples lie beyond it, otherwise the highest
// percentile that has ten beyond it (never below the median). A run of
// long solves completes too few of them for a p99 that means anything.
func tailQ(n int) float64 {
	return min(0.99, max(0.5, 1-10/float64(n)))
}
