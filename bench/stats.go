package main

import (
	"math"
	"slices"
	"sort"
)

// median returns the middle value of vs (mean of the two middle values
// for an even count), or 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the exclusive
// method Python's statistics.quantiles(vs, n=4) uses, so spreads
// computed here and downstream agree. With fewer than two values both
// quartiles are the single value.
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return vs[0], vs[0]
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		// j = i*(n+1)/4 clamped to [1, n-1]; delta is taken after the
		// clamp, as CPython does.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// fromBest returns the value a share p of the way from the best of vs
// to the worst: position p*(n-1) of the values sorted best first,
// linear between neighbours, so the definition is the same for any
// number of repeats. p = 0.5 is the median.
func fromBest(vs []float64, higherBetter bool, p float64) float64 {
	n := len(vs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if higherBetter {
		slices.Reverse(s)
	}
	pos := p * float64(n-1)
	i := int(pos)
	if i+1 >= n {
		return s[n-1]
	}
	f := pos - float64(i)
	return s[i]*(1-f) + s[i+1]*f
}

// spread is the inter-quartile distance as a share of the median: the
// run-to-run noise figure the compare verdicts are judged against.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return math.Abs((q3 - q1) / m)
}

// percentileU32 returns the p-th percentile of a sorted sample set in
// the samples' own unit: the nearest-rank value v, plus how far the
// rank lies into the run of samples equal to v. The samples are whole
// nanoseconds, so thousands of them tie at a value like 83 ns; taking
// the ties as spread over [v, v+1) — the grouped-data percentile —
// keeps the digits a nearest-rank pick would throw away, and with them
// the difference between two runs whose median falls in the same
// nanosecond.
func percentileU32(sorted []uint32, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := min(max(p/100*float64(n), 0), float64(n))
	i := min(max(int(math.Ceil(rank))-1, 0), n-1)
	v := sorted[i]
	below := sort.Search(n, func(j int) bool { return sorted[j] >= v })
	through := sort.Search(n, func(j int) bool { return sorted[j] > v })
	return float64(v) + (rank-float64(below))/float64(through-below)
}
