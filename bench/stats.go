package main

import (
	"math"
	"slices"
)

// median of xs; 0 for none. xs is not modified.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the first quartile, median and third quartile of xs
// by the exclusive method of Python's statistics.quantiles(xs, n=4), so
// the spreads printed here match those computed from the JSON lines.
// xs is not modified.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := slices.Clone(xs)
	slices.Sort(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	n := len(d)
	q := func(i int) float64 {
		m := i * (n + 1)
		j := min(max(m/4, 1), n-1)
		delta := float64(m - 4*j)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	q2 = d[n/2]
	if n%2 == 0 {
		q2 = (d[n/2-1] + d[n/2]) / 2
	}
	return q(1), q2, q(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// verdict compares metric d between a baseline sample a and a candidate
// sample b. worse is the candidate median's change in the worse
// direction, as a share of the baseline median. A spread wider than the
// bound leaves the comparison unresolved unless every candidate run beats
// every baseline run.
func verdict(d metricDef, a, b []float64) (worse float64, v string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / math.Abs(ma)
	}
	if d.Better == "higher" {
		worse = -worse
	}
	wide := spread(a) > d.Bound || spread(b) > d.Bound
	switch {
	case wide && !allBeat(d, b, a):
		return worse, "unresolved"
	case worse > d.Bound:
		return worse, "worse"
	case worse < -d.Bound:
		return worse, "better"
	}
	return worse, "same"
}

// allBeat reports whether every value of b is better than every value
// of a under d's direction.
func allBeat(d metricDef, b, a []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	if d.Better == "higher" {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}
