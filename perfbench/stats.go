package main

import (
	"math"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample (mean of the middle two for an even count); 0
// for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the Harrell–Davis estimate of the q-th quantile: a weighted
// mean of every order statistic, the i-th weighted by the Beta((n+1)q,
// (n+1)(1-q)) probability of [(i-1)/n, i/n]. Operation latencies here are
// far from uniform — the paper circuits differ a hundredfold in cost — so a
// single order statistic often falls in a gap between circuits and jumps
// from run to run; the weighted estimate does not.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n < 2 {
		return median(xs)
	}
	s := sorted(xs)
	a, b := float64(n+1)*q, float64(n+1)*(1-q)
	lb, _ := math.Lgamma(a + b)
	la, _ := math.Lgamma(a)
	lbb, _ := math.Lgamma(b)
	norm := lb - la - lbb
	// Midpoint-rule Beta CDF, accumulated across each order statistic's
	// interval.
	const steps = 400
	est, cdf := 0.0, 0.0
	for i := 0; i < n; i++ {
		w := 0.0
		for k := 0; k < steps; k++ {
			x := (float64(i) + (float64(k)+0.5)/steps) / float64(n)
			w += math.Exp(norm+(a-1)*math.Log(x)+(b-1)*math.Log(1-x)) / (steps * float64(n))
		}
		est += w * s[i]
		cdf += w
	}
	return est / cdf
}

// tailBeyond is how many samples must lie above the reported tail latency.
const tailBeyond = 10

// tail returns the latency at the highest percentile that still has
// tailBeyond samples above it, with that percentile and the number of
// samples beyond it. A run with too few samples for that percentile to lie
// above the median (the scale and sweep workloads' few large operations)
// reports p90.
func tail(xs []float64) (v, pct float64, beyond int) {
	n := len(xs)
	q := 0.9
	if n >= 2*tailBeyond {
		q = float64(n-tailBeyond) / float64(n)
	}
	beyond = int(math.Round(float64(n) * (1 - q)))
	return quantile(xs, q), 100 * q, beyond
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when the base is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
