package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of an ascending slice
// by linear interpolation between order statistics; NaN when empty.
// Callers sort once and ask for several quantiles — unlike the runner
// of SNIPPETS §1, which copies and sorts every sample per quantile.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), which is what the acceptance pipeline
// uses for spreads; it needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j, delta := i*(n+1)/4, i*(n+1)%4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the inter-quartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// roundStats condenses one round: throughput, latency quantiles
// (milliseconds), CPU time and heap allocation per op.
type roundStats struct {
	tuplesPerS   float64
	drawP50      float64
	drawP95      float64
	auxP50       float64
	cpuMsPerOp   float64
	allocsPerOp  float64
	allocKBPerOp float64
}

// betterQuartile returns the quartile of xs on its better side: the
// 25th percentile when lower is better, the 75th when higher is.
func betterQuartile(xs []float64, higherIsBetter bool) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if higherIsBetter {
		return quantile(s, 0.75)
	}
	return quantile(s, 0.25)
}

// column extracts one statistic from every round.
func column(rs []roundStats, f func(roundStats) float64) []float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return xs
}

// bestOfRounds reports each timing statistic's better quartile over the
// rounds, and the median of the allocation counts, which no neighbour
// can move. The host this runs on alternates between an undisturbed and a
// disturbed state in episodes of ten to twenty seconds, and a neighbour
// can only slow a round down, never speed it up: the median over rounds
// flips between the two states from run to run, the better quartile
// stays in the undisturbed one as long as a quarter of the rounds were
// (README, "Noise findings").
func bestOfRounds(rs []roundStats) roundStats {
	pick := func(higherIsBetter bool, f func(roundStats) float64) float64 {
		return betterQuartile(column(rs, f), higherIsBetter)
	}
	return roundStats{
		tuplesPerS:   pick(true, func(r roundStats) float64 { return r.tuplesPerS }),
		drawP50:      pick(false, func(r roundStats) float64 { return r.drawP50 }),
		drawP95:      pick(false, func(r roundStats) float64 { return r.drawP95 }),
		auxP50:       pick(false, func(r roundStats) float64 { return r.auxP50 }),
		cpuMsPerOp:   pick(false, func(r roundStats) float64 { return r.cpuMsPerOp }),
		allocsPerOp:  median(column(rs, func(r roundStats) float64 { return r.allocsPerOp })),
		allocKBPerOp: median(column(rs, func(r roundStats) float64 { return r.allocKBPerOp })),
	}
}
