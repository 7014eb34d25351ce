package main

import (
	"math"
	"sort"
)

// tailLevels are the percentiles a timing may report beyond its median.
var tailLevels = []float64{0.5, 0.9, 0.99, 0.999}

// tailLevel returns the highest level in tailLevels that leaves at least ten
// of n samples beyond it, or 0 when even the median does not.
func tailLevel(n int) float64 {
	best := 0.0
	for _, p := range tailLevels {
		if float64(n)*(1-p) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// quantile returns the nearest-rank p-quantile of xs (sorted in place).
// Failed operations enter as +Inf, so they count as missing any latency
// limit.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// timing summarizes one latency distribution by the reporting rule: the
// median, the requested tail when the sample supports it, and the count.
type timing struct {
	N     int
	P50   float64
	Tail  float64 // value at TailP
	TailP float64 // the tail level actually reported
}

// summarize reports xs at the median and at want (e.g. 0.99). When fewer
// than ten samples lie beyond want, the tail falls back to the highest
// level that has them, and TailP says which level that was. xs is left as
// it was.
func summarize(xs []float64, want float64) timing {
	xs = append([]float64(nil), xs...)
	t := timing{N: len(xs), P50: quantile(xs, 0.5)}
	t.TailP = math.Min(want, tailLevel(len(xs)))
	if t.TailP == 0 {
		t.TailP = 0.5
	}
	t.Tail = quantile(xs, t.TailP)
	return t
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
