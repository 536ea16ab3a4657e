package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics. xs need not be sorted; it is not modified.
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

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// summary is what the report keeps of one metric's repetitions.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

func summarize(xs []float64) summary {
	return summary{
		N:      len(xs),
		Min:    quantile(xs, 0),
		Q1:     quantile(xs, 0.25),
		Median: quantile(xs, 0.5),
		Q3:     quantile(xs, 0.75),
		Max:    quantile(xs, 1),
	}
}

// tailLadder is the set of percentiles a tail latency may be reported at,
// in per-mille so the ten-samples rule is integer arithmetic.
var tailLadder = []int{999, 990, 950, 900, 750}

// tailPercentile picks the highest ladder percentile that still has at
// least ten of n samples beyond it; with fewer than 40 samples no tail is
// resolvable and the median stands in.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n*(1000-p) >= 10*1000 {
			return float64(p) / 1000
		}
	}
	return 0.5
}

// latencyStats returns the median and the tail of per-point times (ms).
func latencyStats(ms []float64) (p50, tail float64) {
	return quantile(ms, 0.5), quantile(ms, tailPercentile(len(ms)))
}
