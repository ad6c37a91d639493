package main

import (
	"math"
	"sort"
)

// dist is a sample set of one metric, in the metric's own unit.
type dist []float64

// quantile is the linearly interpolated q-quantile (0 <= q <= 1).
func (d dist) quantile(q float64) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), d...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func (d dist) median() float64 { return d.quantile(0.5) }

// tailLadder is the set of percentiles a tail is reported at.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest ladder percentile that has at least ten
// samples beyond it, and its value. ok is false when even the median
// has fewer than ten samples above it.
func (d dist) tail() (pct, val float64, ok bool) {
	n := float64(len(d))
	for _, p := range tailLadder {
		if n*(1-p/100) >= 10 {
			return p, d.quantile(p / 100), true
		}
	}
	return 0, 0, false
}
