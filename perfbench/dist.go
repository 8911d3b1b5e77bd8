package main

import (
	"fmt"
	"math"
	"sort"
)

// Timing samples are summarised by their median and by the highest
// percentile that still has at least minBeyond samples above it, so a
// tail figure never rests on one or two outliers.
const minBeyond = 10

// tailLadder lists the percentiles a tail figure may report, highest
// first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// rank returns the 1-based nearest rank of quantile q in n samples.
func rank(q float64, n int) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// beyond counts the samples strictly above quantile q's rank.
func beyond(q float64, n int) int { return n - rank(q, n) }

// tailQuantile returns the highest ladder percentile with at least
// minBeyond samples beyond it, or 0 when even the median has fewer.
func tailQuantile(n int) float64 {
	for _, q := range tailLadder {
		if beyond(q, n) >= minBeyond {
			return q
		}
	}
	return 0
}

// quantile returns the nearest-rank q-quantile of an ascending sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(q, len(sorted))-1]
}

// dist is a sorted timing sample.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

func (d dist) n() int               { return len(d) }
func (d dist) p50() float64         { return quantile(d, 0.5) }
func (d dist) at(q float64) float64 { return quantile(d, q) }

// tail returns the q-quantile, refusing when the sample is too small
// for q to have minBeyond samples beyond it.
func (d dist) tail(q float64) (float64, error) {
	if b := beyond(q, len(d)); b < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d", q*100, minBeyond, b, len(d))
	}
	return quantile(d, q), nil
}
