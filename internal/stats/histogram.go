package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a fixed-width-bucket histogram over [0, Width·Buckets),
// with an overflow bucket for larger values. It is used to record packet
// latencies without retaining every sample.
type Histogram struct {
	width    float64
	counts   []int64
	overflow int64
	sum      float64
	n        int64
	max      float64
}

// NewHistogram creates a histogram with the given bucket width and count.
// It panics if width ≤ 0 or buckets ≤ 0 (programmer error).
func NewHistogram(width float64, buckets int) *Histogram {
	if width <= 0 || buckets <= 0 {
		panic(fmt.Sprintf("stats: invalid histogram shape width=%v buckets=%d", width, buckets))
	}
	return &Histogram{width: width, counts: make([]int64, buckets)}
}

// Add records one observation. Negative values clamp to bucket 0.
func (h *Histogram) Add(x float64) {
	h.n++
	h.sum += x
	if x > h.max {
		h.max = x
	}
	if x < 0 {
		x = 0
	}
	i := int(x / h.width)
	if i >= len(h.counts) {
		h.overflow++
		return
	}
	h.counts[i]++
}

// N returns the number of observations.
func (h *Histogram) N() int64 { return h.n }

// Mean returns the exact mean of all observations (tracked separately
// from the buckets, so it is not subject to bucketing error).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Max returns the largest observation.
func (h *Histogram) Max() float64 { return h.max }

// Quantile returns an estimate of the q-quantile using bucket midpoints.
// Observations in the overflow bucket are treated as the recorded max.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.n)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			return (float64(i) + 0.5) * h.width
		}
	}
	return h.max
}

// String renders a compact textual summary.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.1f p50=%.1f p99=%.1f max=%.1f",
		h.n, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.max)
	return b.String()
}
