// Digest is a streaming quantile sketch with bounded memory, in the
// DDSketch family: values are counted in logarithmically-spaced
// buckets, giving a guaranteed relative error on every quantile
// regardless of how many samples stream through. Unlike Series it
// never grows with the run length, and unlike Histogram its shape does
// not depend on a configured range.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// DefaultDigestAlpha is the default relative accuracy: quantile
// estimates are within ±1% of the true value.
const DefaultDigestAlpha = 0.01

// Digest is a log-bucketed quantile sketch. The zero value is not
// usable; construct with NewDigest. Buckets are sparse: memory is
// O(log(max/min)/alpha), independent of sample count.
type Digest struct {
	alpha  float64
	gamma  float64 // (1+alpha)/(1-alpha)
	lg     float64 // log(gamma), cached
	counts map[int]int64
	zero   int64 // samples with x <= 0 (latencies are >= 1; robustness)
	n      int64
	sum    float64
	min    float64
	max    float64
}

// NewDigest creates a digest with the given relative accuracy
// (0 < alpha < 1); alpha <= 0 uses DefaultDigestAlpha.
func NewDigest(alpha float64) *Digest {
	if alpha <= 0 {
		alpha = DefaultDigestAlpha
	}
	if alpha >= 1 {
		panic(fmt.Sprintf("stats: invalid digest alpha %v", alpha))
	}
	gamma := (1 + alpha) / (1 - alpha)
	return &Digest{
		alpha:  alpha,
		gamma:  gamma,
		lg:     math.Log(gamma),
		counts: make(map[int]int64),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

func (d *Digest) bucket(x float64) int {
	return int(math.Ceil(math.Log(x) / d.lg))
}

// Add records one observation.
func (d *Digest) Add(x float64) { d.AddN(x, 1) }

// AddN records an observation with multiplicity w.
func (d *Digest) AddN(x float64, w int64) {
	if w <= 0 {
		return
	}
	d.n += w
	d.sum += x * float64(w)
	if x < d.min {
		d.min = x
	}
	if x > d.max {
		d.max = x
	}
	if x <= 0 {
		d.zero += w
		return
	}
	d.counts[d.bucket(x)] += w
}

// N returns the number of observations.
func (d *Digest) N() int64 { return d.n }

// Mean returns the exact mean (tracked outside the buckets).
func (d *Digest) Mean() float64 {
	if d.n == 0 {
		return 0
	}
	return d.sum / float64(d.n)
}

// Min and Max return the exact extremes (0 when empty).
func (d *Digest) Min() float64 {
	if d.n == 0 {
		return 0
	}
	return d.min
}

// Max returns the largest observation (0 when empty).
func (d *Digest) Max() float64 {
	if d.n == 0 {
		return 0
	}
	return d.max
}

// Quantile estimates the q-quantile (q clamped to [0,1]) within the
// digest's relative accuracy. Bucket i covers (gamma^(i-1), gamma^i];
// the estimate is the bucket's geometric midpoint clamped to the
// observed extremes.
func (d *Digest) Quantile(q float64) float64 {
	if d.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(d.n)))
	if target < 1 {
		target = 1
	}
	if target <= d.zero {
		return 0
	}
	cum := d.zero
	keys := make([]int, 0, len(d.counts))
	for k := range d.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		cum += d.counts[k]
		if cum >= target {
			est := 2 * math.Pow(d.gamma, float64(k)) / (d.gamma + 1)
			if est < d.min {
				est = d.min
			}
			if est > d.max {
				est = d.max
			}
			return est
		}
	}
	return d.max
}

// digestJSON is the wire form. Buckets are sorted [index, count]
// pairs so the encoding is deterministic — result documents that
// embed a digest stay byte-stable across marshals.
type digestJSON struct {
	Alpha   float64    `json:"alpha"`
	N       int64      `json:"n"`
	Sum     float64    `json:"sum"`
	Min     float64    `json:"min"`
	Max     float64    `json:"max"`
	Zero    int64      `json:"zero,omitempty"`
	Buckets [][2]int64 `json:"buckets,omitempty"`
}

// MarshalJSON encodes the digest's full state deterministically.
func (d *Digest) MarshalJSON() ([]byte, error) {
	doc := digestJSON{Alpha: d.alpha, N: d.n, Sum: d.sum, Zero: d.zero}
	if d.n > 0 {
		doc.Min, doc.Max = d.min, d.max
	}
	keys := make([]int, 0, len(d.counts))
	for k := range d.counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		doc.Buckets = append(doc.Buckets, [2]int64{int64(k), d.counts[k]})
	}
	return json.Marshal(doc)
}

// UnmarshalJSON restores a digest encoded by MarshalJSON.
func (d *Digest) UnmarshalJSON(data []byte) error {
	var doc digestJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	if doc.Alpha <= 0 || doc.Alpha >= 1 {
		return fmt.Errorf("stats: invalid digest document alpha=%v", doc.Alpha)
	}
	*d = *NewDigest(doc.Alpha)
	d.n, d.sum, d.zero = doc.N, doc.Sum, doc.Zero
	if d.n > 0 {
		d.min, d.max = doc.Min, doc.Max
	}
	for _, b := range doc.Buckets {
		d.counts[int(b[0])] = b[1]
	}
	return nil
}
