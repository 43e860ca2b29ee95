// Package interference defines the paper's central abstraction: a linear
// interference measure given by a matrix W over communication links
// (Section 2). W[e][e'] ∈ [0,1] quantifies how much a transmission on e'
// disturbs a transmission on e, with W[e][e] = 1. For a request vector R
// (packets per link) the interference measure is
//
//	I = ‖W·R‖∞ = max_e Σ_e' W[e][e']·R(e').
//
// A Model couples the analysis matrix W with the slot-level transmission
// semantics (which simultaneous transmissions succeed), exposed as one
// success oracle: the resolver Model.NewResolver builds. Instantiations
// in sibling packages cover the SINR model, conflict graphs, the
// multiple-access channel, and packet routing.
package interference

import (
	"fmt"
	"math"
)

// Model is an interference model over a fixed set of links 0..NumLinks-1.
//
// Weight is the analysis-side matrix W used to bound injection rates and
// compute schedules' interference measures. NewResolver builds the
// physical-side ground truth that decides which simultaneous
// transmissions are received; for geometric models the two sides are
// deliberately distinct (W is derived from, but not identical to, the
// physics), exactly as in the paper.
type Model interface {
	// Name identifies the model in experiment output.
	Name() string
	// NumLinks returns the number of communication links.
	NumLinks() int
	// Weight returns W[e][e2], the relative interference that a
	// transmission on e2 causes at e. Weight(e, e) must be 1 and all
	// values must lie in [0, 1].
	Weight(e, e2 int) float64
	// NewResolver returns a slot resolver and a function reporting that
	// resolver's own accounting. resolve decides one time slot: tx
	// lists the links transmitting in it, with multiplicity — if a link
	// appears more than once (two packets attempt the same link) all of
	// its entries fail, since each link carries at most one packet per
	// slot. The result has one entry per element of tx and is valid
	// only until the next call. A resolver is per-goroutine scratch:
	// each goroutine builds its own, and stats must be called from the
	// resolver's goroutine. workers is the intra-slot worker count (0 =
	// the model's default; models that never shard ignore it), and the
	// verdicts are identical at every worker count.
	NewResolver(workers int) (resolve func(tx []int) []bool, stats func() ResolveStats)
}

// Measure returns I = ‖W·R‖∞ for an integer request vector R indexed by
// link ID. It panics if len(R) != m.NumLinks() (programmer error).
//
// Models that expose their matrix in CSR form (RowsProvider) are
// evaluated over flat arrays in O(nnz); the all-ones MAC matrix reduces
// to the total request count. Both fast paths produce bit-identical
// results to the generic Weight-by-Weight loop: the entries each path
// skips are exact +0.0 terms of the same ascending-column summation.
func Measure(m Model, r []int) float64 {
	if len(r) != m.NumLinks() {
		panic(fmt.Sprintf("interference: request vector length %d, model has %d links", len(r), m.NumLinks()))
	}
	switch m.(type) {
	case AllOnes:
		return allOnesMeasure(r)
	case Identity:
		// W is the identity: the measure is the maximum request count.
		best := 0.0
		for _, cnt := range r {
			if v := float64(cnt); v > best {
				best = v
			}
		}
		return best
	}
	if rp, ok := m.(RowsProvider); ok {
		return rp.WeightRows().MulInfNorm(r)
	}
	best := 0.0
	for e := 0; e < len(r); e++ {
		v := MeasureAt(m, r, e)
		if v > best {
			best = v
		}
	}
	return best
}

// allOnesMeasure sums an integer vector as float64s; counts are integer
// so the sum is exact and equals every row of the all-ones product.
func allOnesMeasure(r []int) float64 {
	sum := 0.0
	for _, cnt := range r {
		sum += float64(cnt)
	}
	return sum
}

// MeasureAt returns (W·R)(e), the measure component at link e.
func MeasureAt(m Model, r []int, e int) float64 {
	if _, ok := m.(Identity); ok {
		return float64(r[e])
	}
	if rp, ok := m.(RowsProvider); ok {
		return rp.WeightRows().RowDot(e, r)
	}
	sum := 0.0
	for e2, cnt := range r {
		if cnt == 0 {
			continue
		}
		sum += m.Weight(e, e2) * float64(cnt)
	}
	return sum
}

// MeasureVec returns ‖W·F‖∞ for a fractional vector F (used for expected
// per-slot injection vectors).
func MeasureVec(m Model, f []float64) float64 {
	if len(f) != m.NumLinks() {
		panic(fmt.Sprintf("interference: vector length %d, model has %d links", len(f), m.NumLinks()))
	}
	if _, ok := m.(Identity); ok {
		best := 0.0
		for _, v := range f {
			if v > best {
				best = v
			}
		}
		return best
	}
	if rp, ok := m.(RowsProvider); ok {
		return rp.WeightRows().MulInfNormVec(f)
	}
	best := 0.0
	for e := range f {
		sum := 0.0
		for e2, v := range f {
			if v == 0 {
				continue
			}
			sum += m.Weight(e, e2) * v
		}
		if sum > best {
			best = sum
		}
	}
	return best
}

// SlotFeasible reports whether every transmission in tx succeeds when
// attempted simultaneously under a model's resolver.
func SlotFeasible(resolve func(tx []int) []bool, tx []int) bool {
	for _, ok := range resolve(tx) {
		if !ok {
			return false
		}
	}
	return len(tx) > 0
}

// ValidateWeights checks the structural W invariants the paper assumes:
// unit diagonal and entries in [0,1]. Intended for tests; cost is O(E²).
func ValidateWeights(m Model) error {
	n := m.NumLinks()
	for e := 0; e < n; e++ {
		if d := m.Weight(e, e); d != 1 {
			return fmt.Errorf("interference: W[%d][%d] = %v, want 1", e, e, d)
		}
		for e2 := 0; e2 < n; e2++ {
			w := m.Weight(e, e2)
			if math.IsNaN(w) || w < 0 || w > 1 {
				return fmt.Errorf("interference: W[%d][%d] = %v outside [0,1]", e, e2, w)
			}
		}
	}
	return nil
}
