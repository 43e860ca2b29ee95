// Package capacity computes single-slot capacity references: the
// largest sets of links that can transmit simultaneously under a model.
// The experiments use these as the "optimal protocol" yardstick the
// paper's competitive ratios are measured against — an optimal scheduler
// cannot serve more than one maximum feasible set per slot.
package capacity

import (
	"math/rand"

	"dynsched/internal/interference"
)

// MaxFeasibleExact finds a maximum-cardinality feasible set by branch
// and bound over links 0..n-1. It is exponential in the worst case;
// intended for n ≲ 24 (tests and small OPT references).
func MaxFeasibleExact(m interference.Model, maxLinks int) []int {
	resolve, _ := m.NewResolver(0)
	n := m.NumLinks()
	if maxLinks > 0 && maxLinks < n {
		n = maxLinks
	}
	var best []int
	var rec func(next int, chosen []int)
	rec = func(next int, chosen []int) {
		if len(chosen)+(n-next) <= len(best) {
			return // cannot beat the incumbent
		}
		if next == n {
			if len(chosen) > len(best) {
				best = append([]int(nil), chosen...)
			}
			return
		}
		// Branch 1: include next, if the set stays feasible.
		trial := append(chosen, next)
		if interference.SlotFeasible(resolve, trial) {
			rec(next+1, trial)
		}
		// Branch 2: exclude next.
		rec(next+1, chosen)
	}
	rec(0, nil)
	return best
}

// greedyFeasible builds a feasible set greedily in the given link
// order, keeping each link whose addition leaves the whole set
// feasible. It runs on a resolver the caller reuses: each candidate is
// appended, tested in place and popped again when the set stops being
// feasible.
func greedyFeasible(resolve func(tx []int) []bool, order []int) []int {
	var set []int
	for _, e := range order {
		set = append(set, e)
		if !interference.SlotFeasible(resolve, set) {
			set = set[:len(set)-1]
		}
	}
	return set
}

// RandomizedGreedy runs greedyFeasible over `rounds` random orders and
// returns the best set found — the scalable stand-in for the exact
// search on larger instances.
func RandomizedGreedy(rng *rand.Rand, m interference.Model, rounds int) []int {
	var best []int
	n := m.NumLinks()
	resolve, _ := m.NewResolver(0)
	for r := 0; r < rounds; r++ {
		set := greedyFeasible(resolve, rng.Perm(n))
		if len(set) > len(best) {
			best = set
		}
	}
	return best
}

// SlotCapacity estimates the model's single-slot capacity (the maximum
// number of simultaneous successes): exact for small networks, best-of
// randomized greedy otherwise.
func SlotCapacity(rng *rand.Rand, m interference.Model) int {
	if m.NumLinks() <= 20 {
		return len(MaxFeasibleExact(m, 0))
	}
	return len(RandomizedGreedy(rng, m, 32))
}

// MeasureOfSet returns the interference measure of serving each link in
// the set once — the paper's lower-bound currency: if every single-slot
// feasible set has measure at most c, no protocol sustains measure rate
// above c.
func MeasureOfSet(m interference.Model, set []int) float64 {
	r := make([]int, m.NumLinks())
	for _, e := range set {
		r[e]++
	}
	return interference.Measure(m, r)
}

// MaxFeasibleMeasure estimates the largest measure of any single-slot
// feasible set — the optimal protocol's per-slot measure throughput.
// Greedy orders are chosen to favour high-measure sets.
func MaxFeasibleMeasure(rng *rand.Rand, m interference.Model, rounds int) float64 {
	best := 0.0
	n := m.NumLinks()
	resolve, _ := m.NewResolver(0)
	for r := 0; r < rounds; r++ {
		set := greedyFeasible(resolve, rng.Perm(n))
		if v := MeasureOfSet(m, set); v > best {
			best = v
		}
	}
	// Singletons are always feasible when noise permits; consider them too.
	for e := 0; e < n; e++ {
		if interference.SlotFeasible(resolve, []int{e}) {
			if v := MeasureOfSet(m, []int{e}); v > best {
				best = v
			}
		}
	}
	return best
}
