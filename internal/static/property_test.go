package static

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dynsched/internal/interference"
)

// algorithmsUnderTest returns all generic algorithms (the MAC-specific
// ones live in package mac).
func algorithmsUnderTest() []Algorithm {
	return []Algorithm{
		Trivial{},
		FullParallel{},
		Decay{},
		Decay{Adaptive: true},
		Spread{},
		Densify{Inner: Decay{}, Chi: 4},
		Densify{Inner: Spread{}, Chi: 4},
		GreedyPowerControl{},
	}
}

// checkedRun drives an execution while asserting the Execution
// contract: Attempts returns distinct, in-range, still-pending indices;
// Remaining decreases exactly with acknowledged successes.
func checkedRun(t *testing.T, rng *rand.Rand, m interference.Model, alg Algorithm, reqs []Request, maxSlots int) Result {
	t.Helper()
	exec := alg.NewExecution(m, reqs)
	served := make([]bool, len(reqs))
	res := Result{Served: make([]bool, len(reqs))}
	resolve, _ := m.NewResolver(1)
	for res.Slots < maxSlots && !exec.Done() {
		attempted := exec.Attempts(rng)
		res.Slots++
		seen := make(map[int]bool, len(attempted))
		for _, idx := range attempted {
			if idx < 0 || idx >= len(reqs) {
				t.Fatalf("%s: attempt index %d out of range", alg.Name(), idx)
			}
			if seen[idx] {
				t.Fatalf("%s: duplicate attempt index %d in one slot", alg.Name(), idx)
			}
			seen[idx] = true
			if served[idx] {
				t.Fatalf("%s: re-attempted served request %d", alg.Name(), idx)
			}
		}
		if len(attempted) == 0 {
			continue
		}
		tx := make([]int, len(attempted))
		for i, idx := range attempted {
			tx[i] = reqs[idx].Link
		}
		success := resolve(tx)
		before := exec.Remaining()
		exec.Observe(attempted, success)
		newly := 0
		for i, idx := range attempted {
			if success[i] && !served[idx] {
				served[idx] = true
				res.Served[idx] = true
				newly++
			}
		}
		if after := exec.Remaining(); after != before-newly {
			t.Fatalf("%s: Remaining went %d → %d after %d successes",
				alg.Name(), before, after, newly)
		}
	}
	return res
}

func TestExecutionContractProperty(t *testing.T) {
	f := func(seed int64, perLink uint8, linksRaw uint8) bool {
		links := 2 + int(linksRaw%6)
		k := 1 + int(perLink%5)
		m := interference.Identity{Links: links}
		var reqs []Request
		for e := 0; e < links; e++ {
			for i := 0; i < k; i++ {
				reqs = append(reqs, Request{Link: e, Tag: int64(e*100 + i)})
			}
		}
		rng := rand.New(rand.NewSource(seed))
		for _, alg := range algorithmsUnderTest() {
			budget := 64 * alg.Budget(links, float64(k), len(reqs))
			res := checkedRun(t, rng, m, alg, reqs, budget)
			if !res.AllServed() {
				t.Logf("%s: %d/%d served in %d slots (seed %d)",
					alg.Name(), res.NumServed(), len(reqs), res.Slots, seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestBudgetCoversTypicalRuns: the advertised Budget should cover the
// typical schedule length with room to spare — the dynamic protocol's
// frames depend on it.
func TestBudgetCoversTypicalRuns(t *testing.T) {
	m := interference.Identity{Links: 4}
	rng := rand.New(rand.NewSource(91))
	reqs := make([]Request, 0, 48)
	for e := 0; e < 4; e++ {
		for i := 0; i < 12; i++ {
			reqs = append(reqs, Request{Link: e, Tag: int64(e*100 + i)})
		}
	}
	meas := RequestMeasure(m, reqs)
	for _, alg := range algorithmsUnderTest() {
		budget := alg.Budget(4, meas, len(reqs))
		fails := 0
		const reps = 10
		for r := 0; r < reps; r++ {
			res := Run(rng, m, alg, reqs, budget)
			if !res.AllServed() {
				fails++
			}
		}
		if fails > 2 {
			t.Errorf("%s: budget %d failed %d/%d runs (I=%v, n=%d)",
				alg.Name(), budget, fails, reps, meas, len(reqs))
		}
	}
}

// TestEmptyAndSingletonInstances: degenerate inputs must not wedge any
// algorithm.
func TestEmptyAndSingletonInstances(t *testing.T) {
	m := interference.Identity{Links: 2}
	rng := rand.New(rand.NewSource(92))
	for _, alg := range algorithmsUnderTest() {
		empty := Run(rng, m, alg, nil, 10)
		if len(empty.Served) != 0 {
			t.Errorf("%s: empty run produced results", alg.Name())
		}
		one := Run(rng, m, alg, []Request{{Link: 1, Tag: 5}}, 0)
		if !one.AllServed() {
			t.Errorf("%s: failed on a singleton instance", alg.Name())
		}
	}
}
