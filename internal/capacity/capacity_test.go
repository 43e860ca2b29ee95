package capacity

import (
	"math/rand"
	"testing"

	"dynsched/internal/conflict"
	"dynsched/internal/interference"
)

func TestMaxFeasibleExactIdentity(t *testing.T) {
	// Identity model: every subset of distinct links is feasible.
	m := interference.Identity{Links: 6}
	best := MaxFeasibleExact(m, 0)
	if len(best) != 6 {
		t.Fatalf("exact = %d links, want 6", len(best))
	}
}

func TestMaxFeasibleExactMAC(t *testing.T) {
	m := interference.AllOnes{Links: 5}
	best := MaxFeasibleExact(m, 0)
	if len(best) != 1 {
		t.Fatalf("MAC exact = %d links, want 1", len(best))
	}
}

func TestMaxFeasibleExactConflict(t *testing.T) {
	// A 5-cycle conflict graph has independence number 2.
	cg := conflict.NewGraph(5)
	for i := 0; i < 5; i++ {
		if err := cg.AddConflict(i, (i+1)%5); err != nil {
			t.Fatal(err)
		}
	}
	m, err := conflict.NewModel(cg, nil)
	if err != nil {
		t.Fatal(err)
	}
	best := MaxFeasibleExact(m, 0)
	if len(best) != 2 {
		t.Fatalf("C5 exact = %d links, want 2", len(best))
	}
	if !cg.Independent(best) {
		t.Fatalf("exact set %v not independent", best)
	}
}

func TestGreedyNeverBeatsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	for trial := 0; trial < 20; trial++ {
		cg := conflict.Random(rng, 12, 0.3)
		m, err := conflict.NewModel(cg, nil)
		if err != nil {
			t.Fatal(err)
		}
		exact := MaxFeasibleExact(m, 0)
		greedy := RandomizedGreedy(rng, m, 8)
		if len(greedy) > len(exact) {
			t.Fatalf("greedy %d beats exact %d", len(greedy), len(exact))
		}
		if len(greedy) == 0 && len(exact) > 0 {
			t.Fatalf("greedy found nothing, exact found %d", len(exact))
		}
		// Every returned set must actually be feasible.
		if resolve, _ := m.NewResolver(1); len(greedy) > 0 && !interference.SlotFeasible(resolve, greedy) {
			t.Fatal("greedy returned infeasible set")
		}
	}
}

func TestSlotCapacitySwitchesStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(312))
	small := interference.Identity{Links: 8}
	if got := SlotCapacity(rng, small); got != 8 {
		t.Errorf("small capacity = %d, want 8", got)
	}
	large := interference.Identity{Links: 64}
	if got := SlotCapacity(rng, large); got != 64 {
		t.Errorf("large capacity = %d, want 64 (greedy finds all on identity)", got)
	}
}

func TestMeasureOfSet(t *testing.T) {
	m := interference.AllOnes{Links: 4}
	if got := MeasureOfSet(m, []int{0, 2}); got != 2 {
		t.Errorf("measure = %v, want 2", got)
	}
}

func TestMaxFeasibleMeasurePositive(t *testing.T) {
	rng := rand.New(rand.NewSource(313))
	m := interference.Identity{Links: 10}
	// For identity, all 10 links fit in a slot, each row sums to 1.
	got := MaxFeasibleMeasure(rng, m, 16)
	if got < 1 {
		t.Errorf("max feasible measure = %v, want ≥ 1", got)
	}
}
