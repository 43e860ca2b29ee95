package conflict

import (
	"math/rand"
	"testing"

	"dynsched/internal/testenv"
)

// TestResolverZeroAllocs pins the conflict-graph resolver's
// zero-steady-state-allocation guarantee.
func TestResolverZeroAllocs(t *testing.T) {
	testenv.SkipIfRace(t)
	rng := rand.New(rand.NewSource(5))
	cg := Random(rng, 32, 0.2)
	m, err := NewModel(cg, nil)
	if err != nil {
		t.Fatal(err)
	}
	tx := []int{0, 5, 9, 13, 17, 21, 25, 29, 2, 2}
	resolve, _ := m.NewResolver(0)
	resolve(tx) // warm the reusable buffers
	if got := testing.AllocsPerRun(200, func() { resolve(tx) }); got != 0 {
		t.Errorf("conflict resolver: %v allocs per slot, want 0", got)
	}
}
