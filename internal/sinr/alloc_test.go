package sinr

import (
	"math/rand"
	"testing"

	"dynsched/internal/netgraph"
	"dynsched/internal/testenv"
)

func allocTestFixedPower(t *testing.T, kind WeightKind, opt Options) *FixedPower {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	g := netgraph.RandomPairs(rng, 64, 100, 1, 4)
	prm := DefaultParams()
	pk := PowerLinear
	if kind == WeightMonotone {
		pk = PowerUniform
	}
	powers, err := Powers(g, prm, pk, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewFixedPowerOpts(g, prm, powers, kind, opt)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFixedPowerResolverZeroAllocs pins the fixed-power resolver's
// zero-steady-state-allocation guarantee for both weight kinds on the
// table backings and for the indexed backing at ε = 0 and ε > 0: after
// one warm-up pass, resolution performs no heap allocations (and, on
// the tables, no math.Pow calls — every interference term is a gain
// table read). The resolver cycles through three transmitter sets:
// A→B changes a quarter of the set, which the ε > 0 spatial grid takes
// as a delta update, while B→C and C→A change all of it and rebuild the
// grid, so both grid paths are measured.
func TestFixedPowerResolverZeroAllocs(t *testing.T) {
	testenv.SkipIfRace(t)
	var a, b, c []int
	for e := 0; e < 64; e += 4 {
		a, c = append(a, e), append(c, e+1)
	}
	b = append([]int{2, 6, 10, 14}, a[4:]...)
	sets := [][]int{a, b, c}
	models := []*FixedPower{
		allocTestFixedPower(t, WeightAffectance, Options{}),
		allocTestFixedPower(t, WeightMonotone, Options{}),
		allocTestFixedPower(t, WeightMonotone, Options{Backing: BackIndexed}),
		allocTestFixedPower(t, WeightMonotone, Options{Backing: BackIndexed, FarFloor: 0.02}),
	}
	for _, m := range models {
		resolve, stats := m.NewResolver(0)
		for _, tx := range sets {
			resolve(tx) // warm the reusable buffers and the grid
		}
		warm := stats()
		i := 0
		if got := testing.AllocsPerRun(200, func() { resolve(sets[i%len(sets)]); i++ }); got != 0 {
			t.Errorf("%s %+v resolver: %v allocs per slot, want 0", m.Name(), m.Table(), got)
		}
		st := stats()
		rebuilds, deltas := st.GridRebuilds-warm.GridRebuilds, st.GridDeltaUpdates-warm.GridDeltaUpdates
		if m.Table().FarFloor > 0 && (rebuilds == 0 || deltas == 0) {
			t.Errorf("%s %+v: %d grid rebuilds and %d delta updates measured, want both paths run", m.Name(), m.Table(), rebuilds, deltas)
		}
	}
}

// TestPowerControlResolverZeroAllocs pins the power-control resolver:
// feasibility solving (gain system build, fixed-point iteration,
// shedding) runs entirely on recycled scratch.
func TestPowerControlResolverZeroAllocs(t *testing.T) {
	testenv.SkipIfRace(t)
	rng := rand.New(rand.NewSource(3))
	g := netgraph.RandomPairs(rng, 32, 200, 1, 3)
	m, err := NewPowerControl(g, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	tx := []int{0, 4, 8, 12, 16, 20, 24, 28}
	resolve, _ := m.NewResolver(0)
	resolve(tx) // warm the reusable buffers
	if got := testing.AllocsPerRun(200, func() { resolve(tx) }); got != 0 {
		t.Errorf("power-control resolver: %v allocs per slot, want 0", got)
	}
}
