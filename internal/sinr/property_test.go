package sinr

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dynsched/internal/interference"
	"dynsched/internal/netgraph"
)

// TestAffectanceRangeProperty: affectance always lies in [0, 1], for
// random geometries and every built-in power family.
func TestAffectanceRangeProperty(t *testing.T) {
	prm := DefaultParams()
	f := func(seed int64, kindPick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := netgraph.RandomPairs(rng, 6, 30, 0.5, 5)
		kind := []PowerKind{PowerUniform, PowerLinear, PowerSquareRoot}[int(kindPick)%3]
		powers, err := Powers(g, prm, kind, 1)
		if err != nil {
			return false
		}
		for a := 0; a < g.NumLinks(); a++ {
			for b := 0; b < g.NumLinks(); b++ {
				v := Affectance(g, prm, powers, netgraph.LinkID(a), netgraph.LinkID(b))
				if v < 0 || v > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestWeightInvariantsProperty: every fixed-power model construction
// satisfies the W structural invariants on random instances.
func TestWeightInvariantsProperty(t *testing.T) {
	prm := DefaultParams()
	f := func(seed int64, monotone bool) bool {
		rng := rand.New(rand.NewSource(seed))
		g := netgraph.RandomPairs(rng, 8, 40, 1, 4)
		kind, wk := PowerLinear, WeightAffectance
		if monotone {
			kind, wk = PowerUniform, WeightMonotone
		}
		powers, err := Powers(g, prm, kind, 1)
		if err != nil {
			return false
		}
		m, err := NewFixedPower(g, prm, powers, wk)
		if err != nil {
			return false
		}
		return interference.ValidateWeights(m) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestSuccessMonotoneInInterferers: adding transmitters can only turn
// successes into failures, never the reverse — the physical layer's
// fundamental monotonicity.
func TestSuccessMonotoneInInterferers(t *testing.T) {
	prm := DefaultParams()
	rng := rand.New(rand.NewSource(71))
	g := netgraph.RandomPairs(rng, 12, 50, 1, 4)
	powers, err := Powers(g, prm, PowerUniform, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewFixedPower(g, prm, powers, WeightMonotone)
	if err != nil {
		t.Fatal(err)
	}
	resolve, _ := m.NewResolver(1)
	for trial := 0; trial < 200; trial++ {
		perm := rng.Perm(g.NumLinks())
		k := 2 + rng.Intn(6)
		sub := perm[:k/2+1]
		super := perm[:k]
		subOK := slices.Clone(resolve(sub))
		superOK := resolve(super)
		for i, e := range sub {
			// Find e's verdict in the superset.
			for j, e2 := range super {
				if e2 == e && superOK[j] && !subOK[i] {
					t.Fatalf("trial %d: link %d failed in subset but succeeded in superset", trial, e)
				}
			}
		}
	}
}

// TestPowerControlWeightZeroTowardLonger: the §6.2 matrix charges
// interference to the shorter link only.
func TestPowerControlWeightZeroTowardLonger(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	g := netgraph.RandomPairs(rng, 10, 40, 1, 5)
	m, err := NewPowerControl(g, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 10; a++ {
		for b := 0; b < 10; b++ {
			if a == b {
				continue
			}
			da, db := g.LinkDist(netgraph.LinkID(a)), g.LinkDist(netgraph.LinkID(b))
			if da > db && m.Weight(a, b) != 0 {
				t.Fatalf("W[%d][%d] = %v but link %d is longer", a, b, m.Weight(a, b), a)
			}
		}
	}
}

// TestSolvePowersSubsetFeasible: if a set admits powers, so does every
// subset (fewer interferers can only help).
func TestSolvePowersSubsetFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	g := netgraph.RandomPairs(rng, 10, 80, 1, 3)
	m, err := NewPowerControl(g, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		perm := rng.Perm(10)
		k := 2 + rng.Intn(5)
		set := perm[:k]
		if _, ok := m.SolvePowers(set); !ok {
			continue
		}
		sub := set[:k-1]
		if _, ok := m.SolvePowers(sub); !ok {
			t.Fatalf("trial %d: superset feasible but subset %v is not", trial, sub)
		}
	}
}
