package sinr

import (
	"math"
	"math/rand"
	"testing"

	"dynsched/internal/geom"
	"dynsched/internal/interference"
	"dynsched/internal/netgraph"
)

func linearModel(t *testing.T, g *netgraph.Graph) *FixedPower {
	t.Helper()
	prm := DefaultParams()
	p, err := Powers(g, prm, PowerLinear, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewFixedPower(g, prm, p, WeightAffectance)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func uniformModel(t *testing.T, g *netgraph.Graph) *FixedPower {
	t.Helper()
	prm := DefaultParams()
	p, err := Powers(g, prm, PowerUniform, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewFixedPower(g, prm, p, WeightMonotone)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFixedPowerWeightInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := netgraph.RandomPairs(rng, 15, 60, 1, 5)
	for _, m := range []*FixedPower{linearModel(t, g), uniformModel(t, g)} {
		if err := interference.ValidateWeights(m); err != nil {
			t.Errorf("%s: %v", m.Name(), err)
		}
	}
}

func TestFixedPowerConstructorErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	g := netgraph.RandomPairs(rng, 3, 50, 1, 2)
	prm := DefaultParams()
	p, err := Powers(g, prm, PowerUniform, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewFixedPower(g, prm, p[:2], WeightAffectance); err == nil {
		t.Error("wrong power count accepted")
	}
	if _, err := NewFixedPower(g, prm, p, WeightKind(0)); err == nil {
		t.Error("bad weight kind accepted")
	}
	bad := append([]float64(nil), p...)
	bad[0] = 0
	if _, err := NewFixedPower(g, prm, bad, WeightAffectance); err == nil {
		t.Error("zero power accepted")
	}
	noPos := netgraph.New(2)
	noPos.MustAddLink(0, 1)
	if _, err := NewFixedPower(noPos, prm, []float64{1}, WeightAffectance); err == nil {
		t.Error("graph without positions accepted")
	}
}

// TestSINRSuccessMatchesAffectanceSum verifies the exact correspondence
// the analysis relies on: with fixed powers and no affectance caps
// binding, a transmission succeeds iff the summed affectance of the
// other transmissions at its link is at most 1.
func TestSINRSuccessMatchesAffectanceSum(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	g := netgraph.RandomPairs(rng, 10, 40, 1, 3)
	prm := DefaultParams()
	powers, err := Powers(g, prm, PowerLinear, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewFixedPower(g, prm, powers, WeightAffectance)
	if err != nil {
		t.Fatal(err)
	}
	resolve, _ := m.NewResolver(1)
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.Intn(6)
		seen := make(map[int]bool)
		var set []int
		for len(set) < k {
			e := rng.Intn(g.NumLinks())
			if !seen[e] {
				seen[e] = true
				set = append(set, e)
			}
		}
		succ := resolve(set)
		for i, e := range set {
			sum := 0.0
			capped := false
			for _, e2 := range set {
				if e2 == e {
					continue
				}
				a := Affectance(g, prm, powers, netgraph.LinkID(e2), netgraph.LinkID(e))
				if a == 1 {
					capped = true
				}
				sum += a
			}
			if capped {
				continue // the min{1,·} cap breaks the exact equivalence
			}
			want := sum <= 1
			if succ[i] != want {
				t.Fatalf("trial %d link %d: success=%v but affectance sum=%v", trial, e, succ[i], sum)
			}
		}
	}
}

func TestIsolatedLinksAllSucceed(t *testing.T) {
	// Far-apart pairs: everything transmits simultaneously and succeeds.
	g := pairGraph(t, 8, 500, 1)
	m := linearModel(t, g)
	tx := []int{0, 1, 2, 3, 4, 5, 6, 7}
	resolve, _ := m.NewResolver(1)
	for i, ok := range resolve(tx) {
		if !ok {
			t.Errorf("isolated link %d failed", i)
		}
	}
}

func TestCrowdedLinksInterfere(t *testing.T) {
	// Pairs packed closely: parallel transmission must fail somewhere.
	g := pairGraph(t, 6, 1.5, 1)
	m := uniformModel(t, g)
	tx := []int{0, 1, 2, 3, 4, 5}
	resolve, _ := m.NewResolver(1)
	all := true
	for _, ok := range resolve(tx) {
		all = all && ok
	}
	if all {
		t.Error("tightly packed links all succeeded — interference model broken")
	}
	// But each alone succeeds.
	for e := 0; e < 6; e++ {
		if s := resolve([]int{e}); !s[0] {
			t.Errorf("lone link %d failed", e)
		}
	}
}

func TestDuplicateAttemptsFail(t *testing.T) {
	g := pairGraph(t, 2, 100, 1)
	m := linearModel(t, g)
	resolve, _ := m.NewResolver(1)
	s := resolve([]int{0, 0, 1})
	if s[0] || s[1] {
		t.Error("duplicate attempts on a link succeeded")
	}
	if !s[2] {
		t.Error("independent link failed alongside duplicates")
	}
}

func TestMonotoneWeightChargesShorterLink(t *testing.T) {
	// Build two pairs with distinct lengths; the monotone matrix must
	// be zero from the shorter toward the longer link's row... i.e.
	// W[longer][shorter] = 0 and W[shorter][longer] ≥ 0.
	g := netgraph.New(4)
	pts := []geom.Point{{X: 0}, {X: 1}, {X: 10}, {X: 14}}
	if err := g.SetPositions(pts); err != nil {
		t.Fatal(err)
	}
	short := g.MustAddLink(0, 1) // length 1
	long := g.MustAddLink(2, 3)  // length 4
	m := uniformModel(t, g)
	if w := m.Weight(int(long), int(short)); w != 0 {
		t.Errorf("W[long][short] = %v, want 0 (interference charged to the shorter link)", w)
	}
	if w := m.Weight(int(short), int(long)); w < 0 {
		t.Errorf("W[short][long] = %v", w)
	}
}

func TestLinkLen(t *testing.T) {
	g := pairGraph(t, 3, 50, 2.5)
	m := linearModel(t, g)
	for e := 0; e < 3; e++ {
		if l := m.LinkLen(e); math.Abs(l-2.5) > 1e-9 {
			t.Errorf("LinkLen(%d) = %v, want 2.5", e, l)
		}
	}
}
