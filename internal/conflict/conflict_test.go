package conflict

import (
	"math/rand"
	"testing"

	"dynsched/internal/interference"
	"dynsched/internal/netgraph"
)

func TestGraphBasics(t *testing.T) {
	g := NewGraph(4)
	if err := g.AddConflict(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddConflict(1, 2); err != nil {
		t.Fatal(err)
	}
	if !g.Conflicts(0, 1) || !g.Conflicts(1, 0) {
		t.Error("conflict not symmetric")
	}
	if g.Conflicts(0, 2) {
		t.Error("phantom conflict")
	}
	if !g.Conflicts(3, 3) {
		t.Error("self-conflict should hold")
	}
	if err := g.AddConflict(0, 9); err == nil {
		t.Error("out-of-range conflict accepted")
	}
	if err := g.AddConflict(2, 2); err != nil {
		t.Errorf("self-conflict add should be a no-op, got %v", err)
	}
	if got := g.Neighbors(1); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("Neighbors(1) = %v", got)
	}
	if g.Degree(1) != 2 || g.Degree(3) != 0 {
		t.Error("degrees wrong")
	}
}

func TestIndependent(t *testing.T) {
	g := NewGraph(4)
	_ = g.AddConflict(0, 1)
	if !g.Independent([]int{0, 2, 3}) {
		t.Error("independent set rejected")
	}
	if g.Independent([]int{0, 1}) {
		t.Error("conflicting set accepted")
	}
	if g.Independent([]int{2, 2}) {
		t.Error("duplicate set accepted (self-conflict)")
	}
}

func TestDegeneracyOrderIsPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	g := Random(rng, 30, 0.2)
	order := g.DegeneracyOrder()
	seen := make([]bool, 30)
	for _, v := range order {
		if v < 0 || v >= 30 || seen[v] {
			t.Fatalf("order not a permutation: %v", order)
		}
		seen[v] = true
	}
}

func TestRhoOnKnownGraphs(t *testing.T) {
	// A path a-b-c: any ordering certifies ρ = 1 with the degeneracy
	// order (each vertex has ≤ 2 earlier neighbours, at most 1
	// independent among them... for a path, earlier neighbours are
	// never adjacent to each other, so ρ ≤ 2; degeneracy order gives 1).
	path := NewGraph(3)
	_ = path.AddConflict(0, 1)
	_ = path.AddConflict(1, 2)
	rho := path.Rho(path.DegeneracyOrder(), 22)
	if rho < 1 || rho > 2 {
		t.Errorf("path rho = %d, want 1 or 2", rho)
	}

	// Complete graph K5: every earlier neighbourhood is a clique, so
	// ρ = 1 under any ordering.
	k5 := NewGraph(5)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			_ = k5.AddConflict(i, j)
		}
	}
	if rho := k5.Rho(k5.DegeneracyOrder(), 22); rho != 1 {
		t.Errorf("K5 rho = %d, want 1", rho)
	}

	// Star K1,4 with the hub last: earlier neighbours of the hub are the
	// 4 independent leaves, so that ordering certifies only ρ = 4; the
	// degeneracy order puts the hub first and certifies ρ = 1.
	star := NewGraph(5)
	for leaf := 1; leaf < 5; leaf++ {
		_ = star.AddConflict(0, leaf)
	}
	worst := []int{1, 2, 3, 4, 0}
	if rho := star.Rho(worst, 22); rho != 4 {
		t.Errorf("star worst-order rho = %d, want 4", rho)
	}
	if rho := star.Rho(star.DegeneracyOrder(), 22); rho != 1 {
		t.Errorf("star degeneracy rho = %d, want 1", rho)
	}

	// Empty graph: rho = 0.
	empty := NewGraph(4)
	if rho := empty.Rho(empty.DegeneracyOrder(), 22); rho != 0 {
		t.Errorf("empty rho = %d, want 0", rho)
	}
}

func TestRhoGreedyFallbackConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	g := Random(rng, 24, 0.3)
	order := g.DegeneracyOrder()
	exact := g.Rho(order, 30)
	greedy := g.Rho(order, 0) // force greedy everywhere
	if greedy > exact {
		t.Errorf("greedy rho %d exceeds exact %d", greedy, exact)
	}
}

func TestNodeConstraint(t *testing.T) {
	g := netgraph.New(4)
	a := g.MustAddLink(0, 1)
	b := g.MustAddLink(1, 2) // shares node 1 with a
	c := g.MustAddLink(2, 3) // shares node 2 with b
	cg := NodeConstraint(g)
	if !cg.Conflicts(int(a), int(b)) || !cg.Conflicts(int(b), int(c)) {
		t.Error("shared-endpoint links should conflict")
	}
	if cg.Conflicts(int(a), int(c)) {
		t.Error("disjoint links should not conflict")
	}
}

func TestDistance2Matching(t *testing.T) {
	// Line 0-1-2-3-4: links (0,1) and (2,3) have adjacent endpoints
	// (1 adjacent to 2), so they conflict at distance 2; links (0,1) and
	// (3,4) do not.
	g := netgraph.New(5)
	a := g.MustAddLink(0, 1)
	b := g.MustAddLink(1, 2)
	c := g.MustAddLink(2, 3)
	d := g.MustAddLink(3, 4)
	cg := Distance2Matching(g)
	if !cg.Conflicts(int(a), int(b)) {
		t.Error("adjacent links should conflict")
	}
	if !cg.Conflicts(int(a), int(c)) {
		t.Error("distance-2 links should conflict")
	}
	if cg.Conflicts(int(a), int(d)) {
		t.Error("distance-3 links should not conflict")
	}
}

func TestProtocolModel(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	g := netgraph.RandomPairs(rng, 10, 20, 1, 2)
	cg := ProtocolModel(g, 1)
	// Sanity: nearby pairs conflict, far pairs generally do not, and
	// the construction is symmetric by definition.
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if cg.Conflicts(i, j) != cg.Conflicts(j, i) {
				t.Fatalf("asymmetric conflicts %d,%d", i, j)
			}
		}
	}
}

func TestModelWeightsAndSuccesses(t *testing.T) {
	cg := NewGraph(3)
	_ = cg.AddConflict(0, 1)
	m, err := NewModel(cg, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := interference.ValidateWeights(m); err != nil {
		t.Fatal(err)
	}
	// π = (0,1,2): W[1][0] = 1 (0 earlier, conflicts), W[0][1] = 0.
	if m.Weight(1, 0) != 1 {
		t.Error("W[1][0] should be 1")
	}
	if m.Weight(0, 1) != 0 {
		t.Error("W[0][1] should be 0 (later in order)")
	}
	if m.Weight(0, 2) != 0 || m.Weight(2, 0) != 0 {
		t.Error("non-conflicting links should have weight 0")
	}
	// Slots: 0 and 1 conflict → both fail together; 2 independent.
	resolve, _ := m.NewResolver(1)
	s := resolve([]int{0, 1, 2})
	if s[0] || s[1] || !s[2] {
		t.Errorf("successes = %v", s)
	}
	if s := resolve([]int{0, 2}); !s[0] || !s[1] {
		t.Errorf("independent pair failed: %v", s)
	}
	// Duplicates fail.
	if s := resolve([]int{2, 2}); s[0] || s[1] {
		t.Error("duplicate succeeded")
	}
}

func TestNewModelRejectsBadOrder(t *testing.T) {
	cg := NewGraph(3)
	if _, err := NewModel(cg, []int{0, 1}); err == nil {
		t.Error("short order accepted")
	}
	if _, err := NewModel(cg, []int{0, 0, 1}); err == nil {
		t.Error("non-permutation accepted")
	}
	if m, err := NewModel(cg, nil); err != nil || m == nil {
		t.Errorf("nil order (degeneracy default) rejected: %v", err)
	}
}

// TestMeasureBoundsIndependentSets verifies the defining property the
// ρ-competitiveness argument needs: a feasible (independent) set has
// measure at most ρ at every link... concretely, for any independent set
// S and any link e ∈ S, the number of members conflicting with e that
// come earlier is at most ρ.
func TestMeasureBoundsIndependentSets(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	g := Random(rng, 20, 0.25)
	order := g.DegeneracyOrder()
	rho := g.Rho(order, 30)
	m, err := NewModel(g, order)
	if err != nil {
		t.Fatal(err)
	}
	// Sample independent sets greedily and check the measure bound.
	for trial := 0; trial < 40; trial++ {
		perm := rng.Perm(20)
		var set []int
		for _, v := range perm {
			ok := true
			for _, u := range set {
				if g.Conflicts(u, v) {
					ok = false
					break
				}
			}
			if ok {
				set = append(set, v)
			}
		}
		r := interference.Requests(20, set)
		meas := interference.Measure(m, r)
		// Each member contributes 1 to itself; earlier conflicting
		// members are independent among themselves, so ≤ ρ of them.
		if meas > float64(rho+1) {
			t.Fatalf("independent set measure %v exceeds rho+1 = %d", meas, rho+1)
		}
	}
}
