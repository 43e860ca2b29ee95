package sinr

import (
	"math"
	"math/rand"
	"testing"

	"dynsched/internal/geom"
	"dynsched/internal/interference"
	"dynsched/internal/netgraph"
)

func pcModel(t *testing.T, g *netgraph.Graph) *PowerControl {
	t.Helper()
	m, err := NewPowerControl(g, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPowerControlWeightInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := netgraph.RandomPairs(rng, 12, 60, 1, 6)
	m := pcModel(t, g)
	if err := interference.ValidateWeights(m); err != nil {
		t.Fatal(err)
	}
}

func TestSolvePowersSatisfiesSINR(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := netgraph.RandomPairs(rng, 12, 120, 1, 3)
	m := pcModel(t, g)
	prm := m.prm
	solved := 0
	for trial := 0; trial < 60; trial++ {
		k := 1 + rng.Intn(5)
		seen := make(map[int]bool)
		var set []int
		for len(set) < k {
			e := rng.Intn(g.NumLinks())
			if !seen[e] {
				seen[e] = true
				set = append(set, e)
			}
		}
		powers, ok := m.SolvePowers(set)
		if !ok {
			continue
		}
		solved++
		// Every member must meet the SINR constraint under these powers.
		for i, e := range set {
			le := netgraph.LinkID(e)
			signal := powers[i] / math.Pow(g.LinkDist(le), prm.Alpha)
			interf := prm.Noise
			for j, e2 := range set {
				if i == j {
					continue
				}
				d := g.Pos(g.Link(netgraph.LinkID(e2)).From).Dist(g.Pos(g.Link(le).To))
				interf += powers[j] / math.Pow(d, prm.Alpha)
			}
			if signal < prm.Beta*interf*(1-1e-6) {
				t.Fatalf("trial %d: link %d violates SINR under solved powers (signal %v < β·I %v)",
					trial, e, signal, prm.Beta*interf)
			}
		}
	}
	if solved == 0 {
		t.Fatal("SolvePowers never succeeded; instance generator too dense")
	}
}

func TestSolvePowersSingleton(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	g := netgraph.RandomPairs(rng, 5, 50, 1, 4)
	m := pcModel(t, g)
	for e := 0; e < g.NumLinks(); e++ {
		if _, ok := m.SolvePowers([]int{e}); !ok {
			t.Errorf("singleton set {%d} unsolvable", e)
		}
	}
	if _, ok := m.SolvePowers(nil); !ok {
		t.Error("empty set unsolvable")
	}
}

func TestSolvePowersInfeasibleWhenColocated(t *testing.T) {
	// Two links whose senders sit on top of the other's receiver cannot
	// both satisfy any power assignment with β ≥ 1: each interferer is
	// as close to the receiver as the intended sender is far.
	g := netgraph.New(4)
	if err := g.SetPositions([]geom.Point{{X: 0}, {X: 10}, {X: 10}, {X: 0}}); err != nil {
		t.Fatal(err)
	}
	g.MustAddLink(0, 1) // 0 → 10
	g.MustAddLink(2, 3) // 10 → 0 (sender collocated with link 0's receiver)
	m := pcModel(t, g)
	if _, ok := m.SolvePowers([]int{0, 1}); ok {
		t.Error("collocated crossing links judged jointly feasible")
	}
}

func TestPowerControlSuccessesShedsNotAll(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	g := netgraph.RandomPairs(rng, 10, 30, 1, 4) // dense: some shedding likely
	m := pcModel(t, g)
	tx := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	resolve, _ := m.NewResolver(1)
	succ := resolve(tx)
	any := false
	for _, ok := range succ {
		any = any || ok
	}
	if !any {
		t.Error("power control served no link at all in a dense slot")
	}
	// Duplicates still fail.
	s := resolve([]int{0, 0})
	if s[0] || s[1] {
		t.Error("duplicate attempts succeeded")
	}
}

func TestPowerControlSuccessesRespectSINR(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	g := netgraph.RandomPairs(rng, 8, 200, 1, 2) // sparse: most slots feasible
	m := pcModel(t, g)
	tx := []int{0, 1, 2, 3, 4, 5, 6, 7}
	resolve, _ := m.NewResolver(1)
	succ := resolve(tx)
	served := 0
	for _, ok := range succ {
		if ok {
			served++
		}
	}
	if served < 6 {
		t.Errorf("sparse instance served only %d/8 links", served)
	}
}
