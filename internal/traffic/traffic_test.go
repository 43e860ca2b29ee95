package traffic

import (
	"math"
	"math/rand"
	"testing"

	"dynsched/internal/interference"
	"dynsched/internal/netgraph"
)

func TestSingleHopRate(t *testing.T) {
	m := interference.Identity{Links: 4}
	proc, err := SingleHop(m, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(proc.Rate()-0.3) > 1e-9 {
		t.Fatalf("rate = %v, want 0.3", proc.Rate())
	}
}

func TestPathsSuperCritical(t *testing.T) {
	m := interference.Identity{Links: 3}
	g := netgraph.LineNetwork(4, 1)
	p, _ := netgraph.ShortestPath(g, 0, 3)
	// Rates above 1 must be expressible (for overload experiments).
	proc, err := Paths(interference.Identity{Links: g.NumLinks()}, []netgraph.Path{p}, 2.2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(proc.Rate()-2.2) > 1e-9 {
		t.Fatalf("rate = %v, want 2.2", proc.Rate())
	}
	if _, err := Paths(m, nil, 0.5); err == nil {
		t.Fatal("empty path list accepted")
	}
}

func TestConvergecast(t *testing.T) {
	g := netgraph.GridNetwork(3, 3, 1)
	m := interference.Identity{Links: g.NumLinks()}
	proc, maxHops, err := Convergecast(m, g, 0, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if maxHops != 4 {
		t.Errorf("max hops = %d, want 4 (corner to corner)", maxHops)
	}
	if math.Abs(proc.Rate()-0.2) > 1e-9 {
		t.Errorf("rate = %v, want 0.2", proc.Rate())
	}
	// A disconnected node must fail loudly.
	iso := netgraph.New(3)
	iso.MustAddLink(0, 1)
	if _, _, err := Convergecast(interference.Identity{Links: 1}, iso, 0, 0.1); err == nil {
		t.Error("unreachable sink accepted")
	}
}

func TestRandomPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	g := netgraph.GridNetwork(3, 3, 1)
	m := interference.Identity{Links: g.NumLinks()}
	proc, maxHops, err := RandomPairs(rng, m, g, 5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if maxHops < 1 {
		t.Errorf("max hops = %d", maxHops)
	}
	if math.Abs(proc.Rate()-0.3) > 1e-9 {
		t.Errorf("rate = %v", proc.Rate())
	}
}

func TestHotspot(t *testing.T) {
	rng := rand.New(rand.NewSource(302))
	g := netgraph.GridNetwork(3, 3, 1)
	m := interference.Identity{Links: g.NumLinks()}
	proc, _, err := Hotspot(rng, m, g, 4, 0.7, 4, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(proc.Rate()-0.25) > 1e-9 {
		t.Errorf("rate = %v", proc.Rate())
	}
	if _, _, err := Hotspot(rng, m, g, 4, 1.5, 4, 0.25); err == nil {
		t.Error("bad hot fraction accepted")
	}
}

func TestWorkloadsActuallyInject(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	g := netgraph.GridNetwork(3, 3, 1)
	m := interference.Identity{Links: g.NumLinks()}
	sh, err := SingleHop(m, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for slot := int64(0); slot < 2000; slot++ {
		count += len(sh.Step(slot, rng))
	}
	if count == 0 {
		t.Fatal("single-hop workload injected nothing")
	}
}

// TestPathsAllocsPerTable pins that building the process over many
// paths costs a fixed number of allocations, not one per generator:
// the given generators' choices and the sampler's table are one array
// each.
func TestPathsAllocsPerTable(t *testing.T) {
	const links = 16384
	m := interference.Identity{Links: links}
	paths := make([]netgraph.Path, links)
	for i := range paths {
		paths[i] = netgraph.Path{netgraph.LinkID(i)}
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Paths(m, paths, 0.04); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%v allocs", allocs)
	if allocs > 16 {
		t.Fatalf("Paths over %d paths: %v allocs, want at most 16", links, allocs)
	}
}
