// Package traffic builds the injection workloads the experiments and
// examples share: single-hop per-link load, convergecast to a sink,
// uniform random pairs, and hotspot patterns. Each builder returns
// stochastic generators wired to an exact target rate in the model's
// interference-measure units.
package traffic

import (
	"fmt"
	"math/rand"

	"dynsched/internal/inject"
	"dynsched/internal/interference"
	"dynsched/internal/netgraph"
)

// SingleHop creates one generator per link, injecting on the link's
// single-hop path, scaled to the given total rate.
func SingleHop(m interference.Model, lambda float64) (*inject.Stochastic, error) {
	gens := make([]inject.Generator, m.NumLinks())
	for e := range gens {
		gens[e] = inject.Generator{Choices: []inject.PathChoice{
			{Path: netgraph.Path{netgraph.LinkID(e)}, P: 0.5},
		}}
	}
	return inject.StochasticAtRate(m, gens, lambda)
}

// Paths spreads the rate across the given explicit paths, splitting each
// path's probability over enough generators that super-critical rates
// remain expressible. One array backs every generator's single choice.
func Paths(m interference.Model, paths []netgraph.Path, lambda float64) (*inject.Stochastic, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("traffic: no paths")
	}
	perPath := int(lambda) + 2
	gens := make([]inject.Generator, len(paths)*perPath)
	choices := make([]inject.PathChoice, len(gens))
	for i := range gens {
		choices[i] = inject.PathChoice{Path: paths[i/perPath], P: 1.0 / float64(perPath+1)}
		gens[i].Choices = choices[i : i+1 : i+1]
	}
	return inject.StochasticAtRate(m, gens, lambda)
}

// Convergecast routes every node to the sink along shortest paths — the
// sensor-network workload. It returns the process and the longest route
// (the D the protocol needs).
func Convergecast(m interference.Model, g *netgraph.Graph, sink netgraph.NodeID, lambda float64) (*inject.Stochastic, int, error) {
	rt := netgraph.NewRoutingTable(g)
	var paths []netgraph.Path
	maxHops := 0
	for v := netgraph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if v == sink {
			continue
		}
		p, ok := rt.Path(v, sink)
		if !ok {
			return nil, 0, fmt.Errorf("traffic: node %d cannot reach sink %d", v, sink)
		}
		paths = append(paths, p)
		if len(p) > maxHops {
			maxHops = len(p)
		}
	}
	proc, err := Paths(m, paths, lambda)
	if err != nil {
		return nil, 0, err
	}
	return proc, maxHops, nil
}

// RandomPairs draws k random source–destination pairs (connected ones)
// and routes them along shortest paths. It returns the process and the
// longest route.
func RandomPairs(rng *rand.Rand, m interference.Model, g *netgraph.Graph, k int, lambda float64) (*inject.Stochastic, int, error) {
	rt := netgraph.NewRoutingTable(g)
	var paths []netgraph.Path
	maxHops := 0
	attempts := 0
	for len(paths) < k {
		attempts++
		if attempts > 100*k {
			return nil, 0, fmt.Errorf("traffic: could not find %d connected pairs", k)
		}
		u := netgraph.NodeID(rng.Intn(g.NumNodes()))
		v := netgraph.NodeID(rng.Intn(g.NumNodes()))
		if u == v {
			continue
		}
		p, ok := rt.Path(u, v)
		if !ok || len(p) == 0 {
			continue
		}
		paths = append(paths, p)
		if len(p) > maxHops {
			maxHops = len(p)
		}
	}
	proc, err := Paths(m, paths, lambda)
	if err != nil {
		return nil, 0, err
	}
	return proc, maxHops, nil
}

// Hotspot sends the given fraction of the rate through paths ending at
// one hot node, and spreads the rest across random pairs. It models the
// skewed traffic matrices real deployments see.
func Hotspot(rng *rand.Rand, m interference.Model, g *netgraph.Graph, hot netgraph.NodeID, hotFrac float64, k int, lambda float64) (*inject.Stochastic, int, error) {
	if hotFrac < 0 || hotFrac > 1 {
		return nil, 0, fmt.Errorf("traffic: hot fraction %v outside [0,1]", hotFrac)
	}
	rt := netgraph.NewRoutingTable(g)
	var hotPaths, coldPaths []netgraph.Path
	maxHops := 0
	add := func(list *[]netgraph.Path, p netgraph.Path) {
		*list = append(*list, p)
		if len(p) > maxHops {
			maxHops = len(p)
		}
	}
	for v := netgraph.NodeID(0); int(v) < g.NumNodes() && len(hotPaths) < k; v++ {
		if v == hot {
			continue
		}
		if p, ok := rt.Path(v, hot); ok && len(p) > 0 {
			add(&hotPaths, p)
		}
	}
	attempts := 0
	for len(coldPaths) < k {
		attempts++
		if attempts > 100*k {
			break
		}
		u := netgraph.NodeID(rng.Intn(g.NumNodes()))
		v := netgraph.NodeID(rng.Intn(g.NumNodes()))
		if u == v {
			continue
		}
		if p, ok := rt.Path(u, v); ok && len(p) > 0 {
			add(&coldPaths, p)
		}
	}
	if len(hotPaths) == 0 {
		return nil, 0, fmt.Errorf("traffic: no routes into hot node %d", hot)
	}
	// Build the mixture: one generator per path, weighted by the split,
	// then scale the whole mixture to the target rate.
	var gens []inject.Generator
	for _, p := range hotPaths {
		gens = append(gens, inject.Generator{Choices: []inject.PathChoice{
			{Path: p, P: 0.5 * hotFrac / float64(len(hotPaths))},
		}})
	}
	for _, p := range coldPaths {
		gens = append(gens, inject.Generator{Choices: []inject.PathChoice{
			{Path: p, P: 0.5 * (1 - hotFrac) / float64(len(coldPaths))},
		}})
	}
	proc, err := inject.StochasticAtRate(m, gens, lambda)
	if err != nil {
		return nil, 0, err
	}
	return proc, maxHops, nil
}
