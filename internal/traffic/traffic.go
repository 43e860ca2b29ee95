// Package traffic builds the injection workloads the experiments and
// examples share: single-hop per-link load, explicit paths and
// convergecast to a sink. Each builder returns stochastic generators
// wired to an exact target rate in the model's interference-measure
// units.
package traffic

import (
	"fmt"

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
