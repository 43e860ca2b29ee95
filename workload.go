package dynsched

// The workload builder: Scenario compiles itself in two layers. The
// network layer (graph, routes, interference model) depends only on the
// scenario's networkKey, so ModelCache can build it once and share it;
// assemble adds the per-run parts (loss wrapper, injection process,
// protocol, observers) on top of a built network.

import (
	"fmt"
	"math"
	"math/rand"

	"dynsched/internal/core"
	"dynsched/internal/geom"
	"dynsched/internal/inject"
	"dynsched/internal/interference"
	"dynsched/internal/mac"
	"dynsched/internal/netgraph"
	"dynsched/internal/sinr"
	"dynsched/internal/static"
	"dynsched/internal/traffic"
)

// networkKey is the whole input of the network layer — graph, routes
// and interference model — with its defaults resolved. It is comparable
// and buildNetwork reads nothing else, so two equal values always build
// identical networks: it is the model-cache key, and a key cannot miss
// an input. Scenario.networkKey derives it.
type networkKey struct {
	Model string
	// Topology is resolved: never "" or "auto".
	Topology string
	Nodes    int
	Links    int
	Hops     int
	// Gen is the generator topology's spec with its defaults resolved
	// against Links, its seed included (zero for other topologies).
	Gen GeneratorSpec
	// The SINR storage knobs (ModelSpec) and construction parallelism
	// (SimSpec.ResolveParallelism).
	Backing            string
	DenseMaxLinks      int
	FarFloor           float64
	CellSize           float64
	ResolveParallelism int
	// Seed places the pairs topology. It is zero for every other
	// topology, which draws nothing from the workload seed (a
	// generator's placement seed is Gen.Seed).
	Seed int64
}

// networkKey derives the network layer's input from the scenario.
func (s Scenario) networkKey() networkKey {
	k := networkKey{
		Model:              s.Model.Kind,
		Topology:           s.Network.Topology,
		Nodes:              s.Network.Nodes,
		Links:              s.Network.Links,
		Hops:               s.Network.Hops,
		Backing:            s.Model.Backing,
		DenseMaxLinks:      s.Model.DenseMax,
		FarFloor:           s.Model.FarFloor,
		CellSize:           s.Model.Cell,
		ResolveParallelism: s.Sim.ResolveParallelism,
	}
	if k.Topology == "" || k.Topology == "auto" {
		switch k.Model {
		case "identity":
			k.Topology = "line"
		case "mac":
			k.Topology = "mac"
		default:
			k.Topology = "pairs"
		}
	}
	switch k.Topology {
	case "pairs":
		k.Seed = s.Sim.Seed
	case "generator":
		// Validate guarantees the generator spec.
		k.Gen = s.Network.Generator.withDefaults(k.Links, s.Sim.Seed)
	}
	return k
}

// network is a scenario's network layer: everything that depends only
// on its networkKey. Its model is immutable or keeps its lazy state
// behind sync.Once and sync.Pool, so one network may serve any number
// of runs, concurrent ones included; assemble adds the per-run parts.
type network struct {
	graph *netgraph.Graph
	model interference.Model
	// diag is the SINR table-backing record (nil for non-SINR models).
	diag  *ModelDiagnostics
	paths []netgraph.Path
	// m is the instance's path-count bound and hops its path-length
	// bound D.
	m    int
	hops int
}

// buildNetwork builds the network layer: graph, routes and model.
func buildNetwork(k networkKey) (*network, error) {
	var g *netgraph.Graph
	var paths []netgraph.Path
	effHops := k.Hops
	switch k.Topology {
	case "line":
		g = netgraph.LineNetwork(k.Nodes, 1)
		hops := min(k.Hops, k.Nodes-1)
		if hops < 1 {
			hops = 1
		}
		p, ok := netgraph.ShortestPath(g, 0, netgraph.NodeID(hops))
		if !ok {
			return nil, fmt.Errorf("no %d-hop path on line", hops)
		}
		paths = []netgraph.Path{p}
	case "grid":
		side := intSqrt(k.Nodes)
		g = netgraph.GridNetwork(side, side, 1)
		rt := netgraph.NewRoutingTable(g)
		n := netgraph.NodeID(side*side - 1)
		for _, pair := range [][2]netgraph.NodeID{{0, n}, {n, 0}} {
			if p, ok := rt.Path(pair[0], pair[1]); ok {
				paths = append(paths, p)
			}
		}
	case "grid-convergecast":
		// The sensor-network workload: every grid node routes to the
		// sink at node 0; the path bound is the longest route.
		side := intSqrt(k.Nodes)
		g = netgraph.GridNetwork(side, side, 1)
		rt := netgraph.NewRoutingTable(g)
		effHops = 0
		for v := netgraph.NodeID(1); int(v) < g.NumNodes(); v++ {
			p, ok := rt.Path(v, 0)
			if !ok {
				return nil, fmt.Errorf("grid node %d cannot reach the sink", v)
			}
			paths = append(paths, p)
			effHops = max(effHops, len(p))
		}
	case "pairs":
		rng := rand.New(rand.NewSource(k.Seed))
		g = netgraph.RandomPairs(rng, k.Links, 10*float64(intSqrt(k.Links))+10, 1, 4)
		paths = linkPaths(g)
	case "nested":
		g = netgraph.NestedChain(k.Links, 2)
		paths = linkPaths(g)
	case "mac":
		g = netgraph.MACChannel(k.Links)
		paths = linkPaths(g)
	case "generator":
		g = k.Gen.build(k.Links)
		paths = linkPaths(g)
	default:
		return nil, fmt.Errorf("unknown topology %q", k.Topology)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("topology %q produced no paths", k.Topology)
	}

	inst := netgraph.NewInstance(g, effHops)
	var model interference.Model
	var diag *ModelDiagnostics
	switch k.Model {
	case "identity":
		model = interference.Identity{Links: g.NumLinks()}
	case "mac":
		model = interference.AllOnes{Links: g.NumLinks()}
	case "sinr-linear", "sinr-uniform":
		opt, err := k.sinrOptions()
		if err != nil {
			return nil, err
		}
		prm := sinr.DefaultParams()
		kind, wk := sinr.PowerLinear, sinr.WeightAffectance
		if k.Model == "sinr-uniform" {
			kind, wk = sinr.PowerUniform, sinr.WeightMonotone
		}
		powers, err := sinr.Powers(g, prm, kind, 1)
		if err != nil {
			return nil, err
		}
		prm.Noise = sinr.MaxNoise(g, prm, powers, 0.5)
		fp, err := sinr.NewFixedPowerOpts(g, prm, powers, wk, opt)
		if err != nil {
			return nil, err
		}
		model = fp
		ti := fp.Table()
		diag = &ti
	case "sinr-power-control":
		opt, err := k.sinrOptions()
		if err != nil {
			return nil, err
		}
		pc, err := sinr.NewPowerControlOpts(g, sinr.DefaultParams(), opt)
		if err != nil {
			return nil, err
		}
		model = pc
		ti := pc.Table()
		diag = &ti
	default:
		return nil, fmt.Errorf("unknown model %q", k.Model)
	}
	return &network{graph: g, model: model, diag: diag, paths: paths, m: inst.M(), hops: effHops}, nil
}

// linkPaths routes one single-hop path over each link of g, all of
// them views into one shared array.
func linkPaths(g *netgraph.Graph) []netgraph.Path {
	links := make([]netgraph.LinkID, g.NumLinks())
	paths := make([]netgraph.Path, len(links))
	for e := range links {
		links[e] = netgraph.LinkID(e)
		paths[e] = links[e : e+1 : e+1]
	}
	return paths
}

// sinrOptions resolves the SINR storage knobs into a sinr.Options.
func (k networkKey) sinrOptions() (sinr.Options, error) {
	backing, err := sinr.ParseBacking(k.Backing)
	if err != nil {
		return sinr.Options{}, err
	}
	return sinr.Options{
		Backing:       backing,
		DenseMaxLinks: k.DenseMaxLinks,
		FarFloor:      k.FarFloor,
		CellSize:      k.CellSize,
		Parallelism:   k.ResolveParallelism,
	}, nil
}

// assemble wires one run onto a built network: the loss wrapper, the
// injection process, the protocol and fresh observers from the
// scenario's factories. It reads the network and never changes it.
func (s Scenario) assemble(net *network) (*CompiledScenario, error) {
	model := net.model
	if s.Model.Loss > 0 {
		// NewLossy wires a draw-counted RNG so lossy runs can be
		// checkpointed; the stream is identical to a plain
		// rand.New(rand.NewSource(seed+99)) wiring.
		model = interference.NewLossy(model, s.Model.Loss, s.Sim.Seed+99)
	}
	alg, err := pickAlgorithm(s.Protocol.Alg, s.Model.Kind)
	if err != nil {
		return nil, err
	}

	var proc inject.Process
	window := 0
	switch s.Traffic.Pattern {
	case "", "stochastic":
		proc, err = traffic.Paths(model, net.paths, s.Traffic.Lambda)
	case "trace":
		for i, rec := range s.Traffic.Trace {
			for _, e := range rec.Path {
				if e < 0 || int(e) >= model.NumLinks() {
					return nil, fmt.Errorf("trace record %d path link %d out of range [0,%d)", i, e, model.NumLinks())
				}
			}
		}
		proc, err = inject.TraceFromRecords("replay", s.Traffic.Lambda, 0, s.Traffic.Trace)
	default:
		timing, rotate, perr := parseAdversary(s.Traffic.Pattern)
		if perr != nil {
			return nil, perr
		}
		if rotate {
			proc, err = inject.NewRotating(model, net.paths, s.Traffic.Window, s.Traffic.Lambda, timing)
		} else {
			proc, err = inject.NewPattern(model, net.paths, s.Traffic.Window, s.Traffic.Lambda, timing)
		}
		window = s.Traffic.Window
	}
	if err != nil {
		return nil, err
	}

	proto, err := core.New(core.Config{
		Model: model, Alg: alg, M: net.m, T: s.Protocol.Frame,
		Lambda: s.Traffic.Lambda, Eps: s.Protocol.Eps,
		Window: window, D: net.hops, Seed: s.Sim.Seed,
		DisableDelays: s.Protocol.DisableDelays,
	})
	if err != nil {
		return nil, err
	}
	obs := make([]SimObserver, 0, len(s.Observers))
	for _, f := range s.Observers {
		obs = append(obs, f())
	}
	var diag *ModelDiagnostics
	if net.diag != nil {
		d := *net.diag // each compilation owns its record
		diag = &d
	}
	return &CompiledScenario{
		Scenario:    s,
		Graph:       net.graph,
		Model:       model,
		Process:     proc,
		Protocol:    proto,
		Config:      s.simConfig(),
		Observers:   obs,
		Diagnostics: diag,
	}, nil
}

// pickAlgorithm resolves an algorithm name; "auto" chooses per model.
func pickAlgorithm(name, model string) (static.Algorithm, error) {
	if name == "" || name == "auto" {
		switch model {
		case "identity":
			name = "full-parallel"
		case "mac":
			name = "rrw"
		case "sinr-power-control":
			name = "greedy-pc"
		default:
			name = "spread"
		}
	}
	switch name {
	case "full-parallel":
		return static.FullParallel{}, nil
	case "decay":
		return static.Decay{}, nil
	case "decay-adaptive":
		return static.Decay{Adaptive: true}, nil
	case "spread":
		return static.Spread{}, nil
	case "densify":
		return static.Densify{Inner: static.Decay{}, Chi: 6}, nil
	case "trivial":
		return static.Trivial{}, nil
	case "mac-decay":
		return mac.Decay{}, nil
	case "rrw":
		return mac.RoundRobinWithholding{}, nil
	case "backoff":
		return mac.Backoff{}, nil
	case "greedy-pc":
		return static.GreedyPowerControl{}, nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q", name)
	}
}

// parseAdversary resolves an adversarial traffic pattern into a timing
// and rotation flag.
func parseAdversary(s string) (inject.Timing, bool, error) {
	switch s {
	case "burst":
		return inject.TimingBurst, false, nil
	case "spread":
		return inject.TimingSpread, false, nil
	case "sawtooth":
		return inject.TimingSawtooth, false, nil
	case "rotating":
		return inject.TimingBurst, true, nil
	default:
		return 0, false, fmt.Errorf("unknown adversary timing %q", s)
	}
}

// withDefaults resolves the generator's zero knobs for a network of
// the given link count, falling back to the workload seed.
func (gs GeneratorSpec) withDefaults(links int, seed int64) GeneratorSpec {
	if gs.Side == 0 {
		gs.Side = 10*math.Sqrt(float64(links)) + 10
	}
	if gs.Clusters == 0 {
		gs.Clusters = max(1, links/256)
	}
	if gs.Spread == 0 {
		gs.Spread = gs.Side / 16
	}
	if gs.MinLen == 0 && gs.MaxLen == 0 {
		gs.MinLen, gs.MaxLen = 1, 4
	}
	if gs.Seed == 0 {
		gs.Seed = seed
	}
	return gs
}

// validate rejects malformed generator specs for a network of the
// given link count.
func (gs GeneratorSpec) validate(links int) error {
	switch gs.Kind {
	case "uniform", "cluster", "grid":
	default:
		return fmt.Errorf("unknown generator kind %q (want uniform, cluster, or grid)", gs.Kind)
	}
	if links <= 0 {
		return fmt.Errorf("generator needs a positive link count, got %d", links)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{{"side", gs.Side}, {"spread", gs.Spread}, {"minLen", gs.MinLen}, {"maxLen", gs.MaxLen}} {
		if math.IsNaN(p.v) || math.IsInf(p.v, 0) || p.v < 0 {
			return fmt.Errorf("generator %s is %v (must be finite and non-negative)", p.name, p.v)
		}
	}
	if gs.Clusters < 0 {
		return fmt.Errorf("generator clusters is %d (must be non-negative)", gs.Clusters)
	}
	if gs.MinLen > 0 && gs.MaxLen > 0 && gs.MinLen > gs.MaxLen {
		return fmt.Errorf("generator minLen %v exceeds maxLen %v", gs.MinLen, gs.MaxLen)
	}
	return nil
}

// build materialises a validated generator spec, its defaults resolved
// (withDefaults), into a position-backed pairs graph of the given link
// count. Every random draw comes from one source seeded by gs.Seed in a
// fixed order, so equal inputs always produce the identical graph.
func (gs GeneratorSpec) build(links int) *netgraph.Graph {
	rng := rand.New(rand.NewSource(gs.Seed))
	var senders []geom.Point
	switch gs.Kind {
	case "uniform":
		senders = geom.Uniform(rng, links, gs.Side)
	case "cluster":
		centres := geom.Uniform(rng, gs.Clusters, gs.Side)
		senders = make([]geom.Point, links)
		for i := range senders {
			c := centres[rng.Intn(len(centres))]
			senders[i] = geom.Point{
				X: c.X + rng.NormFloat64()*gs.Spread,
				Y: c.Y + rng.NormFloat64()*gs.Spread,
			}
		}
	case "grid":
		// Row-major cell centres of the smallest square grid holding
		// the senders; the trailing cells of the last row stay empty.
		k := int(math.Ceil(math.Sqrt(float64(links))))
		spacing := gs.Side / float64(k)
		senders = make([]geom.Point, links)
		for i := range senders {
			senders[i] = geom.Point{
				X: (float64(i%k) + 0.5) * spacing,
				Y: (float64(i/k) + 0.5) * spacing,
			}
		}
	}
	return netgraph.PairsAt(rng, senders, gs.MinLen, gs.MaxLen)
}

func intSqrt(n int) int {
	if n < 1 {
		return 1
	}
	r := 1
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}
