// Package cli holds the workload-construction logic behind cmd/dynsched
// so it can be tested: flag values come in as an Options struct, and a
// fully wired simulation (model, injection process, protocol) comes out.
package cli

import (
	"fmt"
	"math/rand"

	"dynsched/internal/core"
	"dynsched/internal/inject"
	"dynsched/internal/interference"
	"dynsched/internal/mac"
	"dynsched/internal/netgraph"
	"dynsched/internal/sinr"
	"dynsched/internal/static"
	"dynsched/internal/traffic"
)

// Options mirror cmd/dynsched's flags; they compile into a Workload
// via Build. (Persisted run configurations are dynsched.Scenario JSON
// documents, parsed one level up by dynsched.ParseScenario.)
type Options struct {
	Model    string  `json:"model"`    // identity, mac, sinr-linear, sinr-uniform, sinr-power-control
	Topology string  `json:"topology"` // line, grid, grid-convergecast, pairs, nested, mac, auto
	Alg      string  `json:"alg"`      // full-parallel, decay, spread, densify, trivial, mac-decay, rrw, backoff, greedy-pc, auto
	Nodes    int     `json:"nodes"`    // node count for line/grid
	Links    int     `json:"links"`    // link count for pairs/nested/mac
	Hops     int     `json:"hops"`     // path length for multi-hop workloads
	Lambda   float64 `json:"lambda"`   // injection rate, measure units per slot
	Eps      float64 `json:"eps"`      // protocol headroom
	Seed     int64   `json:"seed"`
	Adv      string  `json:"adversary"` // "", burst, spread, sawtooth, rotating
	Window   int     `json:"window"`
	LossP    float64 `json:"loss"`
	// Trace, when non-empty, replays the recorded injection sequence
	// instead of a stochastic or adversarial process (traffic pattern
	// "trace" at the scenario layer).
	Trace []inject.TraceRecord `json:"trace,omitempty"`
	// Frame overrides the protocol's frame length T (0 solves for it).
	Frame int `json:"frame"`
	// DisableDelays turns off the adversarial random initial delays
	// (Section 5 ablation).
	DisableDelays bool `json:"disableDelays"`

	// Generator configures the "generator" topology: a seeded procedural
	// sender placement (uniform, cluster, grid). Gen.Links falls back to
	// Links and Gen.Seed to Seed when zero.
	Gen Generator `json:"generator"`

	// SINR model storage knobs (ignored by non-SINR models). Backing is
	// "", auto, dense, csr, or indexed; DenseMaxLinks moves the
	// dense-vs-CSR auto threshold (0 = built-in default); FarFloor and
	// CellSize tune the indexed backing's far-field contribution floor ε
	// and spatial cell size.
	Backing       string  `json:"backing"`
	DenseMaxLinks int     `json:"denseMaxLinks"`
	FarFloor      float64 `json:"farFloor"`
	CellSize      float64 `json:"cellSize"`

	// ResolveParallelism sets the worker count baked into SINR models:
	// their construction and their intra-slot resolvers (0 = GOMAXPROCS,
	// 1 = serial). A pure execution knob: results are bit-identical at
	// every value.
	ResolveParallelism int `json:"resolveParallelism,omitempty"`
}

// ModelDiag records which interference-table backing a built workload
// resolved to — surfaced as run diagnostics by the scenario layer.
type ModelDiag struct {
	Backing       string  `json:"backing"`
	DenseMaxLinks int     `json:"denseMaxLinks"`
	FarFloor      float64 `json:"farFloor,omitempty"`
	CellSize      float64 `json:"cellSize,omitempty"`
}

// Workload is the assembled simulation input.
type Workload struct {
	Graph    *netgraph.Graph
	Model    interference.Model
	Paths    []netgraph.Path
	M        int
	Protocol *core.Protocol
	Process  inject.Process
	// Diag is the SINR table-backing record (nil for non-SINR models).
	Diag *ModelDiag
}

// NetworkOptions is the whole input of the network layer — graph,
// routes and interference model — with its defaults resolved. It is
// comparable and BuildNetwork reads nothing else, so two equal values
// always build identical networks: it is the model-cache key, and a key
// cannot miss an input. Options.Network derives it.
type NetworkOptions struct {
	Model string
	// Topology is resolved: never "" or "auto".
	Topology string
	Nodes    int
	Links    int
	Hops     int
	// Gen is the generator topology's spec with its link count and
	// defaults resolved, its seed included (zero for other topologies).
	Gen Generator
	// The SINR storage knobs and construction parallelism (see Options).
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

// Network derives the network layer's options from the workload's.
func (o Options) Network() NetworkOptions {
	n := NetworkOptions{
		Model:              o.Model,
		Topology:           o.Topology,
		Nodes:              o.Nodes,
		Links:              o.Links,
		Hops:               o.Hops,
		Backing:            o.Backing,
		DenseMaxLinks:      o.DenseMaxLinks,
		FarFloor:           o.FarFloor,
		CellSize:           o.CellSize,
		ResolveParallelism: o.ResolveParallelism,
	}
	if n.Topology == "" || n.Topology == "auto" {
		switch o.Model {
		case "identity":
			n.Topology = "line"
		case "mac":
			n.Topology = "mac"
		default:
			n.Topology = "pairs"
		}
	}
	switch n.Topology {
	case "pairs":
		n.Seed = o.Seed
	case "generator":
		gen := o.Gen
		if gen.Links == 0 {
			gen.Links = o.Links
		}
		n.Gen = gen.withDefaults(o.Seed)
	}
	return n
}

// Network is a workload's network layer: everything that depends only
// on NetworkOptions. Its model is immutable or keeps its lazy state
// behind sync.Once and sync.Pool, so one Network may serve any number
// of runs, concurrent ones included; Assemble adds the per-run parts.
type Network struct {
	Graph *netgraph.Graph
	Model interference.Model
	// Diag is the SINR table-backing record (nil for non-SINR models).
	Diag  *ModelDiag
	Paths []netgraph.Path
	// M is the instance's path-count bound and Hops its path-length
	// bound D.
	M    int
	Hops int
}

// Build assembles the workload from the options: BuildNetwork, then
// Assemble.
func Build(o Options) (*Workload, error) {
	net, err := BuildNetwork(o.Network())
	if err != nil {
		return nil, err
	}
	return Assemble(o, net)
}

// Assemble wires one run onto a built network: the loss wrapper, the
// injection process and the protocol. It reads the network and never
// changes it.
func Assemble(o Options, net *Network) (*Workload, error) {
	model := net.Model
	if o.LossP > 0 {
		// NewLossy wires a draw-counted RNG so lossy runs can be
		// checkpointed; the stream is identical to the previous
		// rand.New(rand.NewSource(o.Seed+99)) wiring.
		model = interference.NewLossy(model, o.LossP, o.Seed+99)
	}
	alg, err := PickAlgorithm(o.Alg, o.Model)
	if err != nil {
		return nil, err
	}

	var proc inject.Process
	window := 0
	if len(o.Trace) > 0 {
		if o.Adv != "" {
			return nil, fmt.Errorf("cli: trace replay and adversary %q are mutually exclusive", o.Adv)
		}
		for i, rec := range o.Trace {
			for _, e := range rec.Path {
				if e < 0 || int(e) >= model.NumLinks() {
					return nil, fmt.Errorf("cli: trace record %d path link %d out of range [0,%d)", i, e, model.NumLinks())
				}
			}
		}
		tr, err := inject.TraceFromRecords("replay", o.Lambda, 0, o.Trace)
		if err != nil {
			return nil, err
		}
		proc = tr
	} else if o.Adv != "" {
		timing, rotate, err := ParseAdversary(o.Adv)
		if err != nil {
			return nil, err
		}
		var adv inject.Adversary
		if rotate {
			adv, err = inject.NewRotating(model, net.Paths, o.Window, o.Lambda, timing)
		} else {
			adv, err = inject.NewPattern(model, net.Paths, o.Window, o.Lambda, timing)
		}
		if err != nil {
			return nil, err
		}
		proc, window = adv, o.Window
	} else {
		stoch, err := MultiPathStochastic(model, net.Paths, o.Lambda)
		if err != nil {
			return nil, err
		}
		proc = stoch
	}

	proto, err := core.New(core.Config{
		Model: model, Alg: alg, M: net.M, T: o.Frame,
		Lambda: o.Lambda, Eps: o.Eps,
		Window: window, D: net.Hops, Seed: o.Seed,
		DisableDelays: o.DisableDelays,
	})
	if err != nil {
		return nil, err
	}
	return &Workload{Graph: net.Graph, Model: model, Paths: net.Paths, M: net.M, Protocol: proto, Process: proc, Diag: net.Diag}, nil
}

// modelOptions resolves the SINR storage knobs into a sinr.Options.
func modelOptions(o NetworkOptions) (sinr.Options, error) {
	backing, err := sinr.ParseBacking(o.Backing)
	if err != nil {
		return sinr.Options{}, err
	}
	return sinr.Options{
		Backing:       backing,
		DenseMaxLinks: o.DenseMaxLinks,
		FarFloor:      o.FarFloor,
		CellSize:      o.CellSize,
		Parallelism:   o.ResolveParallelism,
	}, nil
}

// BuildNetwork builds the network layer: graph, routes and model.
func BuildNetwork(o NetworkOptions) (*Network, error) {
	var g *netgraph.Graph
	var paths []netgraph.Path
	effHops := o.Hops
	switch o.Topology {
	case "line":
		g = netgraph.LineNetwork(o.Nodes, 1)
		hops := o.Hops
		if hops >= o.Nodes {
			hops = o.Nodes - 1
		}
		if hops < 1 {
			hops = 1
		}
		p, ok := netgraph.ShortestPath(g, 0, netgraph.NodeID(hops))
		if !ok {
			return nil, fmt.Errorf("no %d-hop path on line", hops)
		}
		paths = []netgraph.Path{p}
	case "grid":
		side := intSqrt(o.Nodes)
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
		side := intSqrt(o.Nodes)
		g = netgraph.GridNetwork(side, side, 1)
		rt := netgraph.NewRoutingTable(g)
		effHops = 0
		for v := netgraph.NodeID(1); int(v) < g.NumNodes(); v++ {
			p, ok := rt.Path(v, 0)
			if !ok {
				return nil, fmt.Errorf("grid node %d cannot reach the sink", v)
			}
			paths = append(paths, p)
			if len(p) > effHops {
				effHops = len(p)
			}
		}
	case "pairs":
		rng := rand.New(rand.NewSource(o.Seed))
		g = netgraph.RandomPairs(rng, o.Links, 10*float64(intSqrt(o.Links))+10, 1, 4)
		for e := 0; e < g.NumLinks(); e++ {
			paths = append(paths, netgraph.Path{netgraph.LinkID(e)})
		}
	case "nested":
		g = netgraph.NestedChain(o.Links, 2)
		for e := 0; e < g.NumLinks(); e++ {
			paths = append(paths, netgraph.Path{netgraph.LinkID(e)})
		}
	case "mac":
		g = netgraph.MACChannel(o.Links)
		for e := 0; e < g.NumLinks(); e++ {
			paths = append(paths, netgraph.Path{netgraph.LinkID(e)})
		}
	case "generator":
		var err error
		g, err = o.Gen.Build(0) // Gen is resolved, its seed included
		if err != nil {
			return nil, err
		}
		for e := 0; e < g.NumLinks(); e++ {
			paths = append(paths, netgraph.Path{netgraph.LinkID(e)})
		}
	default:
		return nil, fmt.Errorf("unknown topology %q", o.Topology)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("topology %q produced no paths", o.Topology)
	}

	inst := netgraph.NewInstance(g, effHops)
	var model interference.Model
	var diag *ModelDiag
	switch o.Model {
	case "identity":
		model = interference.Identity{Links: g.NumLinks()}
	case "mac":
		model = interference.AllOnes{Links: g.NumLinks()}
	case "sinr-linear", "sinr-uniform":
		opt, err := modelOptions(o)
		if err != nil {
			return nil, err
		}
		prm := sinr.DefaultParams()
		kind, wk := sinr.PowerLinear, sinr.WeightAffectance
		if o.Model == "sinr-uniform" {
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
		diag = tableDiag(fp.Table())
	case "sinr-power-control":
		opt, err := modelOptions(o)
		if err != nil {
			return nil, err
		}
		pc, err := sinr.NewPowerControlOpts(g, sinr.DefaultParams(), opt)
		if err != nil {
			return nil, err
		}
		model = pc
		diag = tableDiag(pc.Table())
	default:
		return nil, fmt.Errorf("unknown model %q", o.Model)
	}
	return &Network{Graph: g, Model: model, Diag: diag, Paths: paths, M: inst.M(), Hops: effHops}, nil
}

// tableDiag converts a model's TableInfo into the diagnostics record.
func tableDiag(ti sinr.TableInfo) *ModelDiag {
	return &ModelDiag{
		Backing:       ti.Backing,
		DenseMaxLinks: ti.DenseMaxLinks,
		FarFloor:      ti.FarFloor,
		CellSize:      ti.CellSize,
	}
}

// PickAlgorithm resolves an algorithm name; "auto" chooses per model.
func PickAlgorithm(name, model string) (static.Algorithm, error) {
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

// ParseAdversary resolves an adversary spec into a timing and rotation
// flag.
func ParseAdversary(s string) (inject.Timing, bool, error) {
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

// MultiPathStochastic builds a stochastic process over the given paths
// at exactly rate lambda. It is the traffic package's Paths workload,
// re-exported under the CLI's historical name.
func MultiPathStochastic(m interference.Model, paths []netgraph.Path, lambda float64) (*inject.Stochastic, error) {
	return traffic.Paths(m, paths, lambda)
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
