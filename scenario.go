package dynsched

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"

	"dynsched/internal/inject"
	"dynsched/internal/sim"
	"dynsched/internal/sinr"
)

// ---- Scenario specs ----
//
// A Scenario is a declarative description of one experiment: which
// network to build, which interference model to schedule against, how
// traffic arrives, which protocol serves it, and how to simulate. The
// whole composition is data — a struct literal or a JSON document —
// so new workloads are declared, not re-plumbed from the ~40 free
// functions of the façade. Compile validates the spec and wires the
// runnable components; Run/Replicate/RunSweep execute it.

// GeneratorSpec declares a seeded procedural sender→receiver network
// for the "generator" topology: a spatial placement process for the
// senders plus the link geometry. Every knob except Kind is optional —
// zero values resolve to documented defaults at build time but stay
// out of the canonical JSON, so a spec's hash depends only on what it
// pins explicitly.
type GeneratorSpec struct {
	// Kind is the sender placement: uniform, cluster, or grid.
	Kind string `json:"kind"`
	// Side is the placement square's side (0 = 10·√Links + 10).
	Side float64 `json:"side,omitempty"`
	// Clusters is the number of cluster centres (cluster kind;
	// 0 = max(1, Links/256)).
	Clusters int `json:"clusters,omitempty"`
	// Spread is the Gaussian sender spread around its centre (cluster
	// kind; 0 = Side/16).
	Spread float64 `json:"spread,omitempty"`
	// MinLen and MaxLen bound the link length (0, 0 = 1, 4).
	MinLen float64 `json:"minLen,omitempty"`
	MaxLen float64 `json:"maxLen,omitempty"`
	// Seed drives the placement; 0 falls back to Sim.Seed.
	Seed int64 `json:"seed,omitempty"`
}

// NetworkSpec selects the communication graph and routes.
type NetworkSpec struct {
	// Topology is one of line, grid, grid-convergecast, pairs, nested,
	// mac, generator, or auto (pick per model).
	Topology string `json:"topology,omitempty"`
	// Nodes sizes node-centric topologies (line, grid).
	Nodes int `json:"nodes,omitempty"`
	// Links sizes link-centric topologies (pairs, nested, mac,
	// generator).
	Links int `json:"links,omitempty"`
	// Hops is the path length for multi-hop workloads.
	Hops int `json:"hops,omitempty"`
	// Generator parameterises the "generator" topology.
	Generator *GeneratorSpec `json:"generator,omitempty"`
}

// ModelSpec selects the interference model.
type ModelSpec struct {
	// Kind is one of identity, mac, sinr-linear, sinr-uniform,
	// sinr-power-control.
	Kind string `json:"kind"`
	// Loss adds independent per-transmission loss with this probability.
	Loss float64 `json:"loss,omitempty"`
	// Backing selects the SINR interference-table storage: auto (default),
	// dense, csr, or indexed (the spatial grid; requires planar
	// positions).
	Backing string `json:"backing,omitempty"`
	// DenseMax moves the dense-vs-CSR auto threshold (0 = built-in
	// default).
	DenseMax int `json:"denseMax,omitempty"`
	// FarFloor is the indexed backing's far-field contribution floor ε:
	// 0 keeps the backing bit-identical to the flat tables, ε > 0 lets
	// per-slot cost scale with local density inside the documented
	// soundness envelope (reported successes are always true successes).
	FarFloor float64 `json:"farFloor,omitempty"`
	// Cell overrides the spatial index's cell size (0 = automatic).
	Cell float64 `json:"cell,omitempty"`
}

// TraceEvent is one packet of a recorded workload: the slot it is
// injected, its ID, and its route. It is the scenario-level alias of
// the injection layer's trace record, so recorded traffic embeds
// directly in a spec document.
type TraceEvent = inject.TraceRecord

// TrafficSpec selects the injection process.
type TrafficSpec struct {
	// Pattern is "stochastic" (the default), an adversary timing
	// (burst, spread, sawtooth, rotating), or "trace" to replay the
	// recorded packets in Trace.
	Pattern string `json:"pattern,omitempty"`
	// Lambda is the injection rate in interference-measure units/slot.
	Lambda float64 `json:"lambda"`
	// Window is the adversary window length w (adversarial patterns).
	Window int `json:"window,omitempty"`
	// Trace is the recorded workload replayed by the "trace" pattern,
	// one event per packet, slots ascending.
	Trace []TraceEvent `json:"trace,omitempty"`
}

// ProtocolSpec selects and tunes the dynamic protocol.
type ProtocolSpec struct {
	// Alg names the static algorithm to wrap (auto = pick per model).
	Alg string `json:"alg,omitempty"`
	// Eps is the protocol headroom ε.
	Eps float64 `json:"eps,omitempty"`
	// Frame overrides the frame length T (0 = solve for it).
	Frame int `json:"frame,omitempty"`
	// DisableDelays turns off the Section 5 random initial delays
	// (ablation).
	DisableDelays bool `json:"disableDelays,omitempty"`
}

// SimSpec parameterises the simulation itself.
type SimSpec struct {
	Slots       int64   `json:"slots"`
	Seed        int64   `json:"seed"`
	WarmupFrac  float64 `json:"warmupFrac,omitempty"`
	SampleEvery int64   `json:"sampleEvery,omitempty"`
	// Parallel caps the plan worker pool of Replicate, sweeps and grids
	// (0 = GOMAXPROCS); in dynschedd it sizes each job's local lessees,
	// the goroutines that run the job's units in the daemon's process
	// (unless -fleet-local overrides it). It is an execution knob, not
	// part of the experiment: results are bit-identical for every
	// value, and it is excluded from Hash.
	Parallel int `json:"parallel,omitempty"`
	// ResolveParallelism sets the intra-slot interference-resolution
	// worker count (0 = model default, 1 = serial, n = n workers; SINR
	// models reject a negative count), which also sizes SINR model
	// construction. Like Parallel it is an
	// execution knob, not part of the experiment:
	// per-link interference sums keep their exact serial accumulation
	// order at any worker count, so results are bit-identical for every
	// value, and it is excluded from Hash.
	ResolveParallelism int `json:"resolveParallelism,omitempty"`
}

// SweepAxis is one axis of a grid sweep: the swept parameter and its
// values.
type SweepAxis struct {
	// Axis is the swept parameter: lambda, eps, loss, or slots.
	Axis string `json:"axis"`
	// Values are the axis's sweep values. The slots axis takes positive
	// whole numbers.
	Values []float64 `json:"values"`
}

// SweepSpec declares a parameter sweep: either a single Axis with its
// Values (the legacy one-dimensional form) or a multi-axis grid via
// Axes, whose execution plan is the cross product of all axis values.
// The two forms are mutually exclusive; a single-entry Axes list is
// equivalent to the legacy form.
type SweepSpec struct {
	// Axis is the swept parameter: lambda, eps, loss, or slots.
	Axis string `json:"axis,omitempty"`
	// Values are applied to the axis one sweep unit at a time.
	Values []float64 `json:"values,omitempty"`
	// Axes declares a multi-axis grid sweep (cross product, last axis
	// varying fastest). Mutually exclusive with Axis/Values.
	Axes []SweepAxis `json:"axes,omitempty"`
}

// normalized returns the sweep as a uniform axis list: Axes when
// declared, the single legacy axis otherwise, nil for no sweep.
func (sw SweepSpec) normalized() []SweepAxis {
	if len(sw.Axes) > 0 {
		return sw.Axes
	}
	if sw.Axis != "" {
		return []SweepAxis{{Axis: sw.Axis, Values: sw.Values}}
	}
	return nil
}

// applyAxis resolves one sweep coordinate into the spec.
func applyAxis(s *Scenario, axis string, v float64) {
	switch axis {
	case "lambda":
		s.Traffic.Lambda = v
	case "eps":
		s.Protocol.Eps = v
	case "loss":
		s.Model.Loss = v
	case "slots":
		s.Sim.Slots = int64(v)
	}
}

// ObserverFactory builds a fresh SimObserver for one run. Factories —
// not instances — are attached to scenarios so every replication of a
// replicated run gets its own observer state.
type ObserverFactory func() SimObserver

// Scenario is a declarative experiment: network, model, traffic,
// protocol, simulation parameters and optional sweep axes, as one
// JSON-serialisable value. The zero value is not runnable; start from
// NewScenario (which fills the defaults) or a complete literal.
type Scenario struct {
	Name        string       `json:"name"`
	Description string       `json:"description,omitempty"`
	Network     NetworkSpec  `json:"network"`
	Model       ModelSpec    `json:"model"`
	Traffic     TrafficSpec  `json:"traffic"`
	Protocol    ProtocolSpec `json:"protocol"`
	Sim         SimSpec      `json:"sim"`
	Sweep       SweepSpec    `json:"sweep"`
	// Observers are attached to every run compiled from this scenario.
	// They are code, not data, and are skipped by JSON encoding.
	Observers []ObserverFactory `json:"-"`
}

// ScenarioOption mutates a scenario under construction.
type ScenarioOption func(*Scenario)

// NewScenario returns a scenario with the same defaults as the
// cmd/dynsched flags, customised by the given options.
func NewScenario(name string, opts ...ScenarioOption) Scenario {
	s := Scenario{
		Name:     name,
		Network:  NetworkSpec{Topology: "auto", Nodes: 8, Links: 16, Hops: 4},
		Model:    ModelSpec{Kind: "identity"},
		Traffic:  TrafficSpec{Pattern: "stochastic", Lambda: 0.3, Window: 64},
		Protocol: ProtocolSpec{Alg: "auto", Eps: 0.25},
		Sim:      SimSpec{Slots: 50_000, Seed: 1, WarmupFrac: 0.1},
	}
	for _, opt := range opts {
		opt(&s)
	}
	return s
}

// WithDescription sets the scenario's one-line description.
func WithDescription(d string) ScenarioOption { return func(s *Scenario) { s.Description = d } }

// WithTopology selects the network topology.
func WithTopology(t string) ScenarioOption { return func(s *Scenario) { s.Network.Topology = t } }

// WithNodes sets the node count for node-centric topologies.
func WithNodes(n int) ScenarioOption { return func(s *Scenario) { s.Network.Nodes = n } }

// WithLinks sets the link count for link-centric topologies.
func WithLinks(n int) ScenarioOption { return func(s *Scenario) { s.Network.Links = n } }

// WithHops sets the path length for multi-hop workloads.
func WithHops(n int) ScenarioOption { return func(s *Scenario) { s.Network.Hops = n } }

// WithGenerator switches the network to the "generator" topology with
// the given procedural spec; the link count stays Network.Links.
func WithGenerator(gen GeneratorSpec) ScenarioOption {
	return func(s *Scenario) {
		s.Network.Topology = "generator"
		s.Network.Generator = &gen
	}
}

// WithModel selects the interference model kind.
func WithModel(kind string) ScenarioOption { return func(s *Scenario) { s.Model.Kind = kind } }

// WithBacking selects the SINR table storage: auto, dense, csr, or
// indexed. FarFloor > 0 enables the indexed backing's far-field
// contribution floor ε (0 stays bit-identical to the flat tables).
func WithBacking(backing string, farFloor float64) ScenarioOption {
	return func(s *Scenario) { s.Model.Backing, s.Model.FarFloor = backing, farFloor }
}

// WithLoss adds independent per-transmission loss.
func WithLoss(p float64) ScenarioOption { return func(s *Scenario) { s.Model.Loss = p } }

// WithLambda sets the injection rate.
func WithLambda(l float64) ScenarioOption { return func(s *Scenario) { s.Traffic.Lambda = l } }

// WithAdversary switches injection to a (w, λ)-bounded adversary with
// the given timing pattern (burst, spread, sawtooth, rotating).
func WithAdversary(pattern string, window int) ScenarioOption {
	return func(s *Scenario) { s.Traffic.Pattern, s.Traffic.Window = pattern, window }
}

// WithTrace switches injection to byte-identical replay of the given
// recorded workload (see RecordInjections, InjectionTrace.Records and
// ParseTrace).
func WithTrace(events []TraceEvent) ScenarioOption {
	return func(s *Scenario) {
		s.Traffic.Pattern = "trace"
		s.Traffic.Trace = events
	}
}

// WithAlgorithm names the static algorithm the protocol wraps.
func WithAlgorithm(alg string) ScenarioOption { return func(s *Scenario) { s.Protocol.Alg = alg } }

// WithEps sets the protocol headroom ε.
func WithEps(e float64) ScenarioOption { return func(s *Scenario) { s.Protocol.Eps = e } }

// WithFrame overrides the protocol frame length T.
func WithFrame(t int) ScenarioOption { return func(s *Scenario) { s.Protocol.Frame = t } }

// WithoutDelays disables the Section 5 random initial delays.
func WithoutDelays() ScenarioOption { return func(s *Scenario) { s.Protocol.DisableDelays = true } }

// WithSlots sets the simulation length.
func WithSlots(n int64) ScenarioOption { return func(s *Scenario) { s.Sim.Slots = n } }

// WithSeed sets the run seed.
func WithSeed(seed int64) ScenarioOption { return func(s *Scenario) { s.Sim.Seed = seed } }

// WithWarmup excludes the first fraction of the run from latency stats.
func WithWarmup(frac float64) ScenarioOption { return func(s *Scenario) { s.Sim.WarmupFrac = frac } }

// WithSampleEvery sets the queue-sampling period.
func WithSampleEvery(n int64) ScenarioOption { return func(s *Scenario) { s.Sim.SampleEvery = n } }

// WithParallel caps the plan worker pool that runs a scenario's
// replications, sweep points and grid points.
func WithParallel(n int) ScenarioOption { return func(s *Scenario) { s.Sim.Parallel = n } }

// WithResolveParallelism sets the intra-slot interference-resolution
// worker count (0 = model default, 1 = serial). Results are
// bit-identical for every value.
func WithResolveParallelism(n int) ScenarioOption {
	return func(s *Scenario) { s.Sim.ResolveParallelism = n }
}

// WithObservers attaches observer factories to every compiled run.
func WithObservers(factories ...ObserverFactory) ScenarioOption {
	return func(s *Scenario) { s.Observers = append(s.Observers, factories...) }
}

// WithSweep declares a one-dimensional sweep over lambda, eps, loss,
// or slots.
func WithSweep(axis string, values ...float64) ScenarioOption {
	return func(s *Scenario) { s.Sweep = SweepSpec{Axis: axis, Values: values} }
}

// WithSweepAxes declares a multi-axis grid sweep: the execution plan is
// the cross product of all axis values, the last axis varying fastest.
func WithSweepAxes(axes ...SweepAxis) ScenarioOption {
	return func(s *Scenario) { s.Sweep = SweepSpec{Axes: axes} }
}

// Validate checks the parts of the spec that Compile's component
// builders do not check themselves.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("dynsched: scenario has no name")
	}
	if s.Sim.Slots <= 0 {
		return fmt.Errorf("dynsched: scenario %q: non-positive slot count %d", s.Name, s.Sim.Slots)
	}
	// The inverted range test also rejects NaN, which every plain
	// comparison lets through.
	if !(s.Sim.WarmupFrac >= 0 && s.Sim.WarmupFrac < 1) {
		return fmt.Errorf("dynsched: scenario %q: WarmupFrac %v outside [0,1)", s.Name, s.Sim.WarmupFrac)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"traffic lambda", s.Traffic.Lambda},
		{"protocol eps", s.Protocol.Eps},
		{"model loss", s.Model.Loss},
	} {
		if math.IsNaN(p.v) || math.IsInf(p.v, 0) {
			return fmt.Errorf("dynsched: scenario %q: %s is %v (must be finite)", s.Name, p.name, p.v)
		}
	}
	switch s.Traffic.Pattern {
	case "", "stochastic", "burst", "spread", "sawtooth", "rotating":
		if len(s.Traffic.Trace) > 0 {
			return fmt.Errorf("dynsched: scenario %q: traffic trace needs pattern \"trace\", got %q", s.Name, s.Traffic.Pattern)
		}
	case "trace":
		if len(s.Traffic.Trace) == 0 {
			return fmt.Errorf("dynsched: scenario %q: traffic pattern \"trace\" needs a non-empty trace", s.Name)
		}
	default:
		return fmt.Errorf("dynsched: scenario %q: unknown traffic pattern %q", s.Name, s.Traffic.Pattern)
	}
	switch s.Model.Kind {
	case "sinr-linear", "sinr-uniform", "sinr-power-control":
		// SINR models bake the worker count into their resolvers;
		// every other model reads "<1" as GOMAXPROCS.
		if s.Sim.ResolveParallelism < 0 {
			return fmt.Errorf("dynsched: scenario %q: sim resolveParallelism %d is negative (0 = GOMAXPROCS)", s.Name, s.Sim.ResolveParallelism)
		}
	}
	switch s.Model.Backing {
	case "", "auto", "dense", "csr", "indexed":
	default:
		return fmt.Errorf("dynsched: scenario %q: unknown model backing %q (want auto, dense, csr, or indexed)", s.Name, s.Model.Backing)
	}
	if !(s.Model.FarFloor >= 0 && s.Model.FarFloor < 1) {
		return fmt.Errorf("dynsched: scenario %q: model farFloor %v outside [0,1)", s.Name, s.Model.FarFloor)
	}
	if s.Model.FarFloor > 0 && s.Model.Backing != "indexed" {
		return fmt.Errorf("dynsched: scenario %q: model farFloor %v needs the indexed backing", s.Name, s.Model.FarFloor)
	}
	if s.Network.Generator != nil {
		if s.Network.Topology != "generator" {
			return fmt.Errorf("dynsched: scenario %q: a network generator needs topology \"generator\", got %q", s.Name, s.Network.Topology)
		}
		if err := s.Network.Generator.validate(s.Network.Links); err != nil {
			return fmt.Errorf("dynsched: scenario %q: %v", s.Name, err)
		}
	} else if s.Network.Topology == "generator" {
		return fmt.Errorf("dynsched: scenario %q: topology \"generator\" needs a network generator spec", s.Name)
	}
	if s.Sweep.Axis != "" && len(s.Sweep.Axes) > 0 {
		return fmt.Errorf("dynsched: scenario %q: sweep axis and axes are mutually exclusive", s.Name)
	}
	axes := s.Sweep.normalized()
	if len(axes) == 0 && len(s.Sweep.Values) > 0 {
		return fmt.Errorf("dynsched: scenario %q: sweep has %d values but no axis", s.Name, len(s.Sweep.Values))
	}
	if len(s.Sweep.Axes) > 0 && len(s.Sweep.Values) > 0 {
		return fmt.Errorf("dynsched: scenario %q: sweep values outside axes entries in a grid sweep", s.Name)
	}
	seen := make(map[string]bool, len(axes))
	for _, ax := range axes {
		switch ax.Axis {
		case "lambda", "eps", "loss", "slots":
		default:
			return fmt.Errorf("dynsched: scenario %q: unknown sweep axis %q (want lambda, eps, loss, or slots)", s.Name, ax.Axis)
		}
		if seen[ax.Axis] {
			return fmt.Errorf("dynsched: scenario %q: duplicate sweep axis %q", s.Name, ax.Axis)
		}
		seen[ax.Axis] = true
		if len(ax.Values) == 0 {
			return fmt.Errorf("dynsched: scenario %q: sweep axis %q has no values", s.Name, ax.Axis)
		}
		for i, v := range ax.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("dynsched: scenario %q: sweep value %d on axis %q is %v (must be finite)", s.Name, i, ax.Axis, v)
			}
			if ax.Axis == "slots" && (v != math.Trunc(v) || v < 1 || v > 1e15) {
				return fmt.Errorf("dynsched: scenario %q: sweep value %d on axis slots is %v (must be a positive whole number)", s.Name, i, v)
			}
		}
	}
	return nil
}

// simConfig maps the spec's simulation parameters.
func (s Scenario) simConfig() SimConfig {
	return SimConfig{
		Slots:              s.Sim.Slots,
		Seed:               s.Sim.Seed,
		WarmupFrac:         s.Sim.WarmupFrac,
		SampleEvery:        s.Sim.SampleEvery,
		ResolveParallelism: s.Sim.ResolveParallelism,
	}
}

// ModelDiagnostics records which interference-table backing a compiled
// SINR model resolved to and with which knobs — inspect it (or let
// cmd/dynsched print it) to confirm a scale run actually uses the
// spatial index rather than an O(n²) table.
type ModelDiagnostics = sinr.TableInfo

// CompiledScenario holds the runnable components a scenario validates
// and wires together: inspect the graph or protocol sizing, then Run.
type CompiledScenario struct {
	Scenario  Scenario
	Graph     *Graph
	Model     Model
	Process   InjectionProcess
	Protocol  *Protocol
	Config    SimConfig
	Observers []SimObserver
	// Diagnostics is the model's storage record (nil for non-SINR
	// models). It is informational: it never influences results.
	Diagnostics *ModelDiagnostics
}

// Compile validates the scenario and builds its components. Each call
// builds fresh instances, so two compilations never share mutable
// state (ModelCache.Compile is the variant that shares the network and
// model between compilations).
func (s Scenario) Compile() (*CompiledScenario, error) {
	return s.compileOn(buildNetwork)
}

// compileOn validates the scenario, takes its network from build and
// assembles one run on it: the one compile path behind Compile and
// ModelCache.Compile.
func (s Scenario) compileOn(build func(networkKey) (*network, error)) (*CompiledScenario, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	net, err := build(s.networkKey())
	var c *CompiledScenario
	if err == nil {
		c, err = s.assemble(net)
	}
	if err != nil {
		return nil, fmt.Errorf("dynsched: scenario %q: %w", s.Name, err)
	}
	return c, nil
}

// Run executes the compiled components once.
func (c *CompiledScenario) Run(ctx context.Context) (*SimResult, error) {
	return sim.Run(ctx, c.Config, c.Model, c.Process, c.Protocol, c.Observers...)
}

// Run compiles and executes the scenario once, as a single-unit
// execution plan (any sweep spec is ignored, as it always was). A nil
// ctx means context.Background(); a cancelled context yields the
// partial result together with an error wrapping the context's error.
func (s Scenario) Run(ctx context.Context) (*SimResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	pr, err := s.runPlan().Execute(ctx, ExecOptions{Parallel: 1})
	if pr.Run == nil && err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		// The context was cancelled before the pool claimed the unit.
		// The engine's contract is a partial (zero-slot) result under a
		// cancelled context, so hand the call through to it.
		c, cerr := s.Compile()
		if cerr != nil {
			return nil, cerr
		}
		return c.Run(ctx)
	}
	return pr.Run, err
}

// Replicate runs the scenario `reps` times through the execution
// planner — one unit per replication, each a fully-resolved scenario
// at the derived seed SubSeed(Sim.Seed, rep) — on a pool of
// Sim.Parallel workers. The replications share one network (graph,
// routes and interference model) through a ModelCache; each builds its
// own injection process, protocol and observers. Results are
// bit-identical for every pool size. When ctx is cancelled mid-way it
// returns the aggregate over the completed replications together with
// an error wrapping the context's error.
func (s Scenario) Replicate(ctx context.Context, reps int) (*ReplicateResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if reps < 1 {
		return nil, fmt.Errorf("dynsched: scenario %q: reps %d must be positive", s.Name, reps)
	}
	pr, err := s.replicatePlan(reps).Execute(ctx, ExecOptions{Models: NewModelCache()})
	if err != nil {
		var ue *PlanUnitError
		if errors.As(err, &ue) {
			return nil, ue.Err
		}
		return pr.Replicate, fmt.Errorf("dynsched: replicate cancelled with %d of %d replications completed: %w",
			len(pr.Replicate.Runs), reps, err)
	}
	return pr.Replicate, nil
}

// SweepPoint is one sweep unit's outcome. One-dimensional sweeps
// populate Axis/Value (the legacy shape); grid sweeps populate Coords
// with one entry per axis instead.
type SweepPoint struct {
	Axis   string      `json:"axis"`
	Value  float64     `json:"value"`
	Coords []AxisValue `json:"coords,omitempty"`
	Result *SimResult  `json:"result"`
}

// RunSweep decomposes the scenario's sweep into an execution plan —
// one unit per value for a single axis, one per cross-product point
// for a grid — and runs the units on a pool of Sim.Parallel workers.
// Units that share a network build it once, through one ModelCache.
// Points come back in canonical unit order and are bit-identical for
// every pool size. When ctx is cancelled mid-sweep it returns the
// completed points together with the run's error. (Observer factories
// run concurrently under a parallel pool; set Sim.Parallel to 1 for
// factories that share unsynchronised state.)
func (s Scenario) RunSweep(ctx context.Context) ([]SweepPoint, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if len(s.Sweep.normalized()) == 0 {
		return nil, fmt.Errorf("dynsched: scenario %q has no sweep axis", s.Name)
	}
	p, err := s.sweepPlan()
	if err != nil {
		return nil, err
	}
	pr, err := p.Execute(ctx, ExecOptions{Models: NewModelCache()})
	if err != nil {
		var ue *PlanUnitError
		if errors.As(err, &ue) {
			if p.Kind == PlanSweep {
				return pr.Points, fmt.Errorf("dynsched: sweep %s=%v: %w", ue.Unit.Coords[0].Axis, ue.Unit.Coords[0].Value, ue.Err)
			}
			return pr.Points, fmt.Errorf("dynsched: sweep unit %d (%s): %w", ue.Unit.Index, ue.Unit.Label(), ue.Err)
		}
		return pr.Points, fmt.Errorf("dynsched: sweep cancelled with %d of %d units completed: %w", pr.UnitsDone, pr.UnitsTotal, err)
	}
	return pr.Points, nil
}

// ---- JSON ----

// ParseScenario decodes a scenario document. Unknown keys are rejected
// so typos fail loudly, and the result is validated.
func ParseScenario(data []byte) (Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("dynsched: parsing scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// EncodeJSON renders the scenario as an indented JSON document, the
// same format ParseScenario reads.
func (s Scenario) EncodeJSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// ---- Registry ----

var scenarioRegistry = struct {
	mu     sync.RWMutex
	byName map[string]Scenario
	order  []string
}{byName: map[string]Scenario{}}

// RegisterScenario adds a named scenario to the process-wide registry,
// rejecting unnamed, invalid, and duplicate entries.
func RegisterScenario(s Scenario) error {
	if err := s.Validate(); err != nil {
		return err
	}
	scenarioRegistry.mu.Lock()
	defer scenarioRegistry.mu.Unlock()
	if _, dup := scenarioRegistry.byName[s.Name]; dup {
		return fmt.Errorf("dynsched: scenario %q already registered", s.Name)
	}
	scenarioRegistry.byName[s.Name] = s
	scenarioRegistry.order = append(scenarioRegistry.order, s.Name)
	return nil
}

// MustRegisterScenario is RegisterScenario, panicking on error — for
// package-level registration of built-in scenarios.
func MustRegisterScenario(s Scenario) {
	if err := RegisterScenario(s); err != nil {
		panic(err)
	}
}

// Scenarios returns every registered scenario in registration order.
func Scenarios() []Scenario {
	scenarioRegistry.mu.RLock()
	defer scenarioRegistry.mu.RUnlock()
	out := make([]Scenario, 0, len(scenarioRegistry.order))
	for _, name := range scenarioRegistry.order {
		out = append(out, scenarioRegistry.byName[name])
	}
	return out
}

// ScenarioByName looks a registered scenario up.
func ScenarioByName(name string) (Scenario, bool) {
	scenarioRegistry.mu.RLock()
	defer scenarioRegistry.mu.RUnlock()
	s, ok := scenarioRegistry.byName[name]
	return s, ok
}
