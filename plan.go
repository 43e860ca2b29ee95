package dynsched

// The unified execution planner. Every way this library executes work —
// a single run, N replications, a 1-D parameter sweep, a multi-axis
// grid sweep — is the same thing underneath: a set of independent,
// perfectly shardable, perfectly cacheable simulations. Scenario.Plan
// makes that explicit by decomposing a scenario into addressable work
// *units*, each a fully-resolved single-run Scenario with its own
// canonical Hash; Plan.Execute drives the units through the shared
// worker pool of internal/plan with per-unit cache short-circuiting and
// streamed completion, then aggregates the typed PlanResult document.
// Scenario.Run, Scenario.Replicate and Scenario.RunSweep are thin
// wrappers over this layer (bit-identical to their pre-planner
// behaviour), and internal/server executes every submitted job through
// it, consulting its content-addressed result cache once per unit.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"time"

	"dynsched/internal/plan"
	"dynsched/internal/sim"
)

// PlanKind classifies an execution plan's shape.
type PlanKind string

// Plan kinds.
const (
	// PlanRun is a single simulation: one unit.
	PlanRun PlanKind = "run"
	// PlanReplicate is N independent replications with derived sub-seeds.
	PlanReplicate PlanKind = "replicate"
	// PlanSweep is a one-axis parameter sweep: one unit per value.
	PlanSweep PlanKind = "sweep"
	// PlanGrid is a multi-axis sweep: one unit per cross-product point.
	PlanGrid PlanKind = "grid"
)

// MaxPlanUnits bounds a plan's unit count. A grid sweep's unit count is
// the product of its axis lengths, so an innocent-looking spec can
// explode combinatorially; Plan rejects anything beyond this rather
// than allocating without bound (relevant for server-submitted specs).
const MaxPlanUnits = 65536

// AxisValue is one resolved sweep coordinate: which axis, which value.
type AxisValue struct {
	Axis  string  `json:"axis"`
	Value float64 `json:"value"`
}

// PlanUnit is one addressable work unit: a fully-resolved single-run
// Scenario (sweep cleared, axis values applied, replication seed
// derived) together with its canonical content address. Two plans that
// resolve a unit to the same spec share the same unit hash — a sweep
// point and a direct submission of the same resolved scenario are the
// same cacheable experiment.
type PlanUnit struct {
	// Index is the unit's stable position in the plan.
	Index int
	// Rep is the replication index for replicate plans, -1 otherwise.
	Rep int
	// Coords are the resolved sweep coordinates, nil for run/replicate.
	Coords []AxisValue
	// Scenario is the fully-resolved single-run spec.
	Scenario Scenario
	// Hash is Scenario.Hash() of the resolved spec.
	Hash string

	// label caches Label's rendering — Plan's constructors fill it so
	// repeated executions of one plan never re-derive it.
	label string
}

// Label renders the unit's coordinates for streams and error messages.
func (u PlanUnit) Label() string {
	if u.label != "" {
		return u.label
	}
	if u.Rep >= 0 {
		return fmt.Sprintf("rep %d", u.Rep)
	}
	if len(u.Coords) > 0 {
		parts := make([]string, len(u.Coords))
		for i, c := range u.Coords {
			parts[i] = fmt.Sprintf("%s=%v", c.Axis, c.Value)
		}
		return strings.Join(parts, ",")
	}
	return u.Scenario.Name
}

// Plan is a scenario decomposed into executable units.
type Plan struct {
	Kind PlanKind
	// Source is the scenario the plan was built from.
	Source Scenario
	// Reps is the replication count (1 unless Kind is PlanReplicate).
	Reps int
	// Units are the addressable work units, in canonical order: value
	// order for sweeps, row-major cross-product order (last axis fastest)
	// for grids, replication order for replicate plans.
	Units []PlanUnit

	// hash caches Hash's digest — Plan's constructors fill it before the
	// plan is shared, so executions (which stamp it into every result
	// document) never re-canonicalise the source spec.
	hash string
}

// Hash is the plan's content address: the SHA-256 of the plan shape
// (kind and replication count) over the source scenario's canonical
// form. It differs from the scenario hash — a plan document and a
// single-run result are different artifacts — but is equal for any two
// submissions that decompose into the same units, however the source
// spec was formatted. internal/server caches assembled plan documents
// under it.
func (p *Plan) Hash() string {
	if p.hash != "" {
		return p.hash
	}
	doc, err := p.Source.CanonicalJSON()
	if err != nil {
		panic(err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "plan:%s:reps=%d:", p.Kind, p.Reps)
	h.Write(doc)
	return hex.EncodeToString(h.Sum(nil))
}

// seal precomputes the plan-level hash and per-unit labels once, at
// construction, so every later Execute (and the server's per-job views)
// reads cached values instead of re-rendering them.
func (p *Plan) seal() *Plan {
	p.hash = ""
	p.hash = p.Hash()
	for i := range p.Units {
		p.Units[i].label = p.Units[i].Label()
	}
	return p
}

// Plan decomposes the scenario into an execution plan: a grid plan when
// the sweep spec declares multiple axes, a sweep plan for one axis, a
// replicate plan when reps > 1, and a single-run plan otherwise.
// Replicated sweeps are rejected. reps < 1 is an error.
func (s Scenario) Plan(reps int) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if reps < 1 {
		return nil, fmt.Errorf("dynsched: scenario %q: reps %d must be positive", s.Name, reps)
	}
	axes := s.Sweep.normalized()
	if len(axes) > 0 && reps > 1 {
		return nil, fmt.Errorf("dynsched: scenario %q: replicated sweeps are not supported — replicate each resolved unit instead", s.Name)
	}
	switch {
	case len(axes) > 0:
		p, err := s.sweepPlan()
		if err != nil {
			return nil, err
		}
		return p.seal(), nil
	case reps > 1:
		return s.replicatePlan(reps).seal(), nil
	default:
		return s.runPlan().seal(), nil
	}
}

// resolveUnit clears the sweep and applies the coordinates, producing a
// fully-resolved single-run spec.
func (s Scenario) resolveUnit(coords []AxisValue) Scenario {
	u := s
	u.Sweep = SweepSpec{}
	for _, c := range coords {
		applyAxis(&u, c.Axis, c.Value)
	}
	return u
}

// runPlan builds the single-run plan of the scenario, ignoring any
// sweep spec (Run has always executed the base scenario).
func (s Scenario) runPlan() *Plan {
	unit := s.resolveUnit(nil)
	return &Plan{
		Kind:   PlanRun,
		Source: s,
		Reps:   1,
		Units:  []PlanUnit{{Index: 0, Rep: -1, Scenario: unit, Hash: unit.Hash()}},
	}
}

// replicatePlan builds the N-replication plan: unit r is the scenario
// at the derived seed SubSeed(seed, r), so a replication unit and a
// direct run at that seed are the same cacheable experiment.
func (s Scenario) replicatePlan(reps int) *Plan {
	p := &Plan{Kind: PlanReplicate, Source: s, Reps: reps, Units: make([]PlanUnit, reps)}
	for r := 0; r < reps; r++ {
		unit := s.resolveUnit(nil)
		unit.Sim.Seed = sim.SubSeed(s.Sim.Seed, r)
		p.Units[r] = PlanUnit{Index: r, Rep: r, Scenario: unit, Hash: unit.Hash()}
	}
	return p
}

// sweepPlan builds the sweep (one axis) or grid (several axes) plan:
// the cross product of all axis values in row-major order, the last
// axis varying fastest. For a single axis this is exactly the legacy
// sweep order.
func (s Scenario) sweepPlan() (*Plan, error) {
	axes := s.Sweep.normalized()
	total := 1
	for _, ax := range axes {
		total *= len(ax.Values)
		if total > MaxPlanUnits {
			return nil, fmt.Errorf("dynsched: scenario %q: sweep grid exceeds %d units", s.Name, MaxPlanUnits)
		}
	}
	kind := PlanSweep
	if len(axes) > 1 {
		kind = PlanGrid
	}
	p := &Plan{Kind: kind, Source: s, Reps: 1, Units: make([]PlanUnit, total)}
	for i := 0; i < total; i++ {
		coords := make([]AxisValue, len(axes))
		rem := i
		for j := len(axes) - 1; j >= 0; j-- {
			n := len(axes[j].Values)
			coords[j] = AxisValue{Axis: axes[j].Axis, Value: axes[j].Values[rem%n]}
			rem /= n
		}
		unit := s.resolveUnit(coords)
		p.Units[i] = PlanUnit{Index: i, Rep: -1, Coords: coords, Scenario: unit, Hash: unit.Hash()}
	}
	return p, nil
}

// PlanUnitError attributes an execution failure to the plan unit that
// produced it. errors.Is/As reach through to the cause.
type PlanUnitError struct {
	Unit PlanUnit
	Err  error
}

// Error formats the failure with its unit coordinates.
func (e *PlanUnitError) Error() string {
	return fmt.Sprintf("dynsched: plan unit %d (%s): %v", e.Unit.Index, e.Unit.Label(), e.Err)
}

// Unwrap exposes the underlying error.
func (e *PlanUnitError) Unwrap() error { return e.Err }

// PlanUnitStatus is the per-unit metadata of an assembled PlanResult.
type PlanUnitStatus struct {
	Index int `json:"index"`
	// Hash is the unit's content address (its resolved Scenario.Hash).
	Hash   string      `json:"hash"`
	Coords []AxisValue `json:"coords,omitempty"`
	// Done marks units that completed cleanly.
	Done bool `json:"done"`
}

// PlanResult is the typed document a plan execution assembles: plan
// identity, per-unit status, and exactly one aggregate matching the
// plan kind. It is what dynschedd serves (and caches under the plan
// hash) for sweep, grid and replicate jobs. The document records what
// was computed, never how: cache and recovery provenance live on the
// job view (OnUnit progress, api.JobView), so the same plan yields a
// byte-identical document whether its units ran fresh, came from the
// cache, or were resumed after a crash.
type PlanResult struct {
	Kind     PlanKind `json:"kind"`
	Scenario string   `json:"scenario"`
	// Hash is the plan-level content address (Plan.Hash).
	Hash       string           `json:"hash"`
	UnitsTotal int              `json:"unitsTotal"`
	UnitsDone  int              `json:"unitsDone"`
	Units      []PlanUnitStatus `json:"units"`
	// Run holds the single-run aggregate (kind "run") — the partial
	// result when the run was cancelled mid-way.
	Run *SimResult `json:"run,omitempty"`
	// Replicate holds the across-replication aggregate (kind "replicate").
	Replicate *ReplicateResult `json:"replicate,omitempty"`
	// Points holds the completed sweep/grid points in unit order.
	Points []SweepPoint `json:"points,omitempty"`
}

// PlanMetrics is the planner's instrument bundle — units run, cached
// and failed, plus a fresh-run wall-time histogram. dynschedd builds
// one against its metrics registry and shares it across all jobs.
type PlanMetrics = plan.Metrics

// ExecOptions parameterises Plan.Execute.
type ExecOptions struct {
	// Parallel caps the unit worker pool (0 = the scenario's
	// Sim.Parallel, which itself defaults to GOMAXPROCS).
	Parallel int
	// Lookup, when set, is consulted once per unit before anything runs;
	// ok = true serves the unit from the returned result. It is called
	// serially in unit order — this is the per-unit cache hook.
	Lookup func(u PlanUnit) (*SimResult, bool)
	// Compiled, when set, may supply a unit's compilation (nil = compile
	// it as Models says). The compilation must be the unit's alone: the
	// unit appends its observers to it. A ModelCache.Compile result
	// qualifies, since only its network is shared. dynschedd hands over
	// the compilation it made at submit for unit 0. Each unit consults
	// the hook once, from its pool worker.
	Compiled func(u PlanUnit) *CompiledScenario
	// Models, when set, compiles the units Compiled does not supply, so
	// units on one network share it (nil = Scenario.Compile, a fresh
	// network per unit). dynschedd passes its daemon-wide cache.
	Models *ModelCache
	// Store, when set, receives every freshly-computed unit result (not
	// cache hits). It is called from pool workers and must be safe for
	// concurrent use.
	Store func(u PlanUnit, res *SimResult)
	// OnUnit, when set, streams unit completions: cache hits first in
	// unit order, then runs in completion order. Calls are serialized
	// with monotonic counts; keep the callback cheap.
	OnUnit func(u PlanUnit, cached bool, err error, p PlanProgress)
	// Observers, when set, supplies extra per-run observers for each
	// freshly-executed unit (cache hits never run, so they get none).
	// Called once per unit from its pool worker; return fresh observer
	// instances — a unit's observers are driven from that unit's engine
	// goroutine. dynschedd attaches its engine-metrics tracing observer
	// here.
	Observers func(u PlanUnit) []SimObserver
	// Metrics, when set, counts cache hits and every unit run here
	// (run/failed, with its wall time); units whose result Dispatch
	// obtains without calling run are not counted (see plan.Metrics).
	Metrics *PlanMetrics
	// Dispatch, when set, decides where each freshly-run unit executes.
	// It is called from the unit's pool worker with the unit's context
	// and run, the unit's local execution (compile, observe, checkpoint,
	// simulate), and returns the unit's outcome: either by calling run
	// itself, on any goroutine, or by obtaining the result elsewhere.
	// dynschedd's server parks every unit in its lease table here, where
	// its own local lessees call run and remote runners lease the unit
	// instead. Whichever executes it, a successful result flows through
	// Store exactly once, so caching and journaling hold fleet-wide.
	Dispatch func(ctx context.Context, u PlanUnit, run func(context.Context) (*SimResult, error)) (*SimResult, error)
	// CheckpointEvery, when positive, checkpoints each running unit
	// every so many slots (at the protocol's next frame boundary),
	// handing the snapshots to SaveCheckpoint. Units whose components
	// do not support checkpointing run uncheckpointed; results are
	// bit-identical either way.
	CheckpointEvery int64
	// SaveCheckpoint receives each unit's checkpoints. It is called
	// from pool workers and must be safe for concurrent use across
	// units (calls for one unit are serial).
	SaveCheckpoint func(u PlanUnit, cp *sim.Checkpoint) error
	// LoadCheckpoint, when set, is consulted once per freshly-run unit;
	// a non-nil checkpoint resumes the unit from it instead of slot 0.
	LoadCheckpoint func(u PlanUnit) *sim.Checkpoint
}

// PlanProgress is the plan-level completion state handed to OnUnit.
type PlanProgress struct {
	// Done counts completed units, cache hits included.
	Done int
	// Cached counts the units served from the per-unit cache.
	Cached int
	// Total is the plan's unit count.
	Total int
}

// Execute runs the plan's units across the shared worker pool, each
// unit under its own context derived from ctx, and aggregates the
// result document. Results are bit-identical for every pool size.
//
// The returned PlanResult is never nil: a cancelled plan reports the
// units that completed before the cut. The error is the first (by unit
// index) real unit failure as a *PlanUnitError — except for single-run
// plans, whose unit error is returned unwrapped — or ctx's error when
// the plan was cancelled.
func (p *Plan) Execute(ctx context.Context, opts ExecOptions) (*PlanResult, error) {
	units := make([]plan.Unit, len(p.Units))
	for i, pu := range p.Units {
		units[i] = plan.Unit{Index: i, Key: pu.Hash, Label: pu.Label()}
	}
	popts := plan.Options[*SimResult]{Parallel: opts.Parallel}
	if popts.Parallel == 0 {
		popts.Parallel = p.Source.Sim.Parallel
	}
	if opts.Lookup != nil {
		popts.Lookup = func(u plan.Unit) (*SimResult, bool) {
			res, ok := opts.Lookup(p.Units[u.Index])
			if ok {
				opts.Metrics.ObserveCached()
			}
			return res, ok
		}
	}
	if opts.OnUnit != nil {
		popts.OnUnit = func(u plan.Unit, _ *SimResult, cached bool, err error, pr plan.Progress) {
			opts.OnUnit(p.Units[u.Index], cached, err, PlanProgress{Done: pr.Done, Cached: pr.Cached, Total: pr.Total})
		}
	}
	out, err := plan.Execute(ctx, units, popts, func(uctx context.Context, u plan.Unit) (*SimResult, error) {
		pu := p.Units[u.Index]
		run := func(rctx context.Context) (*SimResult, error) {
			started := time.Now()
			res, err := opts.runUnit(rctx, pu)
			opts.Metrics.ObserveRun(time.Since(started), err)
			return res, err
		}
		var res *SimResult
		var err error
		if opts.Dispatch != nil {
			res, err = opts.Dispatch(uctx, pu, run)
		} else {
			res, err = run(uctx)
		}
		if err == nil && opts.Store != nil {
			opts.Store(pu, res)
		}
		return res, err
	})

	result := p.aggregate(out)
	if err != nil {
		var ue *plan.UnitError
		if errors.As(err, &ue) {
			if p.Kind == PlanRun {
				// Preserve the single run's own error shape (a cancelled
				// run's partial result travels in result.Run).
				return result, ue.Err
			}
			return result, &PlanUnitError{Unit: p.Units[ue.Unit.Index], Err: ue.Err}
		}
		return result, err
	}
	return result, nil
}

// runUnit executes one unit on the calling goroutine: the supplied or
// fresh compilation, the extra observers, and checkpoint save/resume
// when the unit's components support it.
func (opts *ExecOptions) runUnit(ctx context.Context, pu PlanUnit) (*SimResult, error) {
	var c *CompiledScenario
	if opts.Compiled != nil {
		c = opts.Compiled(pu)
	}
	if c == nil {
		var err error
		if opts.Models != nil {
			c, err = opts.Models.Compile(pu.Scenario)
		} else {
			c, err = pu.Scenario.Compile()
		}
		if err != nil {
			return nil, err
		}
	}
	if opts.Observers != nil {
		c.Observers = append(c.Observers, opts.Observers(pu)...)
	}
	if (opts.CheckpointEvery > 0 || opts.LoadCheckpoint != nil) &&
		sim.SupportsCheckpoint(c.Model, c.Process, c.Protocol) {
		spec := &sim.CheckpointSpec{}
		if opts.CheckpointEvery > 0 && opts.SaveCheckpoint != nil {
			spec.Every = opts.CheckpointEvery
			spec.Sink = func(cp *sim.Checkpoint) error { return opts.SaveCheckpoint(pu, cp) }
		}
		if opts.LoadCheckpoint != nil {
			spec.Resume = opts.LoadCheckpoint(pu)
		}
		if spec.Every > 0 || spec.Resume != nil {
			c.Config.Checkpoint = spec
		}
	}
	return c.Run(ctx)
}

// aggregate assembles the PlanResult document from an outcome.
func (p *Plan) aggregate(out *plan.Outcome[*SimResult]) *PlanResult {
	result := &PlanResult{
		Kind:       p.Kind,
		Scenario:   p.Source.Name,
		Hash:       p.Hash(),
		UnitsTotal: len(p.Units),
		UnitsDone:  out.NumDone,
		Units:      make([]PlanUnitStatus, len(p.Units)),
	}
	for i, pu := range p.Units {
		result.Units[i] = PlanUnitStatus{
			Index:  i,
			Hash:   pu.Hash,
			Coords: pu.Coords,
			Done:   out.Done[i],
		}
	}
	switch p.Kind {
	case PlanRun:
		result.Run = out.Values[0]
	case PlanReplicate:
		rr := &ReplicateResult{StableAll: true}
		for i := range p.Units {
			if !out.Done[i] {
				continue
			}
			rr.Accumulate(sim.ReplicationOf(i, out.Values[i]))
		}
		result.Replicate = rr
	case PlanSweep, PlanGrid:
		for i, pu := range p.Units {
			if !out.Done[i] {
				continue
			}
			pt := SweepPoint{Result: out.Values[i]}
			if p.Kind == PlanSweep {
				pt.Axis, pt.Value = pu.Coords[0].Axis, pu.Coords[0].Value
			} else {
				pt.Coords = pu.Coords
			}
			result.Points = append(result.Points, pt)
		}
	}
	return result
}
