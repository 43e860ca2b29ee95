package dynsched

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"dynsched/internal/sim"
)

// planScenario is the fast planner test workload.
func planScenario(name string) Scenario {
	return NewScenario(name,
		WithModel("identity"), WithTopology("line"), WithNodes(6), WithHops(5),
		WithLambda(0.4), WithAlgorithm("full-parallel"),
		WithSlots(1_500), WithSeed(1))
}

func TestPlanDecomposition(t *testing.T) {
	base := planScenario("decomp")

	// Single run: one unit, resolved to the scenario itself.
	p, err := base.Plan(1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != PlanRun || len(p.Units) != 1 {
		t.Fatalf("run plan: %+v", p)
	}
	if p.Units[0].Hash != base.Hash() {
		t.Fatal("single-run unit hash differs from the scenario hash")
	}

	// Replicate: unit r carries the derived sub-seed, so a replication
	// unit and a direct run at that seed share a content address.
	p, err = base.Plan(4)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != PlanReplicate || len(p.Units) != 4 {
		t.Fatalf("replicate plan: %+v", p)
	}
	for r, u := range p.Units {
		if u.Rep != r || u.Scenario.Sim.Seed != sim.SubSeed(base.Sim.Seed, r) {
			t.Fatalf("unit %d: %+v", r, u)
		}
		direct := base
		direct.Sim.Seed = sim.SubSeed(base.Sim.Seed, r)
		if u.Hash != direct.Hash() {
			t.Fatalf("replication unit %d hash differs from a direct run at its seed", r)
		}
	}

	// 1-D sweep: value order, resolved axis, sweep cleared.
	sw := base
	sw.Sweep = SweepSpec{Axis: "lambda", Values: []float64{0.1, 0.2, 0.3}}
	p, err = sw.Plan(1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != PlanSweep || len(p.Units) != 3 {
		t.Fatalf("sweep plan: %+v", p)
	}
	for i, u := range p.Units {
		if u.Scenario.Traffic.Lambda != sw.Sweep.Values[i] || u.Scenario.Sweep.Axis != "" {
			t.Fatalf("sweep unit %d: %+v", i, u.Scenario)
		}
	}

	// Grid: cross product in row-major order, last axis fastest.
	grid := base
	grid.Sweep = SweepSpec{Axes: []SweepAxis{
		{Axis: "lambda", Values: []float64{0.1, 0.2}},
		{Axis: "eps", Values: []float64{0.25, 0.5, 0.75}},
	}}
	p, err = grid.Plan(1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != PlanGrid || len(p.Units) != 6 {
		t.Fatalf("grid plan: %+v", p)
	}
	var got []string
	for _, u := range p.Units {
		got = append(got, u.Label())
		if u.Scenario.Traffic.Lambda != u.Coords[0].Value || u.Scenario.Protocol.Eps != u.Coords[1].Value {
			t.Fatalf("grid unit not resolved: %+v", u)
		}
	}
	want := "lambda=0.1,eps=0.25 lambda=0.1,eps=0.5 lambda=0.1,eps=0.75 " +
		"lambda=0.2,eps=0.25 lambda=0.2,eps=0.5 lambda=0.2,eps=0.75"
	if strings.Join(got, " ") != want {
		t.Fatalf("grid order:\n%s\nwant\n%s", strings.Join(got, " "), want)
	}

	// A single-entry axes list is the legacy sweep.
	one := base
	one.Sweep = SweepSpec{Axes: []SweepAxis{{Axis: "loss", Values: []float64{0, 0.1}}}}
	p, err = one.Plan(1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != PlanSweep {
		t.Fatalf("single-axis grid classified as %s", p.Kind)
	}

	// The slots axis resolves into Sim.Slots.
	sl := base
	sl.Sweep = SweepSpec{Axis: "slots", Values: []float64{1000, 2000}}
	p, err = sl.Plan(1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Units[1].Scenario.Sim.Slots != 2000 {
		t.Fatalf("slots axis not applied: %+v", p.Units[1].Scenario.Sim)
	}
}

func TestPlanErrors(t *testing.T) {
	base := planScenario("plan-errors")
	if _, err := base.Plan(0); err == nil {
		t.Error("reps 0 accepted")
	}
	sw := base
	sw.Sweep = SweepSpec{Axis: "lambda", Values: []float64{0.1}}
	if _, err := sw.Plan(2); err == nil || !strings.Contains(err.Error(), "replicated sweeps") {
		t.Errorf("replicated sweep: %v", err)
	}
	// Unit-count explosion is rejected, not allocated.
	big := base
	vals := make([]float64, 300)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	big.Sweep = SweepSpec{Axes: []SweepAxis{
		{Axis: "lambda", Values: vals},
		{Axis: "eps", Values: vals},
	}}
	if _, err := big.Plan(1); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("oversized grid: %v", err)
	}
}

func TestPlanHashDistinctAndStable(t *testing.T) {
	base := planScenario("plan-hash")
	run, _ := base.Plan(1)
	rep, _ := base.Plan(3)
	rep2, _ := base.Plan(4)
	if run.Hash() == base.Hash() {
		t.Error("run plan hash collides with the scenario hash (different document formats)")
	}
	if run.Hash() == rep.Hash() || rep.Hash() == rep2.Hash() {
		t.Error("plan hashes do not separate kind/reps")
	}
	again, _ := base.Plan(3)
	if rep.Hash() != again.Hash() {
		t.Error("plan hash unstable across decompositions")
	}
}

func TestSweepSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		sw   SweepSpec
		want string
	}{
		{"both forms", SweepSpec{Axis: "lambda", Values: []float64{1}, Axes: []SweepAxis{{Axis: "eps", Values: []float64{1}}}}, "mutually exclusive"},
		{"stray values", SweepSpec{Values: []float64{1}, Axes: []SweepAxis{{Axis: "eps", Values: []float64{1}}}}, "values outside axes"},
		{"duplicate axis", SweepSpec{Axes: []SweepAxis{{Axis: "eps", Values: []float64{1}}, {Axis: "eps", Values: []float64{2}}}}, "duplicate sweep axis"},
		{"empty axis values", SweepSpec{Axes: []SweepAxis{{Axis: "eps", Values: []float64{1}}, {Axis: "loss", Values: nil}}}, "no values"},
		{"unknown grid axis", SweepSpec{Axes: []SweepAxis{{Axis: "spin", Values: []float64{1}}}}, "unknown sweep axis"},
		{"fractional slots", SweepSpec{Axis: "slots", Values: []float64{100.5}}, "whole number"},
		{"negative slots", SweepSpec{Axes: []SweepAxis{{Axis: "slots", Values: []float64{-10}}}}, "whole number"},
	}
	for _, c := range cases {
		s := NewScenario("sweep-validate")
		s.Sweep = c.sw
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v does not mention %q", c.name, err, c.want)
		}
	}
	ok := NewScenario("sweep-ok")
	ok.Sweep = SweepSpec{Axes: []SweepAxis{
		{Axis: "lambda", Values: []float64{0.1}},
		{Axis: "slots", Values: []float64{1000, 4000}},
	}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid grid rejected: %v", err)
	}
}

// TestPlanExecuteHooks drives a sweep plan with Lookup/Store/OnUnit and
// checks the per-unit cache contract: cache hits are served without
// running, fresh results reach Store, and the completion stream is
// ordered with monotonic counts.
func TestPlanExecuteHooks(t *testing.T) {
	sw := planScenario("hooks")
	sw.Sweep = SweepSpec{Axis: "lambda", Values: []float64{0.1, 0.2, 0.3, 0.4}}
	p, err := sw.Plan(1)
	if err != nil {
		t.Fatal(err)
	}

	// First pass: run everything, capture the per-unit results.
	var mu sync.Mutex
	stored := map[string]*SimResult{}
	pr, err := p.Execute(context.Background(), ExecOptions{
		Store: func(u PlanUnit, res *SimResult) {
			mu.Lock()
			stored[u.Hash] = res
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pr.UnitsDone != 4 || len(stored) != 4 || len(pr.Points) != 4 {
		t.Fatalf("first pass: %+v (stored %d)", pr, len(stored))
	}

	// Second pass: everything served from the lookup, nothing runs.
	// Cache provenance is visible only on the progress stream — the
	// assembled document stays byte-identical to the fresh pass.
	var dones []int
	cachedUnits := 0
	pr2, err := p.Execute(context.Background(), ExecOptions{
		Lookup: func(u PlanUnit) (*SimResult, bool) { r, ok := stored[u.Hash]; return r, ok },
		Store:  func(u PlanUnit, res *SimResult) { t.Errorf("unit %d simulated on a full cache", u.Index) },
		OnUnit: func(u PlanUnit, cached bool, err error, prog PlanProgress) {
			if !cached || err != nil {
				t.Errorf("unit %d: cached=%v err=%v", u.Index, cached, err)
			}
			dones = append(dones, prog.Done)
			cachedUnits = prog.Cached
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cachedUnits != 4 || pr2.UnitsDone != 4 {
		t.Fatalf("second pass: cached %d, %+v", cachedUnits, pr2)
	}
	if fmt.Sprint(dones) != "[1 2 3 4]" {
		t.Fatalf("completion stream %v", dones)
	}
	a, _ := json.Marshal(pr)
	b, _ := json.Marshal(pr2)
	if !bytes.Equal(a, b) {
		t.Fatal("cache-served document diverges from fresh document")
	}

	// Third pass: one value appended — exactly one simulation runs.
	sw.Sweep.Values = append(sw.Sweep.Values, 0.5)
	p3, err := sw.Plan(1)
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	pr3, err := p3.Execute(context.Background(), ExecOptions{
		Lookup: func(u PlanUnit) (*SimResult, bool) { r, ok := stored[u.Hash]; return r, ok },
		Store:  func(u PlanUnit, res *SimResult) { mu.Lock(); ran++; mu.Unlock() },
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran != 1 || pr3.UnitsDone != 5 {
		t.Fatalf("incremental pass ran %d units: %+v", ran, pr3)
	}
}

// TestGridSweepEndToEnd runs a 2×2 grid through RunSweep and checks
// the points carry coordinates and independent results.
func TestGridSweepEndToEnd(t *testing.T) {
	sc := planScenario("grid-e2e")
	sc.Sweep = SweepSpec{Axes: []SweepAxis{
		{Axis: "lambda", Values: []float64{0.2, 0.4}},
		{Axis: "eps", Values: []float64{0.25, 0.5}},
	}}
	pts, err := sc.RunSweep(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("got %d grid points", len(pts))
	}
	for i, pt := range pts {
		if len(pt.Coords) != 2 || pt.Result == nil || pt.Axis != "" {
			t.Fatalf("point %d malformed: %+v", i, pt)
		}
	}
	// λ=0.4 rows must inject more than λ=0.2 rows at equal eps.
	if pts[2].Result.Injected <= pts[0].Result.Injected {
		t.Errorf("grid λ=0.4 injected %d, not more than λ=0.2's %d",
			pts[2].Result.Injected, pts[0].Result.Injected)
	}
}

// TestPlanReplicateCancellation pins the wrapper's partial-result
// contract: cancelling mid-replication returns the completed subset
// and an error wrapping context.Canceled.
func TestPlanReplicateCancellation(t *testing.T) {
	sc := planScenario("rep-cancel")
	sc.Sim.Slots = 2_000_000_000 // will never finish; only cancellation ends it
	sc.Sim.Parallel = 2
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := sc.Replicate(ctx, 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v", err)
	}
	if res == nil || len(res.Runs) != 0 {
		t.Fatalf("pre-cancelled replicate: %+v", res)
	}
}

// TestPlanReplicateCancellationMidRun cancels a serial replication plan
// from its completion stream after the first unit: the partial
// aggregate keeps the completed replications, each labelled with the
// unit it came from, and the error wraps context.Canceled.
func TestPlanReplicateCancellationMidRun(t *testing.T) {
	const reps = 4
	sc := planScenario("rep-cancel-mid")
	sc.Sim.Parallel = 1
	p, err := sc.Plan(reps)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, err := p.Execute(ctx, ExecOptions{OnUnit: func(PlanUnit, bool, error, PlanProgress) { cancel() }})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	runs := pr.Replicate.Runs
	if len(runs) == 0 || len(runs) >= reps {
		t.Fatalf("got %d of %d replications, want a non-empty strict subset", len(runs), reps)
	}
	for _, run := range runs {
		if !pr.Units[run.Rep].Done {
			t.Fatalf("replication %d names a unit that did not complete", run.Rep)
		}
		res, err := p.Units[run.Rep].Scenario.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if want := sim.ReplicationOf(run.Rep, res); run != want {
			t.Errorf("replication %d = %+v, its unit's own run gives %+v", run.Rep, run, want)
		}
	}
}

// TestSimResultRemarshalStable pins the invariant the per-unit result
// cache rests on: unmarshal followed by marshal reproduces the exact
// byte sequence, so a cache-served unit result embedded into a plan
// document is indistinguishable from a freshly-computed one.
func TestSimResultRemarshalStable(t *testing.T) {
	res, err := planScenario("remarshal").Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	first, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back SimResult
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("SimResult JSON not remarshal-stable:\n%s\nvs\n%s", first, second)
	}
}
