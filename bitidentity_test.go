package dynsched

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"dynsched/internal/interference"
	"dynsched/internal/netgraph"
	"dynsched/internal/sim"
	"dynsched/internal/sinr"
)

// This file pins the tentpole's headline guarantee: the precomputed
// cross-gain tables and the zero-allocation packet lifecycle changed
// the engine's speed, not its output. Every registered scenario is run
// twice at Quick scale — once on the optimized path (gain tables,
// reusable resolvers, packet arena) and once against a reference model
// that hides every fast-path extension and re-derives each SINR
// quantity with the pre-table inline math.Pow formulas — and the full
// Result JSON must be byte-identical.

// preTableModel hides a model's RowsProvider fast path, exactly like
// the weightOnlyModel shim the benchmarks use; slots still resolve
// through the wrapped model's resolver.
type preTableModel struct{ m Model }

func (w preTableModel) Name() string             { return w.m.Name() + "-pretable" }
func (w preTableModel) NumLinks() int            { return w.m.NumLinks() }
func (w preTableModel) Weight(e, e2 int) float64 { return w.m.Weight(e, e2) }
func (w preTableModel) NewResolver(workers int) (func(tx []int) []bool, func() interference.ResolveStats) {
	return w.m.NewResolver(workers)
}

// preTableFixedPower re-derives the exact SINR test of the fixed-power
// model with the pre-table formulas: per-pair math.Pow path loss, the
// d == 0 short-circuit, and the per-call ok map. Its resolver is that
// allocating oracle.
type preTableFixedPower struct {
	preTableModel
	fp *sinr.FixedPower
}

func (w preTableFixedPower) NewResolver(int) (func(tx []int) []bool, func() interference.ResolveStats) {
	return w.successes, interference.SerialStats
}

func (w preTableFixedPower) successes(tx []int) []bool {
	m := w.fp
	g, prm := m.Graph(), m.Params()
	out := make([]bool, len(tx))
	if len(tx) == 0 {
		return out
	}
	counts := make([]int, g.NumLinks())
	for _, e := range tx {
		counts[e]++
	}
	uniq := make([]int, 0, len(tx))
	for e, c := range counts {
		if c > 0 {
			uniq = append(uniq, e)
		}
	}
	ok := make(map[int]bool, len(uniq))
	for _, e := range uniq {
		if counts[e] != 1 {
			continue
		}
		interf := prm.Noise
		recv := g.Link(netgraph.LinkID(e)).To
		for _, e2 := range uniq {
			if e2 == e {
				continue
			}
			d := g.NodeDist(g.Link(netgraph.LinkID(e2)).From, recv)
			if d == 0 {
				interf = math.Inf(1)
				break
			}
			interf += m.Power(e2) / math.Pow(d, prm.Alpha)
		}
		signal := m.Power(e) / math.Pow(m.LinkLen(e), prm.Alpha)
		ok[e] = signal >= prm.Beta*interf
	}
	for i, e := range tx {
		out[i] = counts[e] == 1 && ok[e]
	}
	return out
}

// preTablePowerControl re-derives the power-control feasibility test
// with the pre-table formulas: fresh gain matrices built from math.Pow
// per call, the same fixed-point iteration bounds the model uses
// (maxIter 200, power cap 1e18), and allocation-heavy shedding. Its
// resolver is that allocating oracle.
type preTablePowerControl struct {
	preTableModel
	pc *sinr.PowerControl
}

func (w preTablePowerControl) NewResolver(int) (func(tx []int) []bool, func() interference.ResolveStats) {
	return w.successes, interference.SerialStats
}

func (w preTablePowerControl) solvable(set []int) bool {
	m := w.pc
	g := m.Graph()
	k := len(set)
	if k == 0 {
		return true
	}
	const (
		maxIter  = 200
		powerCap = 1e18
	)
	prm := m.Params()
	alpha, beta, nu := prm.Alpha, prm.Beta, prm.Noise
	gain := make([][]float64, k)
	noiseTerm := make([]float64, k)
	for i := 0; i < k; i++ {
		gain[i] = make([]float64, k)
		li := netgraph.LinkID(set[i])
		noiseTerm[i] = nu * math.Pow(m.LinkLen(set[i]), alpha)
		recv := g.Link(li).To
		for j := 0; j < k; j++ {
			if i == j {
				continue
			}
			d := g.NodeDist(g.Link(netgraph.LinkID(set[j])).From, recv)
			if d == 0 {
				return false
			}
			gain[i][j] = math.Pow(m.LinkLen(set[i]), alpha) / math.Pow(d, alpha)
		}
	}
	p := make([]float64, k)
	next := make([]float64, k)
	for it := 0; it < maxIter; it++ {
		maxRel := 0.0
		for i := 0; i < k; i++ {
			s := noiseTerm[i]
			for j := 0; j < k; j++ {
				s += gain[i][j] * p[j]
			}
			next[i] = beta * s
			if next[i] > powerCap {
				return false
			}
			den := math.Max(next[i], 1e-300)
			rel := math.Abs(next[i]-p[i]) / den
			if rel > maxRel {
				maxRel = rel
			}
		}
		p, next = next, p
		if maxRel < 1e-9 {
			return true
		}
	}
	return false
}

func (w preTablePowerControl) successes(tx []int) []bool {
	m := w.pc
	out := make([]bool, len(tx))
	if len(tx) == 0 {
		return out
	}
	counts := make([]int, m.NumLinks())
	for _, e := range tx {
		counts[e]++
	}
	var set []int
	for e, c := range counts {
		if c == 1 {
			set = append(set, e)
		}
	}
	served := make(map[int]bool, len(set))
	for len(set) > 0 {
		if w.solvable(set) {
			for _, e := range set {
				served[e] = true
			}
			break
		}
		worst, worstVal := 0, -1.0
		for i, e := range set {
			sum := 0.0
			for _, e2 := range set {
				if e2 != e {
					sum += math.Max(m.Weight(e, e2), m.Weight(e2, e))
				}
			}
			if sum > worstVal {
				worst, worstVal = i, sum
			}
		}
		rest := make([]int, 0, len(set)-1)
		rest = append(rest, set[:worst]...)
		rest = append(rest, set[worst+1:]...)
		set = rest
	}
	for i, e := range tx {
		out[i] = counts[e] == 1 && served[e]
	}
	return out
}

// preTable wraps a compiled model in its reference counterpart,
// descending through Lossy wrappers (the loss RNG instance is shared,
// and both runs consume it in the same order).
func preTable(m Model) Model {
	switch v := m.(type) {
	case *sinr.FixedPower:
		return preTableFixedPower{preTableModel{v}, v}
	case *sinr.PowerControl:
		return preTablePowerControl{preTableModel{v}, v}
	case *Lossy:
		return &interference.Lossy{Inner: preTable(v.Inner), P: v.P, Rand: v.Rand}
	default:
		return preTableModel{m}
	}
}

// ---- Planner bit-identity (PR 5) ----
//
// The unified execution planner rewired Scenario.Run, Replicate and
// RunSweep into plan decomposition + pooled unit execution. These
// property tests pin the refactor's headline guarantee over every
// registered scenario: the full Result JSON of each entry point is
// byte-identical to what the pre-planner code paths produce.

// prePlannerRun is the pre-planner Scenario.Run: compile, then drive
// the engine directly.
func prePlannerRun(s Scenario) (*SimResult, error) {
	c, err := s.Compile()
	if err != nil {
		return nil, err
	}
	return c.Run(context.Background())
}

// prePlannerReplicate is the pre-planner Scenario.Replicate as a
// strictly serial loop: each replication compiles and runs the scenario
// at its derived seed, folded in replication order.
func prePlannerReplicate(s Scenario, reps int) (*ReplicateResult, error) {
	out := &ReplicateResult{StableAll: true}
	for r := 0; r < reps; r++ {
		sc := s
		sc.Sim.Seed = sim.SubSeed(s.Sim.Seed, r)
		res, err := prePlannerRun(sc)
		if err != nil {
			return nil, err
		}
		out.Accumulate(sim.ReplicationOf(r, res))
	}
	return out, nil
}

// prePlannerSweep is the pre-planner Scenario.RunSweep: a strictly
// serial loop applying each value to the axis.
func prePlannerSweep(s Scenario) ([]SweepPoint, error) {
	out := make([]SweepPoint, 0, len(s.Sweep.Values))
	for _, v := range s.Sweep.Values {
		sc := s
		sc.Sweep = SweepSpec{}
		switch s.Sweep.Axis {
		case "lambda":
			sc.Traffic.Lambda = v
		case "eps":
			sc.Protocol.Eps = v
		case "loss":
			sc.Model.Loss = v
		}
		res, err := prePlannerRun(sc)
		if err != nil {
			return out, err
		}
		out = append(out, SweepPoint{Axis: s.Sweep.Axis, Value: v, Result: res})
	}
	return out, nil
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestScenariosBitIdenticalToPrePlannerPaths runs every registered
// scenario through the planner-backed Run/Replicate/RunSweep and
// through the pre-planner reference implementations, requiring
// byte-identical full-Result JSON for each.
func TestScenariosBitIdenticalToPrePlannerPaths(t *testing.T) {
	const quickSlots = 3000
	for _, s := range Scenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			if s.Network.Links > 4096 {
				// Scale scenarios: planner equivalence is exercised at CI
				// size by sinr-grid-4k; the 10⁵/10⁶ entries are benchmark
				// and local-run targets (see scale_test.go).
				t.Skipf("skipping %d-link scale scenario in quick tests", s.Network.Links)
			}
			s.Sim.Slots = quickSlots

			got, err := s.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			want, err := prePlannerRun(s)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := mustJSON(t, got), mustJSON(t, want); !bytes.Equal(a, b) {
				t.Errorf("Run diverged from pre-planner path\nplanner: %s\nref:     %s", a, b)
			}

			const reps = 3
			gotRep, err := s.Replicate(context.Background(), reps)
			if err != nil {
				t.Fatal(err)
			}
			wantRep, err := prePlannerReplicate(s, reps)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := mustJSON(t, gotRep), mustJSON(t, wantRep); !bytes.Equal(a, b) {
				t.Errorf("Replicate diverged from pre-planner path\nplanner: %s\nref:     %s", a, b)
			}

			// Sweep the scenario's own injection rate: two points around
			// the registered λ exercise distinct resolved units.
			sw := s
			sw.Sweep = SweepSpec{Axis: "lambda", Values: []float64{s.Traffic.Lambda, s.Traffic.Lambda / 2}}
			gotPts, err := sw.RunSweep(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			wantPts, err := prePlannerSweep(sw)
			if err != nil {
				t.Fatal(err)
			}
			if a, b := mustJSON(t, gotPts), mustJSON(t, wantPts); !bytes.Equal(a, b) {
				t.Errorf("RunSweep diverged from pre-planner path\nplanner: %s\nref:     %s", a, b)
			}
		})
	}
}

// TestScenariosBitIdenticalToPreTablePath runs every registered
// scenario on the optimized path and on the pre-table reference path
// and requires byte-identical Result JSON.
func TestScenariosBitIdenticalToPreTablePath(t *testing.T) {
	const quickSlots = 4000
	for _, s := range Scenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			if s.Model.FarFloor > 0 {
				// An ε > 0 indexed backing is envelope-bound, not
				// bit-identical to the exact reference; its ε = 0 twin is
				// pinned bit-identical by TestScenariosIndexedBitIdentity
				// and its soundness by TestScenariosFarFloorSound.
				t.Skipf("skipping ε=%v indexed scenario on the exact-reference comparison", s.Model.FarFloor)
			}
			if s.Network.Links > 2048 {
				t.Skipf("skipping %d-link scale scenario in quick tests", s.Network.Links)
			}
			s.Sim.Slots = quickSlots
			fast, err := s.Compile()
			if err != nil {
				t.Fatal(err)
			}
			fastRes, err := fast.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			ref, err := s.Compile()
			if err != nil {
				t.Fatal(err)
			}
			refRes, err := SimulateContext(context.Background(), ref.Config, preTable(ref.Model), ref.Process, ref.Protocol, ref.Observers...)
			if err != nil {
				t.Fatal(err)
			}
			a, err := json.Marshal(fastRes)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(refRes)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("results diverge between gain-table and pre-table paths\nfast: %s\nref:  %s", a, b)
			}
		})
	}
}
