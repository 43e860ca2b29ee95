package dynsched

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
)

// This file pins the spatial-index tentpole at the scenario layer: for
// every registered SINR scenario, the indexed backing at ε = 0 is
// bit-identical to the flat-table path — model verdicts and full Result
// JSON — and at ε > 0 every success it reports is a true SINR success.
// Scale scenarios participate through reduced-size twins with the same
// generator kind, model, and knobs.

// sinrScenario reports whether the scenario's model has a SINR backing
// to compare.
func sinrScenario(s Scenario) bool {
	return strings.HasPrefix(s.Model.Kind, "sinr-")
}

// scaledCopy caps a scenario's size so property tests stay quick: the
// generator families drop to 256 links, everything else is already
// small. The model kind, generator kind, and ε knob are preserved.
func scaledCopy(s Scenario) Scenario {
	if s.Network.Links > 1024 {
		s.Network.Links = 256
	}
	s.Sim.Slots = 1500
	return s
}

// withBacking returns a copy with the model storage overridden.
func withBacking(s Scenario, backing string, farFloor float64) Scenario {
	s.Model.Backing, s.Model.FarFloor = backing, farFloor
	return s
}

// compileModel compiles the scenario and returns its model.
func compileModel(t *testing.T, s Scenario) (*CompiledScenario, Model) {
	t.Helper()
	c, err := s.Compile()
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	return c, c.Model
}

// TestScenariosIndexedBitIdentity: for every registered SINR scenario,
// the ε = 0 indexed backing and the flat-table path agree bit for bit —
// on random transmission slots and on the full simulation Result.
func TestScenariosIndexedBitIdentity(t *testing.T) {
	for _, reg := range Scenarios() {
		if !sinrScenario(reg) {
			continue
		}
		reg := reg
		t.Run(reg.Name, func(t *testing.T) {
			t.Parallel()
			s := scaledCopy(reg)
			flat := withBacking(s, "auto", 0)
			idx := withBacking(s, "indexed", 0)

			_, mFlat := compileModel(t, flat)
			cIdx, mIdx := compileModel(t, idx)
			if cIdx.Diagnostics == nil || cIdx.Diagnostics.Backing != "indexed" {
				t.Fatalf("indexed compile diagnostics = %+v, want indexed backing", cIdx.Diagnostics)
			}
			n := mFlat.NumLinks()
			rng := rand.New(rand.NewSource(int64(n) + 7))
			resolveFlat, _ := mFlat.NewResolver(0)
			resolveIdx, _ := mIdx.NewResolver(0)
			for trial := 0; trial < 150; trial++ {
				k := 1 + rng.Intn(2*n)
				tx := make([]int, k)
				for i := range tx {
					tx[i] = rng.Intn(n)
				}
				want, got := resolveFlat(tx), resolveIdx(tx)
				for i := range tx {
					if want[i] != got[i] {
						t.Fatalf("trial %d: verdict[%d] = %v on indexed, %v on flat (tx %v)", trial, i, got[i], want[i], tx)
					}
				}
			}

			resFlat, err := flat.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			resIdx, err := idx.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			a, _ := json.Marshal(resFlat)
			b, _ := json.Marshal(resIdx)
			if !bytes.Equal(a, b) {
				t.Errorf("Run results diverge between flat and indexed ε=0 backings\nflat:    %s\nindexed: %s", a, b)
			}
		})
	}
}

// TestScenariosFarFloorSound: for every registered scenario that ships
// with ε > 0, the indexed resolver's reported successes are a subset of
// the exact SINR successes on random slots (the far-field bound only
// over-estimates interference, never under-estimates it).
func TestScenariosFarFloorSound(t *testing.T) {
	tested := 0
	for _, reg := range Scenarios() {
		if !sinrScenario(reg) || reg.Model.FarFloor == 0 {
			continue
		}
		reg := reg
		tested++
		t.Run(reg.Name, func(t *testing.T) {
			t.Parallel()
			s := scaledCopy(reg)
			_, mExact := compileModel(t, withBacking(s, "auto", 0))
			_, mIdx := compileModel(t, s) // registered backing and ε
			n := mExact.NumLinks()
			rng := rand.New(rand.NewSource(int64(n) + 11))
			resolveExact, _ := mExact.NewResolver(0)
			resolveIdx, _ := mIdx.NewResolver(0)
			for trial := 0; trial < 150; trial++ {
				k := 1 + rng.Intn(n)
				tx := rng.Perm(n)[:k]
				want, got := resolveExact(tx), resolveIdx(tx)
				for i := range tx {
					if got[i] && !want[i] {
						t.Fatalf("trial %d: link %d reported success at ε=%v but fails the exact SINR test",
							trial, tx[i], s.Model.FarFloor)
					}
				}
			}
		})
	}
	if tested == 0 {
		t.Fatal("no registered scenario carries ε > 0 — the sinr-grid family should")
	}
}

// TestGeneratorSpecHashing: the generator spec hashes canonically —
// identical specs agree, every knob is hash-relevant, and the spec-less
// scenarios' hashes cannot be perturbed by the new optional fields.
func TestGeneratorSpecHashing(t *testing.T) {
	base := NewScenario("gen",
		WithModel("sinr-uniform"),
		WithLinks(64),
		WithGenerator(GeneratorSpec{Kind: "cluster", Clusters: 4, Seed: 9}),
		WithBacking("indexed", 0.01),
	)
	h1, h2 := base.Hash(), base.Hash()
	if h1 != h2 {
		t.Fatalf("generator scenario hash not deterministic: %s vs %s", h1, h2)
	}
	perturb := map[string]func(*Scenario){
		"generator kind":  func(s *Scenario) { s.Network.Generator.Kind = "uniform" },
		"generator seed":  func(s *Scenario) { s.Network.Generator.Seed = 10 },
		"generator side":  func(s *Scenario) { s.Network.Generator.Side = 500 },
		"model backing":   func(s *Scenario) { s.Model.Backing = "csr"; s.Model.FarFloor = 0 },
		"model farFloor":  func(s *Scenario) { s.Model.FarFloor = 0.02 },
		"model denseMax":  func(s *Scenario) { s.Model.DenseMax = 64 },
		"model cell size": func(s *Scenario) { s.Model.Cell = 2 },
	}
	for name, mutate := range perturb {
		c := base
		gen := *base.Network.Generator
		c.Network.Generator = &gen
		mutate(&c)
		if h := c.Hash(); h == h1 {
			t.Errorf("changing %s did not change the scenario hash", name)
		}
	}
}

// TestScenarioDiagnostics: the compiled scenario surfaces which backing
// the model resolved to.
func TestScenarioDiagnostics(t *testing.T) {
	s, ok := ScenarioByName("sinr-stochastic")
	if !ok {
		t.Fatal("sinr-stochastic not registered")
	}
	c, _ := compileModel(t, s)
	if c.Diagnostics == nil || c.Diagnostics.Backing != "dense" {
		t.Fatalf("sinr-stochastic diagnostics = %+v, want dense backing", c.Diagnostics)
	}
	grid, ok := ScenarioByName("sinr-grid-4k")
	if !ok {
		t.Fatal("sinr-grid-4k not registered")
	}
	c4k, _ := compileModel(t, scaledCopy(grid))
	if c4k.Diagnostics == nil || c4k.Diagnostics.Backing != "indexed" || c4k.Diagnostics.FarFloor != grid.Model.FarFloor {
		t.Fatalf("sinr-grid-4k diagnostics = %+v, want indexed backing at ε=%v", c4k.Diagnostics, grid.Model.FarFloor)
	}
	line, ok := ScenarioByName("line-stochastic")
	if !ok {
		t.Fatal("line-stochastic not registered")
	}
	cLine, _ := compileModel(t, line)
	if cLine.Diagnostics != nil {
		t.Fatalf("identity-model diagnostics = %+v, want nil", cLine.Diagnostics)
	}
}
