package main

import (
	"flag"
	"reflect"
	"testing"

	"dynsched"
)

// parseWorkloadFlags registers the workload flags on a fresh FlagSet
// over the flag defaults and parses args.
func parseWorkloadFlags(t *testing.T, args ...string) (*flag.FlagSet, dynsched.Scenario) {
	t.Helper()
	sc := flagDefaults()
	fs := flag.NewFlagSet("dynsched", flag.ContinueOnError)
	registerWorkloadFlags(fs, &sc)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return fs, sc
}

// TestApplyOverrides pins that every workload flag overrides its field
// of a registered scenario, that unset flags leave the scenario alone,
// and that no registered flag lacks an override.
func TestApplyOverrides(t *testing.T) {
	base, ok := dynsched.ScenarioByName("line-stochastic")
	if !ok {
		t.Fatal("line-stochastic is not registered")
	}
	cases := map[string]struct {
		value string
		want  func(*dynsched.Scenario)
	}{
		"model":               {"mac", func(s *dynsched.Scenario) { s.Model.Kind = "mac" }},
		"topology":            {"grid", func(s *dynsched.Scenario) { s.Network.Topology = "grid" }},
		"alg":                 {"decay", func(s *dynsched.Scenario) { s.Protocol.Alg = "decay" }},
		"nodes":               {"11", func(s *dynsched.Scenario) { s.Network.Nodes = 11 }},
		"links":               {"33", func(s *dynsched.Scenario) { s.Network.Links = 33 }},
		"hops":                {"7", func(s *dynsched.Scenario) { s.Network.Hops = 7 }},
		"lambda":              {"0.125", func(s *dynsched.Scenario) { s.Traffic.Lambda = 0.125 }},
		"eps":                 {"0.375", func(s *dynsched.Scenario) { s.Protocol.Eps = 0.375 }},
		"seed":                {"42", func(s *dynsched.Scenario) { s.Sim.Seed = 42 }},
		"adversary":           {"sawtooth", func(s *dynsched.Scenario) { s.Traffic.Pattern = "sawtooth" }},
		"window":              {"17", func(s *dynsched.Scenario) { s.Traffic.Window = 17 }},
		"loss":                {"0.05", func(s *dynsched.Scenario) { s.Model.Loss = 0.05 }},
		"frame":               {"48", func(s *dynsched.Scenario) { s.Protocol.Frame = 48 }},
		"no-delays":           {"true", func(s *dynsched.Scenario) { s.Protocol.DisableDelays = true }},
		"resolve-parallelism": {"3", func(s *dynsched.Scenario) { s.Sim.ResolveParallelism = 3 }},
		"slots":               {"1234", func(s *dynsched.Scenario) { s.Sim.Slots = 1234 }},
		"parallel":            {"5", func(s *dynsched.Scenario) { s.Sim.Parallel = 5 }},
	}

	fs, _ := parseWorkloadFlags(t)
	fs.VisitAll(func(f *flag.Flag) {
		if _, ok := cases[f.Name]; !ok {
			t.Errorf("workload flag -%s has no override case", f.Name)
		}
	})
	for name, tc := range cases {
		if fs.Lookup(name) == nil {
			t.Errorf("override case %q names no registered flag", name)
			continue
		}
		want := base
		tc.want(&want)
		if reflect.DeepEqual(want, base) {
			t.Fatalf("-%s=%s: the case leaves %s unchanged", name, tc.value, base.Name)
		}
		fs, sc := parseWorkloadFlags(t, "-"+name+"="+tc.value)
		got, err := resolveScenario(fs, sc, base.Name, "")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("-%s=%s: got %+v, want %+v", name, tc.value, got, want)
		}
	}

	fs, sc := parseWorkloadFlags(t)
	if got, err := resolveScenario(fs, sc, base.Name, ""); err != nil || !reflect.DeepEqual(got, base) {
		t.Errorf("no flags set: got %+v (%v), want %s unchanged", got, err, base.Name)
	}
}

// TestResolveParallelismReachesScenario: a negative worker count is
// invalid for SINR models, so it must reach the scenario's Validate
// from the flag-composed workload and through a named scenario alike.
func TestResolveParallelismReachesScenario(t *testing.T) {
	for _, name := range []string{"", "sinr-stochastic"} {
		fs, sc := parseWorkloadFlags(t, "-model", "sinr-uniform", "-resolve-parallelism", "-1")
		got, err := resolveScenario(fs, sc, name, "")
		if err != nil {
			t.Fatal(err)
		}
		if got.Sim.ResolveParallelism != -1 {
			t.Errorf("scenario %q: resolveParallelism %d, want -1", name, got.Sim.ResolveParallelism)
		}
		if err := got.Validate(); err == nil {
			t.Errorf("scenario %q: -resolve-parallelism -1 on an SINR model passed validation", name)
		}
	}
}

// TestFlagComposedScenarioIsStochastic: with no flag set, the composed
// scenario is exactly the defaults, and the empty -adversary default
// composes the stochastic pattern.
func TestFlagComposedScenarioIsStochastic(t *testing.T) {
	fs, sc := parseWorkloadFlags(t)
	got, err := resolveScenario(fs, sc, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if want := flagDefaults(); !reflect.DeepEqual(got, want) || got.Traffic.Pattern != "stochastic" {
		t.Errorf("flag defaults compose %+v, want %+v", got, want)
	}
}
