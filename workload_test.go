package dynsched

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"dynsched/internal/netgraph"
	"dynsched/internal/sim"
)

// builderScenario is the small workload the builder tests vary.
func builderScenario() Scenario {
	s := NewScenario("builder", WithNodes(6), WithLinks(8), WithHops(3))
	s.Traffic.Window = 32
	return s
}

func TestBuildEveryModel(t *testing.T) {
	models := []string{"identity", "mac", "sinr-linear", "sinr-uniform", "sinr-power-control"}
	for _, m := range models {
		s := builderScenario()
		s.Model.Kind = m
		switch m {
		case "sinr-power-control":
			s.Traffic.Lambda = 0.01 // the centralized scheduler's throughput is lower
		case "sinr-linear", "sinr-uniform":
			s.Traffic.Lambda = 0.05 // Spread's f(m) ≈ 8 caps the rate well below 1
		}
		c, err := s.Compile()
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if c.Model == nil || c.Protocol == nil || c.Process == nil {
			t.Fatalf("%s: incomplete compilation", m)
		}
		// Every compiled workload must actually simulate.
		res, err := sim.Run(context.Background(), sim.Config{Slots: 2000, Seed: 2}, c.Model, c.Process, c.Protocol)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if res.ProtocolErrors != 0 {
			t.Fatalf("%s: %d protocol errors", m, res.ProtocolErrors)
		}
	}
}

func TestBuildEveryTopology(t *testing.T) {
	for _, topo := range []string{"line", "grid", "grid-convergecast", "pairs", "nested", "mac"} {
		s := builderScenario()
		s.Network.Topology = topo
		if topo == "mac" {
			s.Model.Kind = "mac"
			s.Traffic.Lambda = 0.2
		}
		if _, err := s.Compile(); err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
	}
	s := builderScenario()
	s.Network.Topology = "klein-bottle"
	if _, err := s.Compile(); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestBuildAdversaries(t *testing.T) {
	for _, adv := range []string{"burst", "spread", "sawtooth", "rotating"} {
		s := builderScenario()
		s.Traffic.Pattern = adv
		c, err := s.Compile()
		if err != nil {
			t.Fatalf("%s: %v", adv, err)
		}
		if !strings.Contains(c.Process.Name(), "adversary") {
			t.Fatalf("%s: process is %s, not an adversary", adv, c.Process.Name())
		}
		if adv == "rotating" && !strings.Contains(c.Process.Name(), "rotating") {
			t.Fatalf("rotating pattern ignored: %s", c.Process.Name())
		}
	}
	s := builderScenario()
	s.Traffic.Pattern = "quantum"
	if _, err := s.Compile(); err == nil {
		t.Fatal("unknown adversary accepted")
	}
}

func TestPickAlgorithm(t *testing.T) {
	names := []string{
		"full-parallel", "decay", "decay-adaptive", "spread", "densify",
		"trivial", "mac-decay", "rrw", "backoff", "greedy-pc",
	}
	for _, n := range names {
		alg, err := pickAlgorithm(n, "identity")
		if err != nil || alg == nil {
			t.Fatalf("%s: (%v, %v)", n, alg, err)
		}
	}
	if _, err := pickAlgorithm("nope", "identity"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	// Auto resolution per model.
	autos := map[string]string{
		"identity":           "full-parallel",
		"mac":                "round-robin-withholding",
		"sinr-linear":        "spread",
		"sinr-power-control": "greedy-power-control",
	}
	for model, want := range autos {
		alg, err := pickAlgorithm("auto", model)
		if err != nil {
			t.Fatal(err)
		}
		if alg.Name() != want {
			t.Errorf("auto for %s = %s, want %s", model, alg.Name(), want)
		}
	}
}

func TestBuildWithLoss(t *testing.T) {
	s := builderScenario()
	s.Model.Loss = 0.1
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(c.Model.Name(), "lossy") {
		t.Fatalf("loss option ignored: model %s", c.Model.Name())
	}
}

func TestBuildRejectsOverload(t *testing.T) {
	s := builderScenario()
	s.Traffic.Lambda = 5 // far beyond FullParallel's throughput 1
	if _, err := s.Compile(); err == nil {
		t.Fatal("impossible provisioning accepted")
	}
}

func TestBuildFrameOverrideAndDelayAblation(t *testing.T) {
	s := builderScenario()
	s.Protocol.Frame = 32
	s.Traffic.Pattern = "burst"
	s.Protocol.DisableDelays = true
	c, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Protocol.Sizing().T; got != 32 {
		t.Fatalf("frame override ignored: T=%d, want 32", got)
	}
	if got := c.Protocol.Sizing().DelayMax; got != 0 {
		t.Fatalf("delay ablation ignored: δmax=%d, want 0", got)
	}
}

func TestBuildGridConvergecastPaths(t *testing.T) {
	s := builderScenario()
	s.Network.Topology = "grid-convergecast"
	s.Network.Nodes = 9
	if _, err := s.Compile(); err != nil {
		t.Fatal(err)
	}
	net, err := buildNetwork(s.networkKey())
	if err != nil {
		t.Fatal(err)
	}
	// 3×3 grid: 8 non-sink nodes, one route each.
	if len(net.paths) != 8 {
		t.Fatalf("got %d convergecast paths, want 8", len(net.paths))
	}
	// The corner-to-corner route is 4 hops; M = max(|E|, D).
	maxHops := 0
	for _, p := range net.paths {
		maxHops = max(maxHops, len(p))
	}
	if maxHops != 4 {
		t.Fatalf("longest route %d hops, want 4", maxHops)
	}
}

// lineScenario is a network that draws nothing from the workload seed.
func lineScenario() Scenario {
	s := builderScenario()
	s.Network.Topology = "line"
	return s
}

// generatorScenario is a SINR network placed by a generator with its
// own seed.
func generatorScenario() Scenario {
	s := builderScenario()
	s.Model.Kind, s.Network.Links, s.Traffic.Lambda = "sinr-uniform", 64, 0.02
	s.Model.Backing, s.Model.FarFloor = "indexed", 0.02
	WithGenerator(GeneratorSpec{Kind: "uniform", Seed: 7})(&s)
	return s
}

// TestNetworkSharedAcrossRunParameters pins what may share one cached
// network: every per-run parameter leaves the key unchanged, and a run
// assembled on the base network simulates exactly like a fresh Compile.
func TestNetworkSharedAcrossRunParameters(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"seed", func(s *Scenario) { s.Sim.Seed = 99 }},
		{"slots", func(s *Scenario) { s.Sim.Slots = 7 }},
		{"lambda", func(s *Scenario) { s.Traffic.Lambda /= 2 }},
		{"eps", func(s *Scenario) { s.Protocol.Eps = 0.4 }},
		{"loss", func(s *Scenario) { s.Model.Loss = 0.1 }},
		{"protocol", func(s *Scenario) {
			s.Protocol.Alg, s.Protocol.DisableDelays = "full-parallel", true
			if s.Model.Kind == "identity" { // full-parallel is identity's auto pick
				s.Protocol.Alg, s.Traffic.Lambda = "trivial", 0.01
			}
		}},
		{"adversary", func(s *Scenario) { s.Traffic.Pattern = "burst" }},
		{"trace", func(s *Scenario) {
			WithTrace([]TraceEvent{{Slot: 3, ID: 0, Path: netgraph.Path{0}}, {Slot: 9, ID: 1, Path: netgraph.Path{0}}})(s)
		}},
	}
	for _, base := range []struct {
		name string
		spec func() Scenario
	}{{"line", lineScenario}, {"generator", generatorScenario}} {
		s0 := base.spec()
		net, err := buildNetwork(s0.networkKey())
		if err != nil {
			t.Fatalf("%s: %v", base.name, err)
		}
		for _, tc := range cases {
			s := base.spec()
			tc.mutate(&s)
			if s.networkKey() != s0.networkKey() {
				t.Errorf("%s/%s: key changed:\n%+v\n%+v", base.name, tc.name, s.networkKey(), s0.networkKey())
				continue
			}
			fresh, err := s.Compile()
			if err != nil {
				t.Fatalf("%s/%s: %v", base.name, tc.name, err)
			}
			shared, err := s.assemble(net)
			if err != nil {
				t.Fatalf("%s/%s: %v", base.name, tc.name, err)
			}
			cfg := sim.Config{Slots: 400, Seed: s.Sim.Seed}
			want, err := sim.Run(context.Background(), cfg, fresh.Model, fresh.Process, fresh.Protocol)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sim.Run(context.Background(), cfg, shared.Model, shared.Process, shared.Protocol)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: run on the shared network differs from a fresh build", base.name, tc.name)
			}
		}
	}

	// Spelling out the generator's defaults names the same network.
	s := generatorScenario()
	s.Network.Generator.MinLen, s.Network.Generator.MaxLen, s.Network.Generator.Side = 1, 4, 90
	if s.networkKey() != generatorScenario().networkKey() {
		t.Errorf("explicit generator defaults changed the key:\n%+v\n%+v", s.networkKey(), generatorScenario().networkKey())
	}
}

// TestNetworkKeyDistinguishesNetworks pins the other direction: the
// workload seed separates networks exactly where the topology draws
// from it, and every networkKey field separates them.
func TestNetworkKeyDistinguishesNetworks(t *testing.T) {
	pairs := func() Scenario {
		s := builderScenario()
		s.Model.Kind, s.Network.Topology = "sinr-linear", "pairs"
		return s
	}
	unseeded := func() Scenario {
		s := generatorScenario()
		s.Network.Generator.Seed = 0
		return s
	}
	for name, base := range map[string]func() Scenario{"pairs": pairs, "unseeded generator": unseeded} {
		a, b := base(), base()
		b.Sim.Seed++
		if a.networkKey() == b.networkKey() {
			t.Errorf("%s: seeds %d and %d share a key", name, a.Sim.Seed, b.Sim.Seed)
		}
	}

	cases := []struct {
		field  string
		base   func() Scenario
		mutate func(*Scenario)
	}{
		{"Model", generatorScenario, func(s *Scenario) { s.Model.Kind = "sinr-linear" }},
		{"Topology", lineScenario, func(s *Scenario) { s.Network.Topology = "grid" }},
		{"Nodes", lineScenario, func(s *Scenario) { s.Network.Nodes++ }},
		{"Links", pairs, func(s *Scenario) { s.Network.Links++ }},
		{"Hops", lineScenario, func(s *Scenario) { s.Network.Hops-- }},
		{"Gen", generatorScenario, func(s *Scenario) { s.Network.Generator.Kind = "cluster" }},
		{"Backing", generatorScenario, func(s *Scenario) { s.Model.Backing, s.Model.FarFloor = "csr", 0 }},
		{"DenseMaxLinks", pairs, func(s *Scenario) { s.Model.DenseMax = 4 }},
		{"FarFloor", generatorScenario, func(s *Scenario) { s.Model.FarFloor = 0.05 }},
		{"CellSize", generatorScenario, func(s *Scenario) { s.Model.Cell = 3 }},
		{"ResolveParallelism", generatorScenario, func(s *Scenario) { s.Sim.ResolveParallelism = 2 }},
		{"Seed", pairs, func(s *Scenario) { s.Sim.Seed = 5 }},
	}
	covered := map[string]bool{}
	for _, tc := range cases {
		covered[tc.field] = true
		a := tc.base()
		b := tc.base()
		tc.mutate(&b)
		ka, kb := a.networkKey(), b.networkKey()
		if reflect.ValueOf(ka).FieldByName(tc.field).Equal(reflect.ValueOf(kb).FieldByName(tc.field)) {
			t.Errorf("%s: mutation left the field unchanged", tc.field)
		}
		if ka == kb {
			t.Errorf("%s: distinct networks share a key", tc.field)
		}
	}
	typ := reflect.TypeOf(networkKey{})
	for i := 0; i < typ.NumField(); i++ {
		if name := typ.Field(i).Name; !covered[name] {
			t.Errorf("networkKey.%s has no distinguishing case", name)
		}
	}
}
