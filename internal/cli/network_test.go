package cli

import (
	"context"
	"reflect"
	"testing"

	"dynsched/internal/inject"
	"dynsched/internal/netgraph"
	"dynsched/internal/sim"
)

// lineOptions is a network that draws nothing from the workload seed.
func lineOptions() Options {
	o := defaults()
	o.Topology = "line"
	return o
}

// generatorOptions is a SINR network placed by a generator with its
// own seed.
func generatorOptions() Options {
	o := defaults()
	o.Model, o.Topology, o.Links, o.Lambda = "sinr-uniform", "generator", 64, 0.02
	o.Backing, o.FarFloor = "indexed", 0.02
	o.Gen = Generator{Kind: "uniform", Seed: 7}
	return o
}

// TestNetworkSharedAcrossRunParameters pins what may share one cached
// network: every per-run parameter leaves the key unchanged, and a run
// assembled on the base network simulates exactly like a fresh Build.
// (The slot count is a simulation parameter and never reaches Options.)
func TestNetworkSharedAcrossRunParameters(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Options)
	}{
		{"seed", func(o *Options) { o.Seed = 99 }},
		{"lambda", func(o *Options) { o.Lambda /= 2 }},
		{"eps", func(o *Options) { o.Eps = 0.4 }},
		{"loss", func(o *Options) { o.LossP = 0.1 }},
		{"protocol", func(o *Options) {
			o.Alg, o.DisableDelays = "full-parallel", true
			if o.Model == "identity" { // full-parallel is identity's auto pick
				o.Alg, o.Lambda = "trivial", 0.01
			}
		}},
		{"adversary", func(o *Options) { o.Adv = "burst" }},
		{"trace", func(o *Options) {
			o.Trace = []inject.TraceRecord{{Slot: 3, ID: 0, Path: netgraph.Path{0}}, {Slot: 9, ID: 1, Path: netgraph.Path{0}}}
		}},
	}
	for _, base := range []struct {
		name string
		opts func() Options
	}{{"line", lineOptions}, {"generator", generatorOptions}} {
		o0 := base.opts()
		net, err := BuildNetwork(o0.Network())
		if err != nil {
			t.Fatalf("%s: %v", base.name, err)
		}
		for _, tc := range cases {
			o := base.opts()
			tc.mutate(&o)
			if o.Network() != o0.Network() {
				t.Errorf("%s/%s: key changed:\n%+v\n%+v", base.name, tc.name, o.Network(), o0.Network())
				continue
			}
			fresh, err := Build(o)
			if err != nil {
				t.Fatalf("%s/%s: %v", base.name, tc.name, err)
			}
			shared, err := Assemble(o, net)
			if err != nil {
				t.Fatalf("%s/%s: %v", base.name, tc.name, err)
			}
			cfg := sim.Config{Slots: 400, Seed: o.Seed}
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
	o := generatorOptions()
	o.Gen.MinLen, o.Gen.MaxLen, o.Gen.Side = 1, 4, 90
	if o.Network() != generatorOptions().Network() {
		t.Errorf("explicit generator defaults changed the key:\n%+v\n%+v", o.Network(), generatorOptions().Network())
	}
}

// TestNetworkKeyDistinguishesNetworks pins the other direction: the
// workload seed separates networks exactly where the topology draws
// from it, and every NetworkOptions field separates them.
func TestNetworkKeyDistinguishesNetworks(t *testing.T) {
	pairs := func() Options {
		o := defaults()
		o.Model, o.Topology = "sinr-linear", "pairs"
		return o
	}
	unseeded := func() Options {
		o := generatorOptions()
		o.Gen.Seed = 0
		return o
	}
	for name, base := range map[string]func() Options{"pairs": pairs, "unseeded generator": unseeded} {
		a, b := base(), base()
		b.Seed++
		if a.Network() == b.Network() {
			t.Errorf("%s: seeds %d and %d share a key", name, a.Seed, b.Seed)
		}
	}

	cases := []struct {
		field  string
		base   func() Options
		mutate func(*Options)
	}{
		{"Model", generatorOptions, func(o *Options) { o.Model = "sinr-linear" }},
		{"Topology", lineOptions, func(o *Options) { o.Topology = "grid" }},
		{"Nodes", lineOptions, func(o *Options) { o.Nodes++ }},
		{"Links", pairs, func(o *Options) { o.Links++ }},
		{"Hops", lineOptions, func(o *Options) { o.Hops-- }},
		{"Gen", generatorOptions, func(o *Options) { o.Gen.Kind = "cluster" }},
		{"Backing", generatorOptions, func(o *Options) { o.Backing, o.FarFloor = "csr", 0 }},
		{"DenseMaxLinks", pairs, func(o *Options) { o.DenseMaxLinks = 4 }},
		{"FarFloor", generatorOptions, func(o *Options) { o.FarFloor = 0.05 }},
		{"CellSize", generatorOptions, func(o *Options) { o.CellSize = 3 }},
		{"ResolveParallelism", generatorOptions, func(o *Options) { o.ResolveParallelism = 2 }},
		{"Seed", pairs, func(o *Options) { o.Seed = 5 }},
	}
	covered := map[string]bool{}
	for _, tc := range cases {
		covered[tc.field] = true
		a := tc.base()
		b := tc.base()
		tc.mutate(&b)
		ka, kb := a.Network(), b.Network()
		if reflect.ValueOf(ka).FieldByName(tc.field).Equal(reflect.ValueOf(kb).FieldByName(tc.field)) {
			t.Errorf("%s: mutation left the field unchanged", tc.field)
		}
		if ka == kb {
			t.Errorf("%s: distinct networks share a key", tc.field)
		}
	}
	typ := reflect.TypeOf(NetworkOptions{})
	for i := 0; i < typ.NumField(); i++ {
		if name := typ.Field(i).Name; !covered[name] {
			t.Errorf("NetworkOptions.%s has no distinguishing case", name)
		}
	}
}
