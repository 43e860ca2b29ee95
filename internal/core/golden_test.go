package core

import (
	"context"
	"testing"

	"dynsched/internal/inject"
	"dynsched/internal/interference"
	"dynsched/internal/netgraph"
	"dynsched/internal/sim"
	"dynsched/internal/static"
)

// TestGoldenRun pins the exact behaviour of a seeded reference run.
// These numbers change only when the protocol's logic or its use of
// randomness changes — which should always be a conscious decision, so
// update them deliberately when it is and investigate when it is not.
// They are pinned at engine stream version 2 (sim.StreamVersion): a
// change that moves them must bump it.
func TestGoldenRun(t *testing.T) {
	g := netgraph.LineNetwork(6, 1)
	model := interference.Identity{Links: g.NumLinks()}
	path, ok := netgraph.ShortestPath(g, 0, 5)
	if !ok {
		t.Fatal("no path")
	}
	proc, err := inject.StochasticAtRate(model, []inject.Generator{
		{Choices: []inject.PathChoice{{Path: path, P: 0.5}}},
	}, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := New(Config{
		Model: model, Alg: static.FullParallel{}, M: g.NumLinks(),
		Lambda: 0.4, Eps: 0.25, Seed: 424242,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(context.Background(), sim.Config{Slots: 10000, Seed: 424242}, model, proc, proto)
	if err != nil {
		t.Fatal(err)
	}

	// The derived frame layout is pure arithmetic — pin it exactly.
	s := proto.Sizing()
	if s.T != 18 || s.J != 9 || s.MainBudget != 13 || s.CleanupBudget != 5 {
		t.Errorf("sizing changed: %+v (was T=18 J=9 main=13 cleanup=5)", s)
	}

	// Behavioural counters are deterministic under the fixed seeds.
	if res.Injected != 3950 {
		t.Errorf("injected = %d (was 3950)", res.Injected)
	}
	if res.Delivered != 3917 {
		t.Errorf("delivered = %d (was 3917)", res.Delivered)
	}
	if res.ProtocolErrors != 0 {
		t.Errorf("protocol errors = %d", res.ProtocolErrors)
	}
	if got := res.Injected - res.Delivered - res.InFlight; got != 0 {
		t.Errorf("conservation residue %d", got)
	}
}
