package lowerbound

import (
	"context"
	"math"
	"testing"

	"dynsched/internal/interference"
	"dynsched/internal/sim"
)

func TestModelSemantics(t *testing.T) {
	m := Model{M: 4}
	if err := interference.ValidateWeights(m); err != nil {
		t.Fatal(err)
	}
	// Short links succeed together.
	resolve, _ := m.NewResolver(1)
	s := resolve([]int{0, 1, 2})
	for i, ok := range s {
		if !ok {
			t.Errorf("short link %d failed", i)
		}
	}
	// The long link fails in company.
	s = resolve([]int{0, 3})
	if !s[0] || s[1] {
		t.Errorf("mixed slot: %v, want short ok / long failed", s)
	}
	// The long link succeeds alone.
	if s := resolve([]int{3}); !s[0] {
		t.Error("lone long transmission failed")
	}
	// Duplicates fail.
	if s := resolve([]int{1, 1}); s[0] || s[1] {
		t.Error("duplicates succeeded")
	}
}

func TestGlobalTDMStableBelowHalf(t *testing.T) {
	const m = 16
	model := Model{M: m}
	_, paths := Network(m)
	proc, err := PerLinkBernoulli(model, paths, 0.45)
	if err != nil {
		t.Fatal(err)
	}
	proto := NewGlobalTDM(model)
	res, err := sim.Run(context.Background(), sim.Config{Slots: 40000, Seed: 151}, model, proc, proto)
	if err != nil {
		t.Fatal(err)
	}
	if res.ProtocolErrors != 0 {
		t.Fatalf("%d protocol errors", res.ProtocolErrors)
	}
	if !res.Verdict.Stable {
		t.Errorf("global TDM unstable at λ=0.45: %+v", res.Verdict)
	}
}

func TestLocalGreedyStarvesLongLink(t *testing.T) {
	// Theorem 20's negative side: with per-link arrivals at
	// λ = ln m / m, the long link's queue grows without bound under any
	// local-clock acknowledgement-based behaviour; greedy short links
	// are the natural instance.
	const m = 64
	lambda := math.Log(float64(m)) / float64(m) // ≈ 0.065
	model := Model{M: m}
	_, paths := Network(m)
	proc, err := PerLinkBernoulli(model, paths, lambda)
	if err != nil {
		t.Fatal(err)
	}
	proto := NewLocalGreedy(model)
	res, err := sim.Run(context.Background(), sim.Config{Slots: 60000, Seed: 152}, model, proc, proto)
	if err != nil {
		t.Fatal(err)
	}
	if res.ProtocolErrors != 0 {
		t.Fatalf("%d protocol errors", res.ProtocolErrors)
	}
	// The long link should have accumulated a large backlog: arrivals
	// ≈ λ·slots ≈ 3900, service only in all-silent slots.
	if proto.LongQueueLen() < 500 {
		t.Errorf("long-link queue %d after 60k slots — starvation not reproduced (successes=%d)",
			proto.LongQueueLen(), proto.LongSuccesses)
	}
	// Meanwhile the same workload is easy with a global clock.
	proc2, err := PerLinkBernoulli(model, paths, lambda)
	if err != nil {
		t.Fatal(err)
	}
	tdm := NewGlobalTDM(model)
	res2, err := sim.Run(context.Background(), sim.Config{Slots: 60000, Seed: 152}, model, proc2, tdm)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Verdict.Stable {
		t.Errorf("global TDM unstable at λ=ln m/m: %+v", res2.Verdict)
	}
}

func TestNetworkShape(t *testing.T) {
	g, paths := Network(8)
	if g.NumLinks() != 8 || len(paths) != 8 {
		t.Fatalf("network has %d links, %d paths", g.NumLinks(), len(paths))
	}
	for i, p := range paths {
		if len(p) != 1 || int(p[0]) != i {
			t.Errorf("path %d = %v", i, p)
		}
	}
}
