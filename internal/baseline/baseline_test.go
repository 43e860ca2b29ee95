package baseline

import (
	"context"
	"testing"

	"dynsched/internal/inject"
	"dynsched/internal/interference"
	"dynsched/internal/netgraph"
	"dynsched/internal/sim"
)

func singleHopProc(t *testing.T, m interference.Model, links int, lambda float64) inject.Process {
	t.Helper()
	gens := make([]inject.Generator, links)
	for i := range gens {
		gens[i] = inject.Generator{Choices: []inject.PathChoice{
			{Path: netgraph.Path{netgraph.LinkID(i)}, P: 0.5},
		}}
	}
	proc, err := inject.StochasticAtRate(m, gens, lambda)
	if err != nil {
		t.Fatal(err)
	}
	return proc
}

func TestMaxWeightStableOnIdentity(t *testing.T) {
	m := interference.Identity{Links: 5}
	proc := singleHopProc(t, m, 5, 0.7)
	proto := NewMaxWeight(m)
	res, err := sim.Run(context.Background(), sim.Config{Slots: 20000, Seed: 141}, m, proc, proto)
	if err != nil {
		t.Fatal(err)
	}
	if res.ProtocolErrors != 0 {
		t.Fatalf("%d protocol errors", res.ProtocolErrors)
	}
	if !res.Verdict.Stable {
		t.Errorf("max-weight unstable on identity at 0.7: %+v", res.Verdict)
	}
	if res.Delivered+res.InFlight != res.Injected {
		t.Fatal("conservation violated")
	}
}

func TestMaxWeightStableOnMAC(t *testing.T) {
	m := interference.AllOnes{Links: 4}
	proc := singleHopProc(t, m, 4, 0.8) // total rate 0.8 < 1: serviceable
	proto := NewMaxWeight(m)
	res, err := sim.Run(context.Background(), sim.Config{Slots: 30000, Seed: 142}, m, proc, proto)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verdict.Stable {
		t.Errorf("max-weight unstable on MAC at 0.8: %+v", res.Verdict)
	}
}

func TestMACFallbackStableAtLowRate(t *testing.T) {
	m := interference.Identity{Links: 6}
	// The fallback serves one packet per slot network-wide, so the
	// aggregate identity rate 6·λ must stay below 1: use λ = 0.1.
	proc := singleHopProc(t, m, 6, 0.1)
	proto := NewMACFallback(6)
	res, err := sim.Run(context.Background(), sim.Config{Slots: 20000, Seed: 143}, m, proc, proto)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verdict.Stable {
		t.Errorf("fallback unstable at aggregate 0.6: %+v", res.Verdict)
	}
}

func TestMACFallbackWastesParallelism(t *testing.T) {
	// The same workload is stable under FIFO greedy (identity model is
	// fully parallel) but unstable under the serializing fallback — the
	// factor-m loss of Section 8.
	m := interference.Identity{Links: 6}
	proc1 := singleHopProc(t, m, 6, 0.5)
	fifores, err := sim.Run(context.Background(), sim.Config{Slots: 20000, Seed: 144}, m, proc1, NewFIFOGreedy(6))
	if err != nil {
		t.Fatal(err)
	}
	if !fifores.Verdict.Stable {
		t.Fatalf("FIFO greedy unstable on identity at 0.5: %+v", fifores.Verdict)
	}
	proc2 := singleHopProc(t, m, 6, 0.5)
	fbres, err := sim.Run(context.Background(), sim.Config{Slots: 20000, Seed: 144}, m, proc2, NewMACFallback(6))
	if err != nil {
		t.Fatal(err)
	}
	if fbres.Verdict.Stable {
		t.Errorf("serializing fallback judged stable at aggregate rate 3: %+v", fbres.Verdict)
	}
}

func TestFIFOGreedyMultiHop(t *testing.T) {
	g := netgraph.LineNetwork(5, 1)
	m := interference.Identity{Links: g.NumLinks()}
	path, _ := netgraph.ShortestPath(g, 0, 4)
	gens := []inject.Generator{{Choices: []inject.PathChoice{{Path: path, P: 0.4}}}}
	proc, err := inject.NewStochastic(m, gens)
	if err != nil {
		t.Fatal(err)
	}
	proto := NewFIFOGreedy(g.NumLinks())
	res, err := sim.Run(context.Background(), sim.Config{Slots: 20000, Seed: 145}, m, proc, proto)
	if err != nil {
		t.Fatal(err)
	}
	if res.ProtocolErrors != 0 {
		t.Fatalf("%d protocol errors", res.ProtocolErrors)
	}
	if !res.Verdict.Stable {
		t.Errorf("FIFO greedy unstable on 4-hop line at 0.4: %+v", res.Verdict)
	}
	// Per-hop latency ≈ 1 when uncontended.
	if hl := res.HopLatency.Mean(); hl > 3 {
		t.Errorf("per-hop latency %v", hl)
	}
}

func TestQueueLenAccounting(t *testing.T) {
	m := interference.AllOnes{Links: 2}
	proto := NewMaxWeight(m)
	proto.Inject(0, []inject.Packet{
		{ID: 1, Path: netgraph.Path{0}},
		{ID: 2, Path: netgraph.Path{1}},
	})
	if proto.QueueLen() != 2 {
		t.Fatalf("QueueLen = %d, want 2", proto.QueueLen())
	}
}

func TestSISStableOnIdentity(t *testing.T) {
	g := netgraph.LineNetwork(5, 1)
	m := interference.Identity{Links: g.NumLinks()}
	path, _ := netgraph.ShortestPath(g, 0, 4)
	gens := []inject.Generator{{Choices: []inject.PathChoice{{Path: path, P: 0.4}}}}
	proc, err := inject.NewStochastic(m, gens)
	if err != nil {
		t.Fatal(err)
	}
	proto := NewSIS(g.NumLinks())
	res, err := sim.Run(context.Background(), sim.Config{Slots: 20000, Seed: 146}, m, proc, proto)
	if err != nil {
		t.Fatal(err)
	}
	if res.ProtocolErrors != 0 {
		t.Fatalf("%d protocol errors", res.ProtocolErrors)
	}
	if !res.Verdict.Stable {
		t.Errorf("SIS unstable on 4-hop line at 0.4: %+v", res.Verdict)
	}
	if res.Delivered+res.InFlight != res.Injected {
		t.Fatal("conservation violated")
	}
}

func TestSISServesNewestFirst(t *testing.T) {
	proto := NewSIS(1)
	proto.Inject(0, []inject.Packet{{ID: 1, Path: netgraph.Path{0}, Injected: 0}})
	proto.Inject(5, []inject.Packet{{ID: 2, Path: netgraph.Path{0}, Injected: 5}})
	tx := proto.Slot(6, nil)
	if len(tx) != 1 || tx[0].PacketID != 2 {
		t.Fatalf("SIS picked %v, want the newest packet (ID 2)", tx)
	}
	proto.Feedback(6, tx, []bool{true})
	// The older packet is served next.
	tx = proto.Slot(7, nil)
	if len(tx) != 1 || tx[0].PacketID != 1 {
		t.Fatalf("SIS picked %v after serving the newest, want ID 1", tx)
	}
	proto.Feedback(7, tx, []bool{true})
	if tx = proto.Slot(8, nil); len(tx) != 0 {
		t.Fatalf("SIS transmits %v after draining", tx)
	}
}
