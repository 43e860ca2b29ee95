package core

import (
	"context"
	"math/rand"
	"testing"

	"dynsched/internal/inject"
	"dynsched/internal/interference"
	"dynsched/internal/mac"
	"dynsched/internal/netgraph"
	"dynsched/internal/sim"
	"dynsched/internal/static"
)

// lineSetup builds an n-node identity-model line network with k-hop
// left-to-right paths injected at rate lambda.
func lineSetup(t *testing.T, nodes, hops int, lambda float64) (interference.Model, inject.Process, int) {
	t.Helper()
	g := netgraph.LineNetwork(nodes, 1)
	m := interference.Identity{Links: g.NumLinks()}
	path, ok := netgraph.ShortestPath(g, 0, netgraph.NodeID(hops))
	if !ok {
		t.Fatal("line path missing")
	}
	// Split the load across four generators so super-critical rates
	// remain expressible (a single generator caps at one packet/slot).
	gens := make([]inject.Generator, 4)
	for i := range gens {
		gens[i] = inject.Generator{Choices: []inject.PathChoice{{Path: path, P: 0.25}}}
	}
	proc, err := inject.StochasticAtRate(m, gens, lambda)
	if err != nil {
		t.Fatal(err)
	}
	inst := netgraph.NewInstance(g, hops)
	return m, proc, inst.M()
}

func TestSolveFrameLength(t *testing.T) {
	// FullParallel has f(m) = 1: any λ < 1/(1+ε) admits a frame.
	tLen, err := SolveFrameLength(static.FullParallel{}, 8, 8, 0.5, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if tLen < 8 {
		t.Errorf("frame length %d suspiciously small", tLen)
	}
	// λ beyond the algorithm's throughput must diverge.
	if _, err := SolveFrameLength(static.FullParallel{}, 8, 8, 1.2, 0.25); err == nil {
		t.Error("impossible rate accepted")
	}
}

func TestNewValidation(t *testing.T) {
	m := interference.Identity{Links: 4}
	if _, err := New(Config{Alg: static.FullParallel{}, M: 4, Lambda: 0.5}); err == nil {
		t.Error("missing model accepted")
	}
	if _, err := New(Config{Model: m, M: 4, Lambda: 0.5}); err == nil {
		t.Error("missing algorithm accepted")
	}
	if _, err := New(Config{Model: m, Alg: static.FullParallel{}, M: 0, Lambda: 0.5}); err == nil {
		t.Error("zero M accepted")
	}
	// An explicit frame too small for its phases must be rejected.
	if _, err := New(Config{Model: m, Alg: static.FullParallel{}, M: 4, Lambda: 0.5, T: 2}); err == nil {
		t.Error("tiny frame accepted")
	}
}

func TestStableOnIdentityLine(t *testing.T) {
	model, proc, m := lineSetup(t, 6, 5, 0.5)
	proto, err := New(Config{Model: model, Alg: static.FullParallel{}, M: m, Lambda: 0.5, Eps: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(context.Background(), sim.Config{Slots: 40000, Seed: 131}, model, proc, proto)
	if err != nil {
		t.Fatal(err)
	}
	if res.ProtocolErrors != 0 {
		t.Fatalf("%d protocol errors", res.ProtocolErrors)
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if !res.Verdict.Stable {
		t.Errorf("unstable at safe rate: %+v", res.Verdict)
	}
	// Conservation.
	if res.Delivered+res.InFlight != res.Injected {
		t.Fatalf("conservation: %d + %d != %d", res.Delivered, res.InFlight, res.Injected)
	}
	// Throughput should approach the injection thanks to stability.
	if res.Delivered < res.Injected*8/10 {
		t.Errorf("delivered only %d of %d", res.Delivered, res.Injected)
	}
}

func TestLatencyLinearInFrames(t *testing.T) {
	// Theorem 8: expected latency O(d·T). Check a d-hop packet's mean
	// latency stays within a small multiple of d·T.
	model, proc, m := lineSetup(t, 9, 8, 0.4)
	proto, err := New(Config{Model: model, Alg: static.FullParallel{}, M: m, Lambda: 0.4, Eps: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(context.Background(), sim.Config{Slots: 60000, Seed: 132, WarmupFrac: 0.2}, model, proc, proto)
	if err != nil {
		t.Fatal(err)
	}
	T := float64(proto.Sizing().T)
	d := 8.0
	mean := res.Latency.Mean()
	if mean > 4*d*T {
		t.Errorf("mean latency %v exceeds 4·d·T = %v", mean, 4*d*T)
	}
	if mean < T {
		t.Errorf("mean latency %v below one frame %v — too good to be true", mean, T)
	}
}

func TestStableOnMACWithRRW(t *testing.T) {
	m := interference.AllOnes{Links: 6}
	gens := make([]inject.Generator, 6)
	for i := range gens {
		gens[i] = inject.Generator{Choices: []inject.PathChoice{
			{Path: netgraph.Path{netgraph.LinkID(i)}, P: 1},
		}}
	}
	proc, err := inject.StochasticAtRate(m, gens, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := New(Config{Model: m, Alg: mac.RoundRobinWithholding{}, M: 6, Lambda: 0.6, Eps: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(context.Background(), sim.Config{Slots: 50000, Seed: 133}, m, proc, proto)
	if err != nil {
		t.Fatal(err)
	}
	if res.ProtocolErrors != 0 {
		t.Fatalf("%d protocol errors", res.ProtocolErrors)
	}
	if !res.Verdict.Stable {
		t.Errorf("RRW dynamic protocol unstable at λ=0.6: %+v", res.Verdict)
	}
	if res.Delivered < res.Injected*7/10 {
		t.Errorf("delivered %d of %d", res.Delivered, res.Injected)
	}
}

func TestOverloadIsUnstable(t *testing.T) {
	// Drive the same protocol far beyond capacity and expect growth.
	model, proc, m := lineSetup(t, 4, 3, 1.6)
	// Provision the protocol for λ = 0.5 but inject 1.6.
	proto, err := New(Config{Model: model, Alg: static.FullParallel{}, M: m, Lambda: 0.5, Eps: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(context.Background(), sim.Config{Slots: 30000, Seed: 134}, model, proc, proto)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict.Stable {
		t.Errorf("3× overload judged stable: %+v", res.Verdict)
	}
}

func TestCleanupRecoversLostPackets(t *testing.T) {
	// A lossy channel makes main-phase transmissions fail occasionally;
	// the clean-up phase must deliver those packets eventually.
	base, proc, m := lineSetup(t, 5, 4, 0.3)
	rng := rand.New(rand.NewSource(135))
	model := &interference.Lossy{Inner: base, P: 0.02, Rand: rng.Float64}
	proto, err := New(Config{Model: model, Alg: static.FullParallel{}, M: m, Lambda: 0.3, Eps: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(context.Background(), sim.Config{Slots: 120000, Seed: 136}, model, proc, proto)
	if err != nil {
		t.Fatal(err)
	}
	if proto.Failures == 0 {
		t.Fatal("lossy channel produced no failures — test ineffective")
	}
	if proto.CleanupDelivered == 0 {
		t.Fatal("clean-up phase never delivered anything")
	}
	// Most packets should still get through.
	if res.Delivered < res.Injected*6/10 {
		t.Errorf("delivered only %d of %d with failures=%d cleanup=%d",
			res.Delivered, res.Injected, proto.Failures, proto.CleanupDelivered)
	}
}

func TestDisableCleanupStrandsFailedPackets(t *testing.T) {
	base, proc, m := lineSetup(t, 5, 4, 0.3)
	rng := rand.New(rand.NewSource(137))
	model := &interference.Lossy{Inner: base, P: 0.02, Rand: rng.Float64}
	proto, err := New(Config{
		Model: model, Alg: static.FullParallel{}, M: m,
		Lambda: 0.3, Eps: 0.25, DisableCleanup: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(context.Background(), sim.Config{Slots: 60000, Seed: 138}, model, proc, proto); err != nil {
		t.Fatal(err)
	}
	if proto.Failures == 0 {
		t.Skip("no failures occurred; nothing to strand")
	}
	if proto.CleanupDelivered != 0 {
		t.Fatal("cleanup disabled but packets were cleaned up")
	}
	if proto.FailedQueueLen() == 0 {
		t.Error("failed packets vanished without a clean-up phase")
	}
}

func TestAdversarialWrapperStable(t *testing.T) {
	g := netgraph.LineNetwork(5, 1)
	model := interference.Identity{Links: g.NumLinks()}
	path, _ := netgraph.ShortestPath(g, 0, 4)
	const w = 32
	adv, err := inject.NewPattern(model, []netgraph.Path{path}, w, 0.4, inject.TimingBurst)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := New(Config{
		Model: model, Alg: static.FullParallel{}, M: 8,
		Lambda: 0.4, Eps: 0.25, Window: w, D: 4, DelayMax: 8, Seed: 139,
	})
	if err != nil {
		t.Fatal(err)
	}
	if proto.Sizing().DelayMax != 8 {
		t.Fatalf("DelayMax = %d, want 8", proto.Sizing().DelayMax)
	}
	res, err := sim.Run(context.Background(), sim.Config{Slots: 60000, Seed: 140}, model, adv, proto)
	if err != nil {
		t.Fatal(err)
	}
	if res.ProtocolErrors != 0 {
		t.Fatalf("%d protocol errors", res.ProtocolErrors)
	}
	if !res.Verdict.Stable {
		t.Errorf("adversarial run unstable: %+v", res.Verdict)
	}
	if res.Delivered < res.Injected*7/10 {
		t.Errorf("delivered %d of %d", res.Delivered, res.Injected)
	}
}

func TestDelayMaxDerivedFromPaper(t *testing.T) {
	m := interference.Identity{Links: 4}
	proto, err := New(Config{
		Model: m, Alg: static.FullParallel{}, M: 4,
		Lambda: 0.4, Eps: 0.5, Window: 10, D: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// δmax = ⌈2(D+w)/ε⌉ = ⌈2·14/0.5⌉ = 56.
	if got := proto.Sizing().DelayMax; got != 56 {
		t.Errorf("DelayMax = %d, want 56", got)
	}
	// DisableDelays suppresses it.
	noDelay, err := New(Config{
		Model: m, Alg: static.FullParallel{}, M: 4,
		Lambda: 0.4, Eps: 0.5, Window: 10, D: 4, DisableDelays: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if noDelay.Sizing().DelayMax != 0 {
		t.Errorf("DisableDelays left DelayMax = %d", noDelay.Sizing().DelayMax)
	}
}

func TestSizingInvariants(t *testing.T) {
	model, _, m := lineSetup(t, 6, 5, 0.5)
	proto, err := New(Config{Model: model, Alg: static.FullParallel{}, M: m, Lambda: 0.5, Eps: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	s := proto.Sizing()
	if s.MainBudget+s.CleanupBudget > s.T {
		t.Fatalf("phases %d+%d exceed frame %d", s.MainBudget, s.CleanupBudget, s.T)
	}
	if s.J < 1 {
		t.Fatalf("J = %d", s.J)
	}
}

func TestDynamicWithMeasureBoundedAlgorithms(t *testing.T) {
	// End-to-end with Decay and Spread, which take the distributed
	// measure-bound path A(J, mJ) / A(1, mJ) inside the protocol.
	model, proc, m := lineSetup(t, 5, 4, 0.01)
	for _, alg := range []static.Algorithm{static.Decay{}, static.Spread{}} {
		proto, err := New(Config{Model: model, Alg: alg, M: m, Lambda: 0.01, Eps: 0.25, Seed: 162})
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		res, err := sim.Run(context.Background(), sim.Config{Slots: 60 * int64(proto.Sizing().T), Seed: 163}, model, proc, proto)
		if err != nil {
			t.Fatal(err)
		}
		if res.ProtocolErrors != 0 {
			t.Fatalf("%s: %d protocol errors", alg.Name(), res.ProtocolErrors)
		}
		if !res.Verdict.Stable {
			t.Errorf("%s: unstable at λ=0.01: %+v", alg.Name(), res.Verdict)
		}
		if res.Delivered < res.Injected*6/10 {
			t.Errorf("%s: delivered %d of %d", alg.Name(), res.Delivered, res.Injected)
		}
	}
}
