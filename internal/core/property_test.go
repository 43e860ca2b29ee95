package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"dynsched/internal/inject"
	"dynsched/internal/interference"
	"dynsched/internal/netgraph"
	"dynsched/internal/sim"
	"dynsched/internal/static"
	"dynsched/internal/stats"
)

// TestConservationProperty: for random small workloads, the protocol
// never loses or duplicates packets, never produces protocol errors,
// and its internal queue accounting matches the simulator's.
func TestConservationProperty(t *testing.T) {
	f := func(seed int64, hopsRaw, lambdaRaw uint8) bool {
		hops := 1 + int(hopsRaw%5)
		lambda := 0.1 + float64(lambdaRaw%5)*0.1 // 0.1 .. 0.5
		g := netgraph.LineNetwork(hops+1, 1)
		model := interference.Identity{Links: g.NumLinks()}
		path, ok := netgraph.ShortestPath(g, 0, netgraph.NodeID(hops))
		if !ok {
			return false
		}
		proc, err := inject.StochasticAtRate(model, []inject.Generator{
			{Choices: []inject.PathChoice{{Path: path, P: 0.5}}},
		}, lambda)
		if err != nil {
			return false
		}
		proto, err := New(Config{
			Model: model, Alg: static.FullParallel{}, M: g.NumLinks(),
			Lambda: lambda, Eps: 0.25, Seed: seed,
		})
		if err != nil {
			return false
		}
		res, err := sim.Run(context.Background(), sim.Config{Slots: 4000, Seed: seed}, model, proc, proto)
		if err != nil {
			return false
		}
		if res.ProtocolErrors != 0 {
			t.Logf("seed %d: %d protocol errors", seed, res.ProtocolErrors)
			return false
		}
		if res.Delivered+res.InFlight != res.Injected {
			t.Logf("seed %d: conservation %d+%d != %d", seed, res.Delivered, res.InFlight, res.Injected)
			return false
		}
		if int64(proto.QueueLen()) != res.InFlight {
			t.Logf("seed %d: protocol holds %d, simulator says %d in flight",
				seed, proto.QueueLen(), res.InFlight)
			return false
		}
		if proto.FailedQueueLen() > proto.QueueLen() {
			t.Logf("seed %d: failed buffer exceeds total queue", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPotentialGeometricDecay samples the paper's potential Φ once per
// frame under a lossy channel and checks the Lemma 7 shape: the
// distribution's tail decays fast (p99 within a small multiple of the
// mean, no runaway mass).
func TestPotentialGeometricDecay(t *testing.T) {
	const hops = 4
	g := netgraph.LineNetwork(hops+1, 1)
	base := interference.Identity{Links: g.NumLinks()}
	lossRng := rand.New(rand.NewSource(201))
	model := &interference.Lossy{Inner: base, P: 0.03, Rand: lossRng.Float64}
	path, _ := netgraph.ShortestPath(g, 0, hops)
	proc, err := inject.StochasticAtRate(model, []inject.Generator{
		{Choices: []inject.PathChoice{{Path: path, P: 0.5}}},
	}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := New(Config{
		Model: model, Alg: static.FullParallel{}, M: g.NumLinks(),
		Lambda: 0.3, Eps: 0.25, Seed: 202,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Drive the simulation manually so Φ can be sampled per frame.
	T := int64(proto.Sizing().T)
	rng := rand.New(rand.NewSource(203))
	var samples []float64
	var id int64
	resolve, _ := model.NewResolver(1)
	for tSlot := int64(0); tSlot < 3000*T/10; tSlot++ {
		pkts := proc.Step(tSlot, rng)
		for i := range pkts {
			id++
			pkts[i].ID = id
		}
		if len(pkts) > 0 {
			proto.Inject(tSlot, pkts)
		}
		tx := proto.Slot(tSlot, rng)
		links := make([]int, len(tx))
		for i, w := range tx {
			links[i] = w.Link
		}
		proto.Feedback(tSlot, tx, resolve(links))
		if tSlot%T == T-1 {
			samples = append(samples, float64(proto.Potential()))
		}
	}
	if proto.Failures == 0 {
		t.Fatal("no failures; the potential was never exercised")
	}
	mean := stats.Mean(samples)
	p99 := stats.Quantile(samples, 0.99)
	maxV := stats.Max(samples)
	// A geometric-tailed Φ has p99 ≈ mean·ln(100)/ln(1/(1-q)) — bounded
	// by a modest multiple. A drifting Φ would have max ≫ p99 ≫ mean.
	if p99 > 40*(mean+1) {
		t.Errorf("Φ p99 = %v with mean %v — tail too heavy for Lemma 7", p99, mean)
	}
	if maxV > 100*(mean+1) {
		t.Errorf("Φ max = %v with mean %v — potential drifting upward", maxV, mean)
	}
}

// TestFrameAccountingAcrossRates: the solved frame always fits its two
// phases and J grows monotonically with λ.
func TestFrameAccountingAcrossRates(t *testing.T) {
	model := interference.Identity{Links: 8}
	prevJ := 0
	for _, lambda := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		proto, err := New(Config{
			Model: model, Alg: static.FullParallel{}, M: 8,
			Lambda: lambda, Eps: 0.25,
		})
		if err != nil {
			t.Fatalf("λ=%v: %v", lambda, err)
		}
		s := proto.Sizing()
		if s.MainBudget+s.CleanupBudget > s.T {
			t.Fatalf("λ=%v: phases overflow frame", lambda)
		}
		if s.J < prevJ {
			t.Errorf("J decreased from %d to %d at λ=%v", prevJ, s.J, lambda)
		}
		prevJ = s.J
	}
}

// TestDeterministicUnderSeed: identical seeds must give identical runs.
func TestDeterministicUnderSeed(t *testing.T) {
	run := func() (int64, int64, int64) {
		g := netgraph.LineNetwork(5, 1)
		model := interference.Identity{Links: g.NumLinks()}
		path, _ := netgraph.ShortestPath(g, 0, 4)
		proc, err := inject.StochasticAtRate(model, []inject.Generator{
			{Choices: []inject.PathChoice{{Path: path, P: 0.5}}},
		}, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		proto, err := New(Config{
			Model: model, Alg: static.FullParallel{}, M: g.NumLinks(),
			Lambda: 0.4, Eps: 0.25, Seed: 77,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(context.Background(), sim.Config{Slots: 6000, Seed: 78}, model, proc, proto)
		if err != nil {
			t.Fatal(err)
		}
		return res.Injected, res.Delivered, res.SuccessfulTx
	}
	i1, d1, s1 := run()
	i2, d2, s2 := run()
	if i1 != i2 || d1 != d2 || s1 != s2 {
		t.Fatalf("same-seed runs diverged: (%d,%d,%d) vs (%d,%d,%d)", i1, d1, s1, i2, d2, s2)
	}
}

// TestLyapunovDriftNegative reproduces the heart of the Theorem 3 proof
// empirically: the potential Φ (remaining hops of failed packets) has
// negative conditional drift whenever it is positive (Lemmas 4–7). A
// lossy channel feeds a steady failure stream; the drift estimator
// buckets per-frame Φ samples and checks each positive bucket.
func TestLyapunovDriftNegative(t *testing.T) {
	const hops = 4
	g := netgraph.LineNetwork(hops+1, 1)
	base := interference.Identity{Links: g.NumLinks()}
	lossRng := rand.New(rand.NewSource(211))
	model := &interference.Lossy{Inner: base, P: 0.03, Rand: lossRng.Float64}
	path, _ := netgraph.ShortestPath(g, 0, hops)
	proc, err := inject.StochasticAtRate(model, []inject.Generator{
		{Choices: []inject.PathChoice{{Path: path, P: 0.5}}},
	}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := New(Config{
		Model: model, Alg: static.FullParallel{}, M: g.NumLinks(),
		Lambda: 0.3, Eps: 0.25, Seed: 212,
	})
	if err != nil {
		t.Fatal(err)
	}
	T := int64(proto.Sizing().T)
	rng := rand.New(rand.NewSource(213))
	drift := stats.NewDriftEstimator(0, 2, 5, 10)
	var id int64
	resolve, _ := model.NewResolver(1)
	for tSlot := int64(0); tSlot < 60000*T/18; tSlot++ {
		pkts := proc.Step(tSlot, rng)
		for i := range pkts {
			id++
			pkts[i].ID = id
		}
		if len(pkts) > 0 {
			proto.Inject(tSlot, pkts)
		}
		tx := proto.Slot(tSlot, rng)
		links := make([]int, len(tx))
		for i, w := range tx {
			links[i] = w.Link
		}
		proto.Feedback(tSlot, tx, resolve(links))
		if tSlot%T == T-1 {
			drift.Observe(float64(proto.Potential()))
		}
	}
	if proto.Failures < 20 {
		t.Fatalf("only %d failures; drift estimate unsupported", proto.Failures)
	}
	if !drift.NegativeAboveZero(25) {
		t.Errorf("positive drift detected above Φ=0: %s", drift.String())
	}
}
