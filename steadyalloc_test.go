package dynsched

import (
	"context"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"dynsched/internal/metrics"
	"dynsched/internal/sim"
	"dynsched/internal/testenv"
)

// simulateAllocs runs the quick-start workload for the given horizon
// and returns the total heap allocations the run performed (GC off,
// single goroutine, so the Mallocs delta is exact). Observers are
// attached to the run but constructed by the caller, outside the
// measured window.
func simulateAllocs(t *testing.T, slots int64, obs ...SimObserver) uint64 {
	t.Helper()
	g := LineNetwork(8, 1)
	model := Identity{Links: g.NumLinks()}
	path, _ := ShortestPath(g, 0, 7)
	proc, err := StochasticAtRate(model, []Generator{
		{Choices: []PathChoice{{Path: path, P: 0.4}}},
	}, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := NewProtocol(ProtocolConfig{
		Model: model, Alg: FullParallel{}, M: g.NumLinks(), Lambda: 0.4, Eps: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := SimulateContext(context.Background(), SimConfig{Slots: slots, Seed: 9}, model, proc, proto, obs...)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.ProtocolErrors != 0 {
		t.Fatalf("protocol errors: %d", res.ProtocolErrors)
	}
	return after.Mallocs - before.Mallocs
}

// TestDynamicProtocolSteadyStateAllocs pins the zero-allocation packet
// lifecycle end to end, construction excluded: comparing a short and a
// long run of the same workload isolates the per-slot allocation rate
// from the fixed start-up and warm-up costs that the
// BenchmarkDynamicProtocolSlot baseline necessarily amortizes. In
// steady state the engine (arena), the injection process, and the
// protocol (free list, recycled executions, emission record) must
// allocate nothing per slot. This workload injects on a single route,
// so it cannot see a per-route cost; TestManyRoutesAllocs covers that.
func TestDynamicProtocolSteadyStateAllocs(t *testing.T) {
	testenv.SkipIfRace(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const short, long = 4_000, 24_000
	shortAllocs := simulateAllocs(t, short)
	longAllocs := simulateAllocs(t, long)
	extra := int64(longAllocs) - int64(shortAllocs)
	perSlot := float64(extra) / float64(long-short)
	// The tolerance absorbs rare amortized growth (a buffer crossing its
	// high-water mark late); a single per-slot or per-packet allocation
	// would show up as ≥ 0.4.
	if perSlot > 0.02 {
		t.Errorf("steady state allocates %.4f objects/slot (%d extra allocs over %d slots), want ~0",
			perSlot, extra, long-short)
	}
}

// TestDynamicProtocolSteadyStateAllocsTraced is the same guard with the
// metrics tracing observer attached: instrumentation must not cost the
// hot loop its zero-allocation property. The observer accumulates into
// plain int64 fields per slot and flushes to the shared counters once,
// at OnDone; the sampled resolve-time histogram observes via binary
// search into preallocated buckets.
func TestDynamicProtocolSteadyStateAllocsTraced(t *testing.T) {
	testenv.SkipIfRace(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	em := sim.NewEngineMetrics(metrics.NewRegistry())
	const short, long = 4_000, 24_000
	shortAllocs := simulateAllocs(t, short, em.NewObserver(0))
	longAllocs := simulateAllocs(t, long, em.NewObserver(0))
	extra := int64(longAllocs) - int64(shortAllocs)
	perSlot := float64(extra) / float64(long-short)
	if perSlot > 0.02 {
		t.Errorf("traced steady state allocates %.4f objects/slot (%d extra allocs over %d slots), want ~0",
			perSlot, extra, long-short)
	}
}

// TestManyRoutesAllocs guards the per-route cost the single-route
// guards above cannot see: 4096 generators, each on its own two-hop
// route over 256 links, inject about ten packets per route through the
// dynamic protocol. (The identity model reads routes as link sequences;
// they need not chain in a graph.) The engine and the protocol keep
// each packet's path as the process's own slice, so a run's
// allocations follow its buffers' high-water marks, not the number of
// distinct routes: a copy or a per-route table entry in either layer
// costs at least one allocation per route, far above the bound. The
// processes' paths must also come out of a run, and of a checkpoint
// resume, unwritten.
func TestManyRoutesAllocs(t *testing.T) {
	testenv.SkipIfRace(t)
	const links, routes, slots = 256, 4096, 1280
	model := Identity{Links: links}
	gens := make([]Generator, routes)
	want := make([]Path, routes)
	for i := range gens {
		a := i % links
		b := (a + 1 + i/links) % links
		gens[i] = Generator{Choices: []PathChoice{{Path: Path{LinkID(a), LinkID(b)}, P: 1}}}
		want[i] = Path{LinkID(a), LinkID(b)}
	}
	build := func() (*Stochastic, *Protocol) {
		proc, err := StochasticAtRate(model, gens, 0.25)
		if err != nil {
			t.Fatal(err)
		}
		proto, err := NewProtocol(ProtocolConfig{
			Model: model, Alg: FullParallel{}, M: links, D: 2, Lambda: 0.25, Eps: 0.25,
		})
		if err != nil {
			t.Fatal(err)
		}
		return proc, proto
	}
	checkPaths := func(when string) {
		t.Helper()
		for i, g := range gens {
			if !slices.Equal(g.Choices[0].Path, want[i]) {
				t.Fatalf("%s: generator %d's path is %v, want %v", when, i, g.Choices[0].Path, want[i])
			}
		}
	}

	proc, proto := build()
	func() {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Simulate(SimConfig{Slots: slots, Seed: 5}, model, proc, proto)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.ProtocolErrors != 0 {
			t.Fatalf("protocol errors: %d", res.ProtocolErrors)
		}
		if res.Injected < 8*routes {
			t.Fatalf("only %d packets injected, want ≥ %d to cover every route", res.Injected, 8*routes)
		}
		allocs := int64(after.Mallocs - before.Mallocs)
		if allocs*8 > res.Injected {
			t.Errorf("run over %d routes made %d allocations for %d injected packets, want < %d",
				routes, allocs, res.Injected, res.Injected/8)
		}
		t.Logf("%d allocations, %d injected", allocs, res.Injected)
	}()
	checkPaths("after a run")

	var cp *Checkpoint
	proc, proto = build()
	cfg := SimConfig{Slots: slots, Seed: 5, Checkpoint: &CheckpointSpec{
		Every: slots / 2, Sink: func(c *Checkpoint) error { cp = c; return nil },
	}}
	if _, err := Simulate(cfg, model, proc, proto); err != nil {
		t.Fatal(err)
	}
	if cp == nil || len(cp.Packets) == 0 {
		t.Fatal("no checkpoint with packets in flight was captured")
	}
	proc, proto = build()
	cfg = SimConfig{Slots: slots, Seed: 5, Checkpoint: &CheckpointSpec{Resume: cp}}
	if _, err := Simulate(cfg, model, proc, proto); err != nil {
		t.Fatal(err)
	}
	checkPaths("after a checkpoint resume")
}

// TestWarmSpatialUnitAllocs guards the per-unit allocation count of a
// warm perfbench spatial unit (BenchmarkSpatialUnit16k's shape: 16384
// links, 300 slots, about 33k packets over 32768 single-hop routes) on
// a cached model: compiling the process and protocol on the cached
// network and running it must allocate under 1000 objects, so no cost
// of the unit scales with the link count or the packet count. The
// static algorithms' per-frame request bookkeeping is the known risk:
// a slice per link per frame is about 16k allocations.
func TestWarmSpatialUnitAllocs(t *testing.T) {
	testenv.SkipIfRace(t)
	sc := spatial16k()
	sc.Sim.WarmupFrac, sc.Sim.Parallel, sc.Sim.ResolveParallelism = 0.1, 1, 2
	mc := NewModelCache()
	if _, err := mc.Compile(sc); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2, func() {
		sc.Sim.Seed++
		cs, err := mc.Compile(sc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cs.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 1000 {
		t.Errorf("warm spatial unit allocates %.0f objects, want < 1000", allocs)
	}
	t.Logf("%.0f allocs per warm unit", allocs)
}

// TestSpatialRunNoRewalks: on perfbench spatial's workload at seed 1
// (α = 3, ε = 0.02) the certified far-cell tail decides every indexed
// verdict, so the run re-walks no receiver with exact powers. The run
// reports through the tracing observer, which folds the resolver's
// accounting into the shared counters the way it folds grid rebuilds.
func TestSpatialRunNoRewalks(t *testing.T) {
	cs, err := spatial16k().Compile()
	if err != nil {
		t.Fatal(err)
	}
	em := sim.NewEngineMetrics(metrics.NewRegistry())
	cs.Observers = append(cs.Observers, em.NewObserver(0))
	if _, err := cs.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := em.GridRebuilds.Value() + em.GridDeltaUpdates.Value(); got == 0 {
		t.Fatal("the run folded no grid work into the shared counters")
	}
	if got := em.Rewalks.Value(); got != 0 {
		t.Errorf("seed-1 spatial run re-walked %d verdicts, want 0", got)
	}
}
