package dynsched

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"dynsched/internal/experiments"
	"dynsched/internal/interference"
	"dynsched/internal/journal"
	"dynsched/internal/metrics"
	"dynsched/internal/netgraph"
	"dynsched/internal/sim"
	"dynsched/internal/sinr"
	"dynsched/internal/static"
)

// ---- One benchmark per paper experiment (see experiments.All) ----
//
// Each bench runs the corresponding experiment at Quick scale; the
// cmd/experiments binary reproduces the full-scale tables
// (-scale full). Benchmarks double as end-to-end regression checks: any error
// fails the bench.

func benchExperiment(b *testing.B, id string) {
	r, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := r.Run(context.Background(), experiments.Quick, int64(i)+1)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatalf("%s: empty table", id)
		}
	}
}

func BenchmarkE1Densify(b *testing.B)       { benchExperiment(b, "E1") }
func BenchmarkE2Stability(b *testing.B)     { benchExperiment(b, "E2") }
func BenchmarkE3Latency(b *testing.B)       { benchExperiment(b, "E3") }
func BenchmarkE4Adversarial(b *testing.B)   { benchExperiment(b, "E4") }
func BenchmarkE5LinearPower(b *testing.B)   { benchExperiment(b, "E5") }
func BenchmarkE6UniformPower(b *testing.B)  { benchExperiment(b, "E6") }
func BenchmarkE7MAC(b *testing.B)           { benchExperiment(b, "E7") }
func BenchmarkE8ConflictGraph(b *testing.B) { benchExperiment(b, "E8") }
func BenchmarkE9LowerBound(b *testing.B)    { benchExperiment(b, "E9") }
func BenchmarkE10Ablation(b *testing.B)     { benchExperiment(b, "E10") }
func BenchmarkE11PowerControl(b *testing.B) { benchExperiment(b, "E11") }
func BenchmarkE12Radio(b *testing.B)        { benchExperiment(b, "E12") }
func BenchmarkE13Metrics(b *testing.B)      { benchExperiment(b, "E13") }
func BenchmarkE14Baselines(b *testing.B)    { benchExperiment(b, "E14") }

// ---- Micro-benchmarks for the hot paths ----

func benchSINRModel(b *testing.B, n int) *sinr.FixedPower {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	g := netgraph.RandomPairs(rng, n, 100, 1, 4)
	prm := sinr.DefaultParams()
	powers, err := sinr.Powers(g, prm, sinr.PowerLinear, 1)
	if err != nil {
		b.Fatal(err)
	}
	m, err := sinr.NewFixedPower(g, prm, powers, sinr.WeightAffectance)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkMeasure64Links(b *testing.B) {
	m := benchSINRModel(b, 64)
	r := make([]int, 64)
	for i := range r {
		r[i] = i % 5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		interference.Measure(m, r)
	}
}

// weightOnlyModel hides a model's RowsProvider fast path, forcing the
// generic O(E²) Weight-call evaluation — the pre-sparse baseline the
// CSR path is measured against.
type weightOnlyModel struct{ m interference.Model }

func (w weightOnlyModel) Name() string             { return w.m.Name() + "-dense" }
func (w weightOnlyModel) NumLinks() int            { return w.m.NumLinks() }
func (w weightOnlyModel) Weight(e, e2 int) float64 { return w.m.Weight(e, e2) }
func (w weightOnlyModel) NewResolver(workers int) (func(tx []int) []bool, func() interference.ResolveStats) {
	return w.m.NewResolver(workers)
}

func BenchmarkMeasure64LinksDense(b *testing.B) {
	m := weightOnlyModel{benchSINRModel(b, 64)}
	r := make([]int, 64)
	for i := range r {
		r[i] = i % 5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		interference.Measure(m, r)
	}
}

// BenchmarkIncrementalMeasure64 slides a 64-request window one request
// at a time — the adversary checker's access pattern. Each step is one
// Remove, one Add, and one Measure read, O(nnz(column)) apiece, versus
// a full ‖W·R‖∞ recomputation per step for the dense baseline.
func BenchmarkIncrementalMeasure64(b *testing.B) {
	m := benchSINRModel(b, 64)
	im := interference.NewIncremental(m)
	for e := 0; e < 64; e++ {
		im.Add(e)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := i % 64
		im.Remove(e)
		im.Add(e)
		if im.Measure() <= 0 {
			b.Fatal("measure vanished")
		}
	}
}

// BenchmarkSINRSuccesses16Tx measures steady-state slot resolution —
// the path sim.Run drives through the model's resolver: a reusable
// resolver summing precomputed cross gains, zero allocations per slot.
func BenchmarkSINRSuccesses16Tx(b *testing.B) {
	m := benchSINRModel(b, 64)
	resolve, _ := m.NewResolver(0)
	tx := make([]int, 16)
	for i := range tx {
		tx[i] = i * 4
	}
	resolve(tx) // warm the resolver buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resolve(tx)
	}
}

func BenchmarkAffectanceMatrixBuild64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := netgraph.RandomPairs(rng, 64, 100, 1, 4)
	prm := sinr.DefaultParams()
	powers, err := sinr.Powers(g, prm, sinr.PowerLinear, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sinr.NewFixedPower(g, prm, powers, sinr.WeightAffectance); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStaticDecay(b *testing.B) {
	m := benchSINRModel(b, 32)
	reqs := make([]static.Request, 0, 32*8)
	for k := 0; k < 8; k++ {
		for e := 0; e < 32; e++ {
			reqs = append(reqs, static.Request{Link: e, Tag: int64(k*32 + e)})
		}
	}
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := static.Run(rng, m, static.Decay{}, reqs, 0)
		if !res.AllServed() {
			b.Fatal("decay failed")
		}
	}
}

func BenchmarkStaticSpread(b *testing.B) {
	m := benchSINRModel(b, 32)
	reqs := make([]static.Request, 0, 32*8)
	for k := 0; k < 8; k++ {
		for e := 0; e < 32; e++ {
			reqs = append(reqs, static.Request{Link: e, Tag: int64(k*32 + e)})
		}
	}
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := static.Run(rng, m, static.Spread{}, reqs, 0)
		if !res.AllServed() {
			b.Fatal("spread failed")
		}
	}
}

func BenchmarkPowerControlSolve8(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := netgraph.RandomPairs(rng, 32, 200, 1, 3)
	pc, err := sinr.NewPowerControl(g, sinr.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	set := []int{0, 4, 8, 12, 16, 20, 24, 28}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc.SolvePowers(set)
	}
}

// benchWarmReset resets the benchmark clock and allocation counters
// once the engine has executed the warm-up slots, so the measured
// window covers only the steady state: engine setup and cold-start
// buffer growth are excluded. Without it, small fixed iteration counts
// (-benchtime 100x, the committed-baseline convention) amortise the
// setup allocations over too few slots and report a spurious nonzero
// allocs/op on a zero-alloc steady-state path.
type benchWarmReset struct {
	BaseObserver
	b    *testing.B
	warm int64
}

func (o *benchWarmReset) OnSlot(t int64, v SlotView) {
	if t == o.warm {
		o.b.ResetTimer()
	}
}

func BenchmarkDynamicProtocolSlot(b *testing.B) {
	g := netgraph.LineNetwork(8, 1)
	model := interference.Identity{Links: g.NumLinks()}
	path, _ := netgraph.ShortestPath(g, 0, 7)
	proc, err := StochasticAtRate(model, []Generator{
		{Choices: []PathChoice{{Path: path, P: 0.4}}},
	}, 0.4)
	if err != nil {
		b.Fatal(err)
	}
	proto, err := NewProtocol(ProtocolConfig{
		Model: model, Alg: FullParallel{}, M: g.NumLinks(), Lambda: 0.4, Eps: 0.25,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	res, err := SimulateContext(context.Background(), SimConfig{Slots: int64(b.N) + 64, Seed: 9},
		model, proc, proto, &benchWarmReset{b: b, warm: 63})
	if err != nil {
		b.Fatal(err)
	}
	if res.ProtocolErrors != 0 {
		b.Fatal("protocol errors")
	}
}

// BenchmarkDynamicProtocolSlotTraced is the same workload with the
// metrics tracing observer attached (sampled resolve-time histogram
// included) — the measured cost of leaving instrumentation on in
// production. Compare against BenchmarkDynamicProtocolSlot for the
// per-slot overhead; PERFORMANCE.md records the delta.
func BenchmarkDynamicProtocolSlotTraced(b *testing.B) {
	g := netgraph.LineNetwork(8, 1)
	model := interference.Identity{Links: g.NumLinks()}
	path, _ := netgraph.ShortestPath(g, 0, 7)
	proc, err := StochasticAtRate(model, []Generator{
		{Choices: []PathChoice{{Path: path, P: 0.4}}},
	}, 0.4)
	if err != nil {
		b.Fatal(err)
	}
	proto, err := NewProtocol(ProtocolConfig{
		Model: model, Alg: FullParallel{}, M: g.NumLinks(), Lambda: 0.4, Eps: 0.25,
	})
	if err != nil {
		b.Fatal(err)
	}
	em := sim.NewEngineMetrics(metrics.NewRegistry())
	b.ResetTimer()
	res, err := SimulateContext(context.Background(), SimConfig{Slots: int64(b.N) + 64, Seed: 9},
		model, proc, proto, em.NewObserver(0), &benchWarmReset{b: b, warm: 63})
	if err != nil {
		b.Fatal(err)
	}
	if res.ProtocolErrors != 0 {
		b.Fatal("protocol errors")
	}
}

// BenchmarkPlanSweep64 pushes a 64-unit sweep plan through the
// execution planner's worker pool: per-unit decomposition, hashing,
// compilation and 64 short line simulations. It is the planner-layer
// throughput guard — a scheduling or per-unit-overhead regression
// shows up here before it shows up in wall-clock sweeps.
func BenchmarkPlanSweep64(b *testing.B) {
	sc := NewScenario("bench-plan-sweep",
		WithModel("identity"), WithTopology("line"), WithNodes(6), WithHops(5),
		WithAlgorithm("full-parallel"), WithSlots(500), WithSeed(1))
	values := make([]float64, 64)
	for i := range values {
		values[i] = 0.1 + 0.005*float64(i)
	}
	sc.Sweep = SweepSpec{Axis: "lambda", Values: values}
	p, err := sc.Plan(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr, err := p.Execute(context.Background(), ExecOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if pr.UnitsDone != 64 {
			b.Fatalf("plan completed %d of 64 units", pr.UnitsDone)
		}
	}
}

// BenchmarkCompileIndexed4k is the paired control for the model cache:
// compiling the 4096-link indexed sinr-grid-4k scenario at a new seed
// per iteration, fresh (Scenario.Compile builds graph, model and the
// floor-sparse analysis matrix every time) against cached (a warm
// ModelCache reuses the network; the process and protocol are still
// built per call).
func BenchmarkCompileIndexed4k(b *testing.B) {
	sc, ok := ScenarioByName("sinr-grid-4k")
	if !ok {
		b.Fatal("sinr-grid-4k not registered")
	}
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sc.Sim.Seed = int64(i) + 1
			if _, err := sc.Compile(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		mc := NewModelCache()
		if _, err := mc.Compile(sc); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sc.Sim.Seed = int64(i) + 1
			if _, err := mc.Compile(sc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkE15SpatialScale(b *testing.B) { benchExperiment(b, "E15") }

// ---- Stochastic injection ----
//
// Step's signature predates the sampler, so the same two benches run on
// any revision and pair the sampler against its predecessor directly.

// benchStochasticStep times InjectionProcess.Step alone, one slot per
// iteration, on the engine RNG's source. Slot numbers keep counting
// across b.N rounds so every round sees the process's steady state.
func benchStochasticStep(b *testing.B, proc InjectionProcess) {
	rng := rand.New(rand.NewSource(1))
	packets := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packets += len(proc.Step(int64(i), rng))
	}
	b.ReportMetric(float64(packets)/float64(b.N), "packets/slot")
}

// BenchmarkStochasticStep16k is perfbench spatial's injection: the
// 16384-link uniform network under indexed uniform-power SINR at
// λ=0.04, whose 32768 single-hop generators inject about 111 packets a
// slot. The compile sits outside the timer.
func BenchmarkStochasticStep16k(b *testing.B) {
	benchStochasticStep(b, compileSpatial16k(b).Process)
}

// spatial16k is perfbench spatial's scenario at seed 1, without its
// run options (warm-up, parallelism).
func spatial16k() Scenario {
	return Scenario{
		Name: "bench-stochastic-16k",
		Network: NetworkSpec{Topology: "generator", Links: 16384, Hops: 1,
			Generator: &GeneratorSpec{Kind: "uniform", Seed: 42}},
		Model:    ModelSpec{Kind: "sinr-uniform", Backing: "indexed", FarFloor: 0.02},
		Traffic:  TrafficSpec{Pattern: "stochastic", Lambda: 0.04},
		Protocol: ProtocolSpec{Alg: "full-parallel", Eps: 0.25},
		Sim:      SimSpec{Slots: 300, Seed: 1},
	}
}

// compileSpatial16k compiles perfbench spatial's scenario.
func compileSpatial16k(b *testing.B) *CompiledScenario {
	b.Helper()
	cs, err := spatial16k().Compile()
	if err != nil {
		b.Fatal(err)
	}
	return cs
}

// BenchmarkSpatialUnit16k is one perfbench spatial plan unit as the
// daemon runs it: a ModelCache compile (process and protocol; the
// network and model are built once, outside the timer) and the 300-slot
// run, at a new traffic seed per op, with spatial's run options. It
// carries the per-packet costs of the engine and the dynamic protocol
// over the 32768 single-hop routes; allocs/op counts them.
func BenchmarkSpatialUnit16k(b *testing.B) {
	sc := spatial16k()
	sc.Sim.WarmupFrac, sc.Sim.Parallel, sc.Sim.ResolveParallelism = 0.1, 1, 2
	mc := NewModelCache()
	if _, err := mc.Compile(sc); err != nil {
		b.Fatal(err)
	}
	injected := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Sim.Seed = int64(i) + 1
		cs, err := mc.Compile(sc)
		if err != nil {
			b.Fatal(err)
		}
		res, err := cs.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		injected += res.Injected
	}
	b.ReportMetric(float64(injected)/float64(b.N), "packets/op")
}

// BenchmarkSlotResolveSpatial16k is perfbench spatial's active slots:
// the first frame of a seed-1 run of its scenario that transmits at all
// (five slots, about 1700, 180, 60, 40 and 40 transmissions: 400 per
// active slot on average), re-resolved in order by one serial resolver
// on the 16384-link uniform network's indexed backing (ε=0.02). One op
// is the frame. The run that captures it sits outside the timer.
// successes/frame is the verdict count, equal on any revision that
// keeps the resolver's results.
func BenchmarkSlotResolveSpatial16k(b *testing.B) {
	cs := compileSpatial16k(b)
	capture := &frameCapture{}
	cs.Observers = append(cs.Observers, capture)
	if _, err := cs.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
	if len(capture.slots) == 0 {
		b.Fatal("no slot transmitted")
	}
	resolve, _ := cs.Model.NewResolver(1)
	tx := 0
	for _, slot := range capture.slots {
		resolve(slot) // warm the resolver's scratch and grid
		tx += len(slot)
	}
	b.ReportAllocs()
	b.ResetTimer()
	successes := 0
	for i := 0; i < b.N; i++ {
		for _, slot := range capture.slots {
			for _, ok := range resolve(slot) {
				if ok {
					successes++
				}
			}
		}
	}
	b.ReportMetric(float64(tx)/float64(len(capture.slots)), "tx/slot")
	b.ReportMetric(float64(successes)/float64(b.N), "successes/frame")
}

// frameCapture keeps the transmitting links of each slot of the first
// run of consecutive transmitting slots.
type frameCapture struct {
	BaseObserver
	slots [][]int
	done  bool
}

func (c *frameCapture) OnSlot(_ int64, v SlotView) {
	if c.done {
		return
	}
	if len(v.Tx) == 0 {
		c.done = len(c.slots) > 0
		return
	}
	links := make([]int, len(v.Tx))
	for i, t := range v.Tx {
		links[i] = t.Link
	}
	c.slots = append(c.slots, links)
}

// BenchmarkStochasticStepLine is line-stochastic's injection: two
// generators on one 5-hop path at λ=0.4, the case where a per-slot
// constant, not the generator count, dominates.
func BenchmarkStochasticStepLine(b *testing.B) {
	sc, ok := ScenarioByName("line-stochastic")
	if !ok {
		b.Fatal("line-stochastic not registered")
	}
	cs, err := sc.Compile()
	if err != nil {
		b.Fatal(err)
	}
	benchStochasticStep(b, cs.Process)
}

// ---- Scale benchmarks: the spatially-indexed SINR backing ----
//
// BenchmarkSlotResolve100k is part of the committed-baseline smoke set;
// BenchmarkSlotResolve1M is the headline scale target (one million
// links, 8192 concurrent transmissions per slot) and is regenerated
// with the baseline but tolerated as missing in CI smoke runs (see
// cmd/bench -allow-missing).

func benchIndexedModel(b *testing.B, n int) *sinr.FixedPower {
	b.Helper()
	rng := rand.New(rand.NewSource(5))
	g := netgraph.RandomPairs(rng, n, 10*math.Sqrt(float64(n)), 1, 4)
	prm := sinr.DefaultParams()
	powers, err := sinr.Powers(g, prm, sinr.PowerUniform, 1)
	if err != nil {
		b.Fatal(err)
	}
	prm.Noise = sinr.MaxNoise(g, prm, powers, 0.5)
	m, err := sinr.NewFixedPowerOpts(g, prm, powers, sinr.WeightMonotone,
		sinr.Options{Backing: sinr.BackIndexed, FarFloor: 0.05})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func benchSlotResolve(b *testing.B, n, k, workers int) {
	m := benchIndexedModel(b, n)
	rng := rand.New(rand.NewSource(6))
	tx := rng.Perm(n)[:k]
	resolve, _ := m.NewResolver(workers)
	resolve(tx) // warm the per-resolver scratch buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resolve(tx)
	}
}

// The serial benches pin workers at 1 so their ns/op baselines are
// meaningful on any machine; the parallel variant pins the intra-slot
// fan-out at 4 workers — the ≥3× scaling target on 4+ cores, measured
// against BenchmarkSlotResolve1M.
func BenchmarkSlotResolve100k(b *testing.B)       { benchSlotResolve(b, 100_000, 4096, 1) }
func BenchmarkSlotResolve1M(b *testing.B)         { benchSlotResolve(b, 1_000_000, 8192, 1) }
func BenchmarkSlotResolve1MParallel(b *testing.B) { benchSlotResolve(b, 1_000_000, 8192, 4) }

// BenchmarkSlotResolveDelta100k alternates between two transmission
// sets sharing most of their members — the cross-slot shape the
// incremental grid update serves in O(|delta|) instead of an O(k)
// rebuild. The bench fails if the delta path never engages, so it
// doubles as a regression guard on the TryUpdate precondition.
func BenchmarkSlotResolveDelta100k(b *testing.B) {
	const n, k, overlap = 100_000, 4096, 256
	m := benchIndexedModel(b, n)
	rng := rand.New(rand.NewSource(7))
	base := rng.Perm(n)[:k+overlap]
	txA, txB := base[:k], base[overlap:]
	resolve, _ := m.NewResolver(1)
	resolve(txA) // warm scratch and seed the grid selection
	resolve(txB)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			resolve(txA)
		} else {
			resolve(txB)
		}
	}
	b.StopTimer()
	if st := m.ResolveStats(); st.GridDeltaUpdates == 0 {
		b.Fatalf("incremental grid path never engaged: %+v", st)
	}
}

// ---- Durability benchmarks: journal appends and engine checkpoints ----

// BenchmarkJournalAppend is the journal's hot path: framing, CRC, and
// write of one unsynced ~100-byte record — the shape of a per-unit
// completion entry, the only record type dynschedd journals at volume.
// Synced records (submit/finish/shutdown) add an fsync on top, which
// dominates; PERFORMANCE.md reports both.
func BenchmarkJournalAppend(b *testing.B) {
	jn, err := journal.Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer jn.Close()
	payload := []byte(`{"op":"unit","id":"job-42","index":17,` +
		`"hash":"ec86773c3efd4f5a2251f53890609cec841a5ee96849b1e4735df7c681dda513"}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := jn.Append(payload, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpoint100k is the checkpoint-overhead guard: one op is
// a 100k-slot line simulation capturing a full engine checkpoint
// (RNG draw counts, in-flight packets, process/protocol/model state,
// observer sketches) every 10k slots into a discard sink. Compare
// against the same run with Checkpoint nil to price a single capture;
// PERFORMANCE.md records the measured delta.
func BenchmarkCheckpoint100k(b *testing.B) {
	sc := NewScenario("bench-checkpoint",
		WithModel("identity"), WithTopology("line"), WithNodes(6), WithHops(5),
		WithAlgorithm("full-parallel"), WithLambda(0.3), WithSlots(100_000), WithSeed(1))
	spec := &CheckpointSpec{Every: 10_000, Sink: func(*Checkpoint) error { return nil }}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := sc.Compile()
		if err != nil {
			b.Fatal(err)
		}
		c.Config.Checkpoint = spec
		if _, err := c.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}
