package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"dynsched"
)

// budget is a workload's thread budget. Workers × Parallel ×
// ResolveParallelism stays within the core count of a 2-core host, so
// the daemon never oversubscribes the machine it is measured on.
type budget struct {
	Workers            int // dynschedd worker pool (jobs at once)
	Parallel           int // sim.parallel: plan units at once per job
	ResolveParallelism int // sim.resolveParallelism: intra-slot workers
}

func (b budget) threads() int { return b.Workers * b.Parallel * b.ResolveParallelism }

// request is one submission of the closed loop.
type request struct {
	sc   dynsched.Scenario
	reps int // >1 submits a replicate plan
	// spec is the index, among the stream's cold requests, of the first
	// submission of this spec; repeat marks a resubmission of it.
	spec   int
	repeat bool
}

// isPlan reports whether the request submits a multi-unit plan.
func (r request) isPlan() bool {
	return r.reps > 1 || r.sc.Sweep.Axis != "" || len(r.sc.Sweep.Axes) > 0
}

// workload is one traffic mix of the benchmark. A closed loop runs
// whole cycles: coldPerCycle fresh requests, then cachedPerCycle
// identical resubmissions of recent cold specs, so the cache-hit share
// is exactly cachedPerCycle / (coldPerCycle + cachedPerCycle).
type workload struct {
	name   string
	budget budget
	// tail is the fixed tail percentile reported as latency_tail_ms. At
	// 30 s on a 2-core host it has at least minBeyond cold samples
	// beyond it with a 2x margin, so a slower host still qualifies; 0.5
	// where no higher percentile would.
	tail float64
	// window is the number of cold unit completions per rate window.
	window         int
	coldPerCycle   int
	cachedPerCycle int
	// recent bounds how far back a resubmission may reach (1 = the
	// latest cold spec).
	recent int
	fleet  bool
	// warmCycles cycles of a fixed-seed stream form the set-up's warm-up
	// request list, with runs cut to warmSlots slots when positive.
	warmCycles int
	warmSlots  int64
	// layerUnits caps how many units a traced run replays through the
	// injection and interference layers on their own.
	layerUnits int
	// spec draws the i-th cold request of a stream from g.
	spec func(g *rand.Rand, i int) request
}

var workloads = []*workload{
	{
		name:   "interactive",
		budget: budget{Workers: 1, Parallel: 1, ResolveParallelism: 1},
		// p99 has ~40 samples beyond it here, but it reads the host's
		// steal time rather than the daemon: a run with 4.6% steal
		// moved p99 by +40% and p95 by +11%, at +4% on the median.
		tail: 0.95, window: 50,
		coldPerCycle: 3, cachedPerCycle: 1, recent: 32, warmCycles: 8, layerUnits: 64,
		spec: func(g *rand.Rand, i int) request {
			sc := registered(interactiveFamilies[i%len(interactiveFamilies)])
			sc.Sim.Slots = 1000 + g.Int63n(1001)
			sc.Sim.Seed = 1 + g.Int63n(1<<62)
			sc.Sim.Parallel, sc.Sim.ResolveParallelism = 1, 1
			return request{sc: sc}
		},
	},
	{
		name: "sweep",
		// One unit at a time: with two units in parallel on a 2-core
		// host the rate followed the neighbours' load on the second
		// core (spread 0.16-0.26 across runs of the same code).
		budget: budget{Workers: 1, Parallel: 1, ResolveParallelism: 1},
		tail:   0.8, window: 32,
		coldPerCycle: 1, cachedPerCycle: 1, recent: 1, warmCycles: 2, layerUnits: 64,
		spec: func(g *rand.Rand, i int) request {
			grid := sweepGrids[i%len(sweepGrids)]
			sc := registered(grid.name)
			sc.Sim.Slots = grid.slots
			sc.Sim.Seed = 1 + g.Int63n(1<<62)
			sc.Sim.Parallel, sc.Sim.ResolveParallelism = 1, 1
			sc.Sweep = dynsched.SweepSpec{Axes: grid.axes}
			return request{sc: sc}
		},
	},
	{
		name:   "spatial",
		budget: budget{Workers: 1, Parallel: 1, ResolveParallelism: 2},
		tail:   0.5, window: 1,
		coldPerCycle: 1, cachedPerCycle: 1, recent: 1, warmCycles: 1, warmSlots: 64, layerUnits: 6,
		spec: func(g *rand.Rand, i int) request {
			return request{sc: spatialScenario(300, 1+g.Int63n(1<<62))}
		},
	},
	{
		name:   "fleet",
		budget: budget{Workers: 1, Parallel: 1, ResolveParallelism: 1},
		tail:   0.8, window: 64,
		coldPerCycle: 1, cachedPerCycle: 1, recent: 1, warmCycles: 1, fleet: true, layerUnits: 64,
		spec: func(g *rand.Rand, i int) request {
			sc := registered("line-stochastic")
			sc.Sim.Slots = 2000
			sc.Sim.Seed = 1 + g.Int63n(1<<62)
			sc.Sim.Parallel, sc.Sim.ResolveParallelism = 1, 1
			return request{sc: sc, reps: 64}
		},
	},
}

var interactiveFamilies = []string{"line-stochastic", "mac-adversarial", "sinr-stochastic", "powercontrol-stochastic"}

// sweepGrids are the sweep workload's plans, alternating. λ climbs to
// just below where the frame length stops converging; the top values
// queue up within the horizon and cost more than the bottom ones.
var sweepGrids = []struct {
	name  string
	slots int64
	axes  []dynsched.SweepAxis
}{
	{"sinr-stochastic", 3000, []dynsched.SweepAxis{
		{Axis: "lambda", Values: []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08}},
		{Axis: "eps", Values: []float64{0.1, 0.2, 0.3, 0.4}},
	}},
	{"powercontrol-stochastic", 2500, []dynsched.SweepAxis{
		{Axis: "lambda", Values: []float64{0.005, 0.01, 0.015, 0.02, 0.025, 0.0275, 0.03, 0.0325}},
		{Axis: "eps", Values: []float64{0.05, 0.1, 0.15, 0.2}},
	}},
}

// procs is the GOMAXPROCS of set-up and the timed phase: the thread
// budget, plus one for the fleet coordinator (a machine of its own in
// a real fleet), at most the host's cores. The client, the HTTP
// handlers and the GC then share the budget's cores instead of
// spreading over the others, where they measured the neighbours' load:
// a busy loop on the second core of a 2-core host slowed sweep by 15%
// at GOMAXPROCS=2 and by 1.5% at 1. Fleet's runner and coordinator
// sharing one core ran in two speed modes, 190 and 250 ms a plan.
func (w *workload) procs() int {
	n := w.budget.threads()
	if w.fleet {
		n++
	}
	return min(n, runtime.NumCPU())
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func registered(name string) dynsched.Scenario {
	sc, ok := dynsched.ScenarioByName(name)
	if !ok {
		panic("scenario " + name + " is not registered")
	}
	return sc
}

// spatialScenario is a 16384-link uniform network under uniform-power
// SINR on the indexed backing with far-field floor ε=0.02, scheduled by
// full-parallel at λ=0.04. The network is fixed, so runs differ in
// their traffic, not their geometry. Under full-parallel the frame is
// 16 slots, so the kernel works from the first frame on: about a third
// of the slots transmit, at over 300 transmissions each, and the
// transmitter sets of consecutive retry slots overlap enough for the
// incremental grid to take delta updates.
func spatialScenario(slots, seed int64) dynsched.Scenario {
	return dynsched.Scenario{
		Name: "bench-spatial-16k",
		Network: dynsched.NetworkSpec{
			Topology:  "generator",
			Links:     16384,
			Hops:      1,
			Generator: &dynsched.GeneratorSpec{Kind: "uniform", Seed: 42},
		},
		Model:    dynsched.ModelSpec{Kind: "sinr-uniform", Backing: "indexed", FarFloor: 0.02},
		Traffic:  dynsched.TrafficSpec{Pattern: "stochastic", Lambda: 0.04},
		Protocol: dynsched.ProtocolSpec{Alg: "full-parallel", Eps: 0.25},
		Sim:      dynsched.SimSpec{Slots: slots, Seed: seed, WarmupFrac: 0.1, Parallel: 1, ResolveParallelism: 2},
	}
}

// stream produces a workload's request sequence: whole cycles of cold
// requests followed by resubmissions. The i-th request depends only on
// the seed, never on timing. A stream keeps only the cold requests a
// resubmission can still reach, and the gate regenerates the rest from
// the seed (coldRequests): a record of every request would grow the
// heap that heap_peak_mb measures with the client's own throughput,
// by about 8 MB over 18 s of interactive.
type stream struct {
	w      *workload
	g      *rand.Rand
	cold   int       // cold requests issued so far
	recent []request // the last w.recent of them, oldest first
}

func newStream(w *workload, seed int64) *stream {
	return &stream{w: w, g: rand.New(rand.NewSource(seed))}
}

// cycle returns the next cycle's requests. Cold requests are numbered
// in the order they are issued, from 0.
func (s *stream) cycle() []request {
	out := make([]request, 0, s.w.coldPerCycle+s.w.cachedPerCycle)
	for i := 0; i < s.w.coldPerCycle; i++ {
		r := s.w.spec(s.g, s.cold)
		r.spec = s.cold
		s.cold++
		if len(s.recent) == s.w.recent {
			s.recent = append(s.recent[:0], s.recent[1:]...)
		}
		s.recent = append(s.recent, r)
		out = append(out, r)
	}
	for i := 0; i < s.w.cachedPerCycle; i++ {
		r := s.recent[len(s.recent)-1-s.g.Intn(len(s.recent))]
		r.repeat = true
		out = append(out, r)
	}
	return out
}

// coldRequests regenerates the first n cold requests of the stream
// seeded with seed.
func coldRequests(w *workload, seed int64, n int) []request {
	s := newStream(w, seed)
	out := make([]request, 0, n)
	for len(out) < n {
		for _, r := range s.cycle() {
			if !r.repeat && len(out) < n {
				out = append(out, r)
			}
		}
	}
	return out
}
