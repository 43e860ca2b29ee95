package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"dynsched"
	"dynsched/internal/interference"
)

// spatialScenario is a small generated SINR network on the indexed
// backing: its placement has its own seed, so runs at every workload
// seed share one network.
func spatialScenario(name string, slots, seed int64) dynsched.Scenario {
	return dynsched.NewScenario(name,
		dynsched.WithModel("sinr-uniform"), dynsched.WithLinks(64), dynsched.WithHops(1),
		dynsched.WithGenerator(dynsched.GeneratorSpec{Kind: "uniform", Seed: 7}),
		dynsched.WithBacking("indexed", 0.02),
		dynsched.WithAlgorithm("full-parallel"), dynsched.WithLambda(0.03),
		dynsched.WithSlots(slots), dynsched.WithSeed(seed))
}

// runBaseline executes a single run through the library and returns the
// document a server job stores for it.
func runBaseline(t *testing.T, sc dynsched.Scenario) []byte {
	t.Helper()
	p, err := sc.Plan(1)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := p.Execute(context.Background(), dynsched.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(pr.Run)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// modelCacheCounts reads dynsched_model_cache_total off /metrics.
func modelCacheCounts(t *testing.T, ts *httptest.Server) (hits, misses float64) {
	t.Helper()
	m := scrapeMetrics(t, ts)
	return m[`dynsched_model_cache_total{outcome="hit"}`], m[`dynsched_model_cache_total{outcome="miss"}`]
}

// TestServerModelCacheSharesNetwork runs two single-run jobs and a
// parallel sweep on one network: every document is byte-identical to a
// fresh library execution, the network is built once, and a cached
// resubmission compiles nothing.
func TestServerModelCacheSharesNetwork(t *testing.T) {
	srv, ts := startServer(t, Config{Workers: 2, QueueDepth: 8})

	runA := spatialScenario("run-a", 1_500, 1)
	runB := spatialScenario("run-b", 1_200, 2)
	sweep := spatialScenario("sweep", 1_000, 3)
	sweep.Sim.Parallel = 2
	sweep.Sweep = dynsched.SweepSpec{Axis: "lambda", Values: []float64{0.02, 0.025, 0.03, 0.035}}

	want := map[string][]byte{
		"run-a": runBaseline(t, runA),
		"run-b": runBaseline(t, runB),
		"sweep": planBaseline(t, sweep),
	}
	ids := map[string]string{}
	for _, sc := range []dynsched.Scenario{runA, runB, sweep} {
		status, view := submitScenario(t, ts, sc)
		if status != http.StatusAccepted {
			t.Fatalf("%s: submission status %d", sc.Name, status)
		}
		ids[sc.Name] = view.ID
	}
	for name, id := range ids {
		waitForState(t, ts, id, StateDone)
		j, _ := srv.job(id)
		got := jobResult(t, j)
		if !bytes.Equal(got, want[name]) {
			t.Errorf("%s: document differs from a fresh library execution:\n%s\n%s", name, got, want[name])
		}
	}
	// Three submit-time compiles plus the sweep's units 1–3; the single
	// runs hand their submit-time compilation to the worker.
	hits, misses := modelCacheCounts(t, ts)
	if misses != 1 || hits != 5 {
		t.Fatalf("model cache hit=%v miss=%v, want 5 and 1", hits, misses)
	}

	status, view := submitScenario(t, ts, runA)
	if status != http.StatusOK || !view.Cached {
		t.Fatalf("resubmission: status %d, view %+v", status, view)
	}
	if h, m := modelCacheCounts(t, ts); h != hits || m != misses {
		t.Errorf("a cached resubmission compiled: hit=%v miss=%v", h, m)
	}
}

// TestServerModelCacheBound keeps one network: only a submission on the
// network of the one before it finds it cached.
func TestServerModelCacheBound(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, QueueDepth: 8})
	for i, nodes := range []int{5, 6, 7, 7, 5} {
		sc := lineScenario("bound", 200, int64(i+1))
		sc.Network.Nodes = nodes
		status, view := submitScenario(t, ts, sc)
		if status != http.StatusAccepted {
			t.Fatalf("%d nodes: submission status %d", nodes, status)
		}
		waitForState(t, ts, view.ID, StateDone)
	}
	if hits, misses := modelCacheCounts(t, ts); hits != 1 || misses != 4 {
		t.Fatalf("model cache hit=%v miss=%v, want 1 and 4", hits, misses)
	}
}

// TestServerGridCountersExactOnSharedModel runs an indexed ε > 0 sweep
// whose units overlap on one cached model: the daemon's grid counters
// still equal the sum of the grid work of fresh, separate runs.
func TestServerGridCountersExactOnSharedModel(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, QueueDepth: 8})
	sweep := spatialScenario("grid", 1_500, 4)
	sweep.Sim.Parallel = 2
	sweep.Sweep = dynsched.SweepSpec{Axis: "lambda", Values: []float64{0.02, 0.03, 0.04, 0.05}}

	p, err := sweep.Plan(1)
	if err != nil {
		t.Fatal(err)
	}
	var want interference.ResolveStats
	for _, u := range p.Units {
		c, err := u.Scenario.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		st := c.Model.(interference.ResolveStatsProvider).ResolveStats()
		want.GridRebuilds += st.GridRebuilds
		want.GridDeltaUpdates += st.GridDeltaUpdates
	}
	if want.GridRebuilds == 0 || want.GridDeltaUpdates == 0 {
		t.Fatalf("fresh runs exercised only one grid path: %+v", want)
	}

	status, view := submitScenario(t, ts, sweep)
	if status != http.StatusAccepted {
		t.Fatalf("submission status %d", status)
	}
	waitForState(t, ts, view.ID, StateDone)
	m := scrapeMetrics(t, ts)
	if hits, misses := m[`dynsched_model_cache_total{outcome="hit"}`], m[`dynsched_model_cache_total{outcome="miss"}`]; hits != 3 || misses != 1 {
		t.Fatalf("model cache hit=%v miss=%v, want 3 and 1: the units did not share a model", hits, misses)
	}
	if got := m["dynsched_sim_grid_rebuilds_total"]; got != float64(want.GridRebuilds) {
		t.Errorf("dynsched_sim_grid_rebuilds_total = %v, want %d", got, want.GridRebuilds)
	}
	if got := m["dynsched_sim_grid_delta_updates_total"]; got != float64(want.GridDeltaUpdates) {
		t.Errorf("dynsched_sim_grid_delta_updates_total = %v, want %d", got, want.GridDeltaUpdates)
	}
}

// TestServerCachedSpecRejectsNegativeResolveParallelism pins that a
// cache hit, served without compiling, still rejects a SINR spec with
// a negative resolve worker count, which the hash does not cover.
func TestServerCachedSpecRejectsNegativeResolveParallelism(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, QueueDepth: 8})
	sc := spatialScenario("resolve", 500, 1)
	status, view := submitScenario(t, ts, sc)
	if status != http.StatusAccepted {
		t.Fatalf("submission status %d", status)
	}
	waitForState(t, ts, view.ID, StateDone)

	sc.Sim.ResolveParallelism = 2
	if status, _ := submitScenario(t, ts, sc); status != http.StatusOK {
		t.Fatalf("resubmission with resolveParallelism 2: status %d, want 200", status)
	}
	sc.Sim.ResolveParallelism = -1
	if status, _ := submitScenario(t, ts, sc); status != http.StatusBadRequest {
		t.Fatalf("resubmission with resolveParallelism -1: status %d, want 400", status)
	}
}
