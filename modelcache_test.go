package dynsched

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// cacheScenario is a small SINR workload whose model is a pointer, so
// sharing is observable as pointer identity.
func cacheScenario(name string, seed int64) Scenario {
	return NewScenario(name,
		WithModel("sinr-uniform"), WithLinks(64), WithHops(1),
		WithGenerator(GeneratorSpec{Kind: "uniform", Seed: 7}),
		WithBacking("indexed", 0.02),
		WithLambda(0.02), WithSlots(600), WithSeed(seed))
}

func runJSON(t *testing.T, c *CompiledScenario) string {
	t.Helper()
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(doc)
}

func TestScenarioCompileBuildsFreshModels(t *testing.T) {
	sc := cacheScenario("fresh", 1)
	a, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if a.Model == b.Model {
		t.Fatal("two Scenario.Compile calls returned the same model")
	}
}

func TestModelCacheSharesNetworkAcrossRuns(t *testing.T) {
	mc := NewModelCache()
	var models []Model
	for seed := int64(1); seed <= 3; seed++ {
		sc := cacheScenario("shared", seed)
		sc.Model.Loss = 0.05 * float64(seed-1) // loss wraps per run
		got, err := mc.Compile(sc)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := sc.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if g, w := runJSON(t, got), runJSON(t, fresh); g != w {
			t.Fatalf("seed %d: cached compile's result differs from a fresh compile's:\n%s\n%s", seed, g, w)
		}
		models = append(models, got.Model)
	}
	if models[0] == models[1] || models[1] == models[2] {
		t.Error("lossy runs share their loss wrapper")
	}
	if hits, misses := mc.Stats(); hits != 2 || misses != 1 {
		t.Errorf("stats hits=%d misses=%d, want 2 and 1", hits, misses)
	}
	a, _ := mc.Compile(cacheScenario("a", 4))
	b, _ := mc.Compile(cacheScenario("b", 5))
	if a.Model != b.Model {
		t.Error("loss-free runs on one network got distinct models")
	}
	if a.Protocol == b.Protocol || a.Process == b.Process {
		t.Error("runs share per-run components")
	}
}

// TestModelCacheBoundAndFailures keeps one network, and never a failed
// build.
func TestModelCacheBoundAndFailures(t *testing.T) {
	mc := NewModelCache()
	compile := func(links int) {
		t.Helper()
		if _, err := mc.Compile(NewScenario("n", WithModel("sinr-linear"), WithLinks(links), WithLambda(0.02))); err != nil {
			t.Fatal(err)
		}
	}
	for _, links := range []int{16, 24, 32, 32, 16} {
		compile(links)
	}
	// Only the repeated 32-link network was still cached.
	if hits, misses := mc.Stats(); hits != 1 || misses != 4 {
		t.Errorf("stats hits=%d misses=%d, want 1 and 4", hits, misses)
	}

	// A failed build is not cached: it fails again, built again.
	bad := NewScenario("bad", WithTopology("klein-bottle"))
	for i := 0; i < 2; i++ {
		if _, err := mc.Compile(bad); err == nil || !strings.Contains(err.Error(), "klein-bottle") {
			t.Fatalf("unknown topology: %v", err)
		}
	}
	if hits, misses := mc.Stats(); hits != 1 || misses != 6 {
		t.Errorf("stats hits=%d misses=%d after two failed builds, want 1 and 6", hits, misses)
	}
}

// TestModelCacheConcurrentCompiles builds one network once however many
// callers ask for it at the same time.
func TestModelCacheConcurrentCompiles(t *testing.T) {
	mc := NewModelCache()
	const n = 8
	models := make([]Model, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := mc.Compile(cacheScenario("race", int64(i+1)))
			if err != nil {
				t.Error(err)
				return
			}
			models[i] = c.Model
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if models[i] != models[0] {
			t.Fatalf("caller %d got a different model", i)
		}
	}
	if hits, misses := mc.Stats(); hits != n-1 || misses != 1 {
		t.Errorf("stats hits=%d misses=%d, want %d and 1", hits, misses, n-1)
	}
}

// TestExecuteCompilesThroughModels runs a plan's units on
// ExecOptions.Models: the document matches fresh compiles, the units
// share one network, and a unit that fails after the network is built
// reports its error without building the network again.
func TestExecuteCompilesThroughModels(t *testing.T) {
	execute := func(values []float64, mc *ModelCache) (string, error) {
		t.Helper()
		sc := cacheScenario("plan", 1)
		sc.Sweep = SweepSpec{Axis: "lambda", Values: values}
		p, err := sc.Plan(1)
		if err != nil {
			t.Fatal(err)
		}
		pr, err := p.Execute(context.Background(), ExecOptions{Models: mc, Parallel: 1})
		doc, _ := json.Marshal(pr)
		return string(doc), err
	}
	mc := NewModelCache()
	got, err := execute([]float64{0.02, 0.03}, mc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := execute([]float64{0.02, 0.03}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("plan on a model cache differs from fresh compiles:\n%s\n%s", got, want)
	}
	if hits, misses := mc.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats hits=%d misses=%d, want 1 and 1", hits, misses)
	}

	// λ = 50 builds the network and then fails assembling the protocol.
	if _, err := execute([]float64{0.02, 50}, mc); err == nil || !strings.Contains(err.Error(), "diverges") {
		t.Fatalf("diverging unit: %v", err)
	}
	if hits, misses := mc.Stats(); hits != 3 || misses != 1 {
		t.Errorf("stats hits=%d misses=%d after the failing plan, want 3 and 1", hits, misses)
	}
}
