package dynsched

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"dynsched/internal/metrics"
	"dynsched/internal/sim"
)

// TestScenariosBitIdenticalAcrossResolveWorkers runs every registered
// scenario at intra-slot resolution worker counts {1, 2, 4, GOMAXPROCS}
// and requires byte-identical full-Result JSON against the serial run.
// This pins the tentpole contract of the parallel resolvers: worker
// count is an execution knob, never an experiment parameter — each
// link's interference sum keeps its exact serial accumulation order at
// every worker count and every chunking.
func TestScenariosBitIdenticalAcrossResolveWorkers(t *testing.T) {
	const quickSlots = 2000
	counts := []int{2, 4}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 2 && g != 4 {
		counts = append(counts, g)
	}
	for _, s := range Scenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			if s.Network.Links > 4096 {
				t.Skipf("skipping %d-link scale scenario in quick tests", s.Network.Links)
			}
			s.Sim.Slots = quickSlots

			serial := s
			serial.Sim.ResolveParallelism = 1
			want, err := serial.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			wantJSON, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}

			for _, workers := range counts {
				par := s
				par.Sim.ResolveParallelism = workers
				if par.Hash() != serial.Hash() {
					t.Fatalf("ResolveParallelism=%d changed the scenario hash", workers)
				}
				got, err := par.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				gotJSON, err := json.Marshal(got)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotJSON, wantJSON) {
					t.Errorf("workers=%d diverged from serial\nparallel: %s\nserial:   %s",
						workers, gotJSON, wantJSON)
				}
			}
		})
	}
}

// TestResolveWorkersGaugeReportsResolverCount pins that the
// dynsched_sim_resolve_workers gauge reads the worker count the run's
// resolver really uses: a model that never shards reports 1 whatever
// ResolveParallelism asks, while the SINR resolver reports the count it
// was given.
func TestResolveWorkersGaugeReportsResolverCount(t *testing.T) {
	for _, tc := range []struct {
		name             string
		parallel, gauged int
	}{
		{"line-stochastic", 4, 1},
		{"lossy-line", 4, 1},
		{"sinr-stochastic", 2, 2},
	} {
		s, ok := ScenarioByName(tc.name)
		if !ok {
			t.Fatalf("%s not registered", tc.name)
		}
		s.Sim.Slots = 200
		s.Sim.ResolveParallelism = tc.parallel
		c, err := s.Compile()
		if err != nil {
			t.Fatal(err)
		}
		em := sim.NewEngineMetrics(metrics.NewRegistry())
		c.Observers = append(c.Observers, em.NewObserver(0))
		if _, err := c.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := em.ResolveWorkers.Value(); got != float64(tc.gauged) {
			t.Errorf("%s at ResolveParallelism %d: resolve-workers gauge %v, want %d", tc.name, tc.parallel, got, tc.gauged)
		}
	}
}
