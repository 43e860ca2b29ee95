package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dynsched"
)

// benchServiceFloor models a fixed-capacity worker: every unit costs at
// least this much wall time on its runner, so sweep throughput is bound
// by fleet capacity (runners × parallel) rather than by the host's
// cores. That is the quantity this benchmark measures — coordinator
// dispatch and lease-protocol throughput as runners are added — and it
// is what makes the scaling curve meaningful on a single-core CI box.
const benchServiceFloor = 10 * time.Millisecond

// BenchmarkFleetSweep drives a 64-unit no-cache sweep through a
// dispatch-only coordinator with 1, 2 and 4 single-slot runners
// attached. With the per-unit service floor dominating unit cost, ideal
// scaling is linear in runner count; the acceptance floor is ≥3.2× at
// 4 runners over 1.
func BenchmarkFleetSweep(b *testing.B) {
	lambdas := make([]float64, 64)
	for i := range lambdas {
		lambdas[i] = 0.05 + 0.005*float64(i)
	}

	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			srv, err := New(Config{Workers: 2, QueueDepth: 8, FleetLocal: -1, LeaseExpiry: 30 * time.Second})
			if err != nil {
				b.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			srv.Start(ctx)
			// Defers run LIFO: close the listener, then cancel, then wait
			// for the workers the cancellation releases.
			defer srv.Wait()
			defer cancel()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			for i := 0; i < workers; i++ {
				r := NewRunner(RunnerConfig{
					Coordinator: ts.URL,
					ID:          fmt.Sprintf("bench-%d", i),
					Parallel:    1,
					LeaseWait:   200 * time.Millisecond,
				})
				r.serviceFloor = benchServiceFloor
				go r.Run(ctx)
			}

			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				id := benchSubmitSweep(b, ts, fmt.Sprintf("fleet-bench-%d-%d", workers, n), lambdas)
				benchWaitDone(b, ts, id)
			}
			b.StopTimer()
			units := float64(64 * b.N)
			b.ReportMetric(units/b.Elapsed().Seconds(), "units/s")
		})
	}
}

func benchSubmitSweep(b *testing.B, ts *httptest.Server, name string, lambdas []float64) string {
	b.Helper()
	// Few slots: the unit's simulation cost must stay negligible against
	// the service floor, or a single-core host serializes on compute and
	// the scaling curve measures the CPU, not the fleet.
	sc := lineScenario(name, 100, 7)
	sc.Sweep = dynsched.SweepSpec{Axis: "lambda", Values: lambdas}
	doc, err := json.Marshal(sc)
	if err != nil {
		b.Fatal(err)
	}
	body := fmt.Sprintf(`{"scenario":%s,"noCache":true}`, doc)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		b.Fatalf("submit: %s", resp.Status)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		b.Fatal(err)
	}
	return view.ID
}

func benchWaitDone(b *testing.B, ts *httptest.Server, id string) {
	b.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			b.Fatal(err)
		}
		var view JobView
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		switch view.State {
		case StateDone:
			return
		case StateFailed:
			b.Fatalf("benchmark job failed: %s", view.Error)
		}
		if time.Now().After(deadline) {
			b.Fatalf("job %s did not finish (state %s)", id, view.State)
		}
		time.Sleep(time.Millisecond)
	}
}
