package ctl

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dynsched"
	"dynsched/api"
	"dynsched/internal/server"
)

// startDaemon boots a real in-process dynschedd (server package, no
// import cycle: server never imports ctl) and returns a Client aimed
// at it.
func startDaemon(t *testing.T, cfg server.Config) *Client {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		cancel()
		s.Wait()
	})
	return NewClient(ts.URL)
}

func sweepSubmission(t *testing.T, name string, slots int64, values ...float64) []byte {
	t.Helper()
	sc := dynsched.NewScenario(name,
		dynsched.WithModel("identity"),
		dynsched.WithTopology("line"),
		dynsched.WithNodes(6), dynsched.WithHops(5),
		dynsched.WithLambda(0.4),
		dynsched.WithAlgorithm("full-parallel"),
		dynsched.WithSlots(slots), dynsched.WithSeed(1),
	)
	sc.Sweep = dynsched.SweepSpec{Axis: "lambda", Values: values}
	body, err := json.Marshal(api.SubmitRequest{Scenario: &sc})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func waitDone(t *testing.T, c *Client, id string) api.JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, err := c.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if v.State.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 30s", id, v.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestNewClientNormalizesAddr(t *testing.T) {
	for addr, want := range map[string]string{
		"127.0.0.1:8080":         "http://127.0.0.1:8080",
		"http://localhost:9/":    "http://localhost:9",
		"https://sched.example/": "https://sched.example",
	} {
		if got := NewClient(addr).BaseURL; got != want {
			t.Errorf("NewClient(%q).BaseURL = %q, want %q", addr, got, want)
		}
	}
}

func TestParseMetrics(t *testing.T) {
	doc := `# HELP dynsched_cache_hits_total Cache hits by tier.
# TYPE dynsched_cache_hits_total counter
dynsched_cache_hits_total{tier="memory"} 7
dynsched_cache_hits_total{tier="disk"} 2
dynsched_queue_depth 3
dynsched_plan_unit_seconds_sum 1.5
dynsched_plan_unit_seconds_count 6
`
	m, err := ParseMetrics(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Get(`dynsched_cache_hits_total{tier="memory"}`); got != 7 {
		t.Errorf("Get(memory hits) = %v, want 7", got)
	}
	if got := m.Get("dynsched_absent_series"); got != 0 {
		t.Errorf("Get(absent) = %v, want 0", got)
	}
	if got := m.Family("dynsched_cache_hits_total"); got != 9 {
		t.Errorf("Family(hits) = %v, want 9", got)
	}
	if got := m.Family("dynsched_queue_depth"); got != 3 {
		t.Errorf("Family(unlabelled) = %v, want 3", got)
	}
	mean, ok := m.HistogramMean("dynsched_plan_unit_seconds")
	if !ok || mean != 0.25 {
		t.Errorf("HistogramMean = %v, %v, want 0.25, true", mean, ok)
	}
	if _, ok := m.HistogramMean("dynsched_sim_slot_seconds"); ok {
		t.Error("HistogramMean of an absent histogram should report ok=false")
	}
	if _, err := ParseMetrics(strings.NewReader("garbage-without-value\n")); err == nil {
		t.Error("ParseMetrics accepted a line with no value")
	}
}

// TestWatchStreamsSweepEndToEnd drives the tentpole loop: submit a
// sweep through the client, Watch it to completion, and check the
// rendered stream (unit progress lines, done summary) plus the cached
// resubmission path.
func TestWatchStreamsSweepEndToEnd(t *testing.T) {
	c := startDaemon(t, server.Config{Workers: 2, QueueDepth: 8})
	ctx := context.Background()

	view, cached, err := c.Submit(ctx, sweepSubmission(t, "ctl-watch", 2_000, 0.1, 0.2, 0.3, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first submission reported cached")
	}
	var buf bytes.Buffer
	if err := Watch(ctx, c, &buf, view.ID); err != nil {
		t.Fatalf("Watch: %v\noutput:\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		view.ID + " queued",
		view.ID + " started",
		"4/4 units",
		"unit latency: mean",
		" done in ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("watch output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "[##############################]") {
		t.Errorf("watch output missing a full progress bar:\n%s", out)
	}

	// Identical resubmission: served from cache, Watch still works (the
	// terminal done event is in the replayed stream).
	view2, cached2, err := c.Submit(ctx, sweepSubmission(t, "ctl-watch", 2_000, 0.1, 0.2, 0.3, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	if !cached2 {
		t.Fatal("identical resubmission was not served from cache")
	}
	buf.Reset()
	if err := Watch(ctx, c, &buf, view2.ID); err != nil {
		t.Fatalf("Watch of cached job: %v\noutput:\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "(served from cache)") {
		t.Errorf("cached watch output missing cache marker:\n%s", buf.String())
	}

	if err := Watch(ctx, c, &buf, "no-such-job"); err == nil {
		t.Error("Watch of an unknown job did not error")
	}
}

func TestStatusRendersOverview(t *testing.T) {
	c := startDaemon(t, server.Config{Workers: 2, QueueDepth: 8})
	ctx := context.Background()
	view, _, err := c.Submit(ctx, sweepSubmission(t, "ctl-status", 2_000, 0.1, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c, view.ID)

	var buf bytes.Buffer
	if err := Status(ctx, c, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"dynschedd at " + c.BaseURL,
		"queue    0/8 queued",
		"1 done",
		"cache    ",
		"units    2 run, 0 cached, 0 failed",
		"engine   4000 slots",
		"journal  off (no -journal-dir)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("status output missing %q:\n%s", want, out)
		}
	}
}

func TestDoctorHealthyOnLiveServer(t *testing.T) {
	c := startDaemon(t, server.Config{Workers: 2, QueueDepth: 8})
	ctx := context.Background()
	view, _, err := c.Submit(ctx, sweepSubmission(t, "ctl-doctor", 2_000, 0.1, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, c, view.ID)

	var buf bytes.Buffer
	if code := Doctor(ctx, c, &buf, 0); code != DoctorHealthy {
		t.Fatalf("Doctor = %d, want %d\noutput:\n%s", code, DoctorHealthy, buf.String())
	}
	if !strings.Contains(buf.String(), "doctor: healthy") {
		t.Errorf("doctor output missing healthy verdict:\n%s", buf.String())
	}

	// Unreachable daemon: exit 2.
	dead := NewClient("127.0.0.1:1")
	if code := Doctor(ctx, dead, &buf, 0); code != DoctorUnreachable {
		t.Fatalf("Doctor(unreachable) = %d, want %d", code, DoctorUnreachable)
	}
}

// TestDiagnoseHeuristics exercises every doctor heuristic on synthetic
// inputs — each fires on its trigger and stays quiet otherwise.
func TestDiagnoseHeuristics(t *testing.T) {
	names := func(fs []Finding) map[string]bool {
		m := map[string]bool{}
		for _, f := range fs {
			m[f.Name] = true
		}
		return m
	}
	warns := func(fs []Finding) int {
		n := 0
		for _, f := range fs {
			if f.Warn {
				n++
			}
		}
		return n
	}

	t.Run("healthy", func(t *testing.T) {
		fs := Diagnose(api.Health{OK: true, QueueCapacity: 8, Workers: 2},
			Metrics{"dynsched_cache_hits_total": 10, "dynsched_cache_misses_total": 10}, nil, nil)
		if len(fs) != 0 {
			t.Fatalf("healthy daemon produced findings: %+v", fs)
		}
	})
	t.Run("queue-saturated", func(t *testing.T) {
		fs := Diagnose(api.Health{Queued: 8, QueueCapacity: 8}, Metrics{}, nil, nil)
		if !names(fs)["queue-saturated"] || warns(fs) == 0 {
			t.Fatalf("findings: %+v", fs)
		}
	})
	t.Run("draining", func(t *testing.T) {
		fs := Diagnose(api.Health{Draining: true, QueueCapacity: 8}, Metrics{}, nil, nil)
		if !names(fs)["draining"] {
			t.Fatalf("findings: %+v", fs)
		}
	})
	t.Run("cache-cold", func(t *testing.T) {
		m := Metrics{`dynsched_cache_hits_total{tier="memory"}`: 2, "dynsched_cache_misses_total": 28}
		fs := Diagnose(api.Health{QueueCapacity: 8}, m, nil, nil)
		if !names(fs)["cache-cold"] {
			t.Fatalf("findings: %+v", fs)
		}
		// Below the lookup floor the ratio is not trusted.
		cold := Metrics{"dynsched_cache_misses_total": 10}
		if fs := Diagnose(api.Health{QueueCapacity: 8}, cold, nil, nil); names(fs)["cache-cold"] {
			t.Fatalf("cache-cold fired under %d lookups: %+v", minLookupsForRatio, fs)
		}
	})
	t.Run("cache-thrash", func(t *testing.T) {
		m := Metrics{
			`dynsched_cache_evictions_total{tier="memory"}`: 50,
			`dynsched_cache_hits_total{tier="memory"}`:      40,
			"dynsched_cache_misses_total":                   10,
		}
		fs := Diagnose(api.Health{QueueCapacity: 8}, m, nil, nil)
		if !names(fs)["cache-thrash"] {
			t.Fatalf("findings: %+v", fs)
		}
	})
	t.Run("stuck-job", func(t *testing.T) {
		running := api.JobView{ID: "j1", State: api.StateRunning, UnitsDone: 2, UnitsTotal: 4, Events: 9}
		fs := Diagnose(api.Health{QueueCapacity: 8}, Metrics{},
			[]api.JobView{running}, []api.JobView{running})
		if !names(fs)["stuck-job"] {
			t.Fatalf("findings: %+v", fs)
		}
		moved := running
		moved.Events = 12
		if fs := Diagnose(api.Health{QueueCapacity: 8}, Metrics{},
			[]api.JobView{running}, []api.JobView{moved}); names(fs)["stuck-job"] {
			t.Fatalf("stuck-job fired on a progressing job: %+v", fs)
		}
	})
	t.Run("runner-starved", func(t *testing.T) {
		h := api.Health{QueueCapacity: 8, Fleet: &api.FleetHealth{PendingUnits: 4, Runners: 0, DispatchOnly: true}}
		fs := Diagnose(h, Metrics{}, nil, nil)
		if !names(fs)["runner-starved"] || warns(fs) == 0 {
			t.Fatalf("findings: %+v", fs)
		}
		// With a runner on the roster the parked units are just backlog.
		h.Fleet.Runners = 1
		if fs := Diagnose(h, Metrics{}, nil, nil); names(fs)["runner-starved"] {
			t.Fatalf("runner-starved fired with a live runner: %+v", fs)
		}
		// A server that runs units itself drains its own pending queue:
		// parked units without runners are local backlog, not starvation.
		h.Fleet.Runners, h.Fleet.DispatchOnly = 0, false
		if fs := Diagnose(h, Metrics{}, nil, nil); names(fs)["runner-starved"] {
			t.Fatalf("runner-starved fired on a server with local lessees: %+v", fs)
		}
	})
	t.Run("lease-thrash", func(t *testing.T) {
		h := api.Health{QueueCapacity: 8, Fleet: &api.FleetHealth{
			Runners: 2, LeasedTotal: 20, ReLeased: 5,
		}}
		fs := Diagnose(h, Metrics{}, nil, nil)
		if !names(fs)["lease-thrash"] {
			t.Fatalf("findings: %+v", fs)
		}
		// Below the grant floor one expiry is startup noise, not thrash.
		h.Fleet.LeasedTotal, h.Fleet.ReLeased = 4, 2
		if fs := Diagnose(h, Metrics{}, nil, nil); names(fs)["lease-thrash"] {
			t.Fatalf("lease-thrash fired under %d grants: %+v", minLeasesForRatio, fs)
		}
		// At exactly the 20%% boundary the ratio is tolerated.
		h.Fleet.LeasedTotal, h.Fleet.ReLeased = 20, 4
		if fs := Diagnose(h, Metrics{}, nil, nil); names(fs)["lease-thrash"] {
			t.Fatalf("lease-thrash fired at the boundary ratio: %+v", fs)
		}
	})
	t.Run("straggler", func(t *testing.T) {
		h := api.Health{QueueCapacity: 8, Fleet: &api.FleetHealth{
			Runners: 3, Merged: 30,
			RunnerDetail: []api.RunnerHealth{
				{ID: "fast-1", UnitsPerSec: 4.0},
				{ID: "fast-2", UnitsPerSec: 4.4},
				{ID: "slow", UnitsPerSec: 0.5},
			},
		}}
		fs := Diagnose(h, Metrics{}, nil, nil)
		if !names(fs)["straggler"] {
			t.Fatalf("findings: %+v", fs)
		}
		for _, f := range fs {
			if f.Name == "straggler" && !strings.Contains(f.Detail, "slow") {
				t.Fatalf("straggler finding does not name the slow runner: %q", f.Detail)
			}
		}
		// Too few merges: per-runner rates are not comparable yet.
		h.Fleet.Merged = 3
		if fs := Diagnose(h, Metrics{}, nil, nil); names(fs)["straggler"] {
			t.Fatalf("straggler fired under %d merges: %+v", minMergedForStraggler, fs)
		}
	})
	t.Run("journal-torn-and-recovery", func(t *testing.T) {
		h := api.Health{QueueCapacity: 8, Journal: &api.JournalHealth{
			ReplayTorn: true, CleanShutdown: false, ReplayedRecords: 12, RecoveredJobs: 2,
		}}
		fs := Diagnose(h, Metrics{}, nil, nil)
		got := names(fs)
		if !got["journal-torn"] || !got["unclean-shutdown"] || !got["recovered-jobs"] {
			t.Fatalf("findings: %+v", fs)
		}
		// Recovery flags are notes, not warnings — only the torn tail warns.
		if warns(fs) != 1 {
			t.Fatalf("want exactly 1 warning (journal-torn), got %d: %+v", warns(fs), fs)
		}
	})
}
