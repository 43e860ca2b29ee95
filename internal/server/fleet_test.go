package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dynsched"
	"dynsched/api"
	"dynsched/internal/ctl"
)

// startRunner boots an in-process fleet runner against the coordinator
// at ts, stopped with the test.
func startRunner(t *testing.T, ts *httptest.Server, cfg RunnerConfig) *Runner {
	t.Helper()
	cfg.Coordinator = ts.URL
	if cfg.LeaseWait == 0 {
		cfg.LeaseWait = 100 * time.Millisecond
	}
	r := NewRunner(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = r.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("runner did not stop")
		}
	})
	return r
}

func getHealth(t *testing.T, ts *httptest.Server) api.Health {
	t.Helper()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h api.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

func fleetHealth(t *testing.T, ts *httptest.Server) *api.FleetHealth {
	t.Helper()
	return getHealth(t, ts).Fleet
}

// postLease is a raw lease round-trip, used to play a scripted (or
// zombie) runner without the Runner machinery.
func postLease(t *testing.T, ts *httptest.Server, runner string, want int, waitMs int64) api.LeaseResponse {
	t.Helper()
	body, _ := json.Marshal(api.LeaseRequest{Runner: runner, Want: want, WaitMs: waitMs})
	resp, err := http.Post(ts.URL+"/v1/fleet/lease", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lease: %s", resp.Status)
	}
	var lr api.LeaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	return lr
}

// TestFleetEndToEndByteIdentity is the fleet acceptance test: the same
// sweep run on a single-node server and on a dispatch-only coordinator
// with two attached runners produces bit-identical PlanResult
// documents, every unit merging through the fleet.
func TestFleetEndToEndByteIdentity(t *testing.T) {
	sc := sweepScenario("fleet-e2e", 2_000, 0.1, 0.2, 0.3, 0.35, 0.4, 0.45)

	// Reference: a plain local server.
	_, plain := startServer(t, Config{Workers: 2, QueueDepth: 8})
	_, refJob := submitScenario(t, plain, sc)
	ref := waitForState(t, plain, refJob.ID, StateDone)

	// Fleet: a dispatch-only coordinator — every unit must complete on
	// a runner — with two workers attached.
	_, coord := startServer(t, Config{Workers: 2, QueueDepth: 8, FleetLocal: -1, LeaseExpiry: 10 * time.Second})
	startRunner(t, coord, RunnerConfig{ID: "r1", Parallel: 2})
	startRunner(t, coord, RunnerConfig{ID: "r2", Parallel: 2})

	_, job := submitScenario(t, coord, sc)
	view := waitForState(t, coord, job.ID, StateDone)

	if string(view.Result) != string(ref.Result) {
		t.Fatalf("fleet-merged PlanResult is not byte-identical to the single-node run:\nfleet: %.200s\nlocal: %.200s", view.Result, ref.Result)
	}
	if view.UnitsDone != 6 || view.UnitsCached != 0 {
		t.Fatalf("fleet run counters: %d done / %d cached, want 6/0", view.UnitsDone, view.UnitsCached)
	}
	f := fleetHealth(t, coord)
	if f == nil {
		t.Fatal("no fleet section on /healthz after a fleet run")
	}
	if f.Runners != 2 {
		t.Errorf("fleet roster %d runners, want 2", f.Runners)
	}
	if f.Merged != 6 {
		t.Errorf("fleet merged %d reports, want 6", f.Merged)
	}
	if f.Leased != 0 || f.PendingUnits != 0 {
		t.Errorf("lease table not empty after the run: %d leased, %d pending", f.Leased, f.PendingUnits)
	}
}

// TestFleetResubmittedSweepLeasesOnlyNewUnits: the coordinator's
// per-unit lookup is the only guard against re-simulating a stored
// unit, so a sweep resubmitted with one extra value leases exactly that
// one unit to the fleet and serves the other four from the cache.
func TestFleetResubmittedSweepLeasesOnlyNewUnits(t *testing.T) {
	_, coord := startServer(t, Config{Workers: 2, QueueDepth: 8, FleetLocal: -1, LeaseExpiry: 10 * time.Second})
	runner := startRunner(t, coord, RunnerConfig{ID: "rs1", Parallel: 1})

	_, first := submitScenario(t, coord, sweepScenario("fleet-resubmit", 2_000, 0.1, 0.2, 0.3, 0.4))
	if done := waitForState(t, coord, first.ID, StateDone); done.UnitsDone != 4 || done.UnitsCached != 0 {
		t.Fatalf("first sweep counters: %d done / %d cached, want 4/0", done.UnitsDone, done.UnitsCached)
	}
	before, ranBefore := fleetHealth(t, coord), runner.UnitsDone()

	grown := sweepScenario("fleet-resubmit", 2_000, 0.1, 0.2, 0.3, 0.4, 0.5)
	_, second := submitScenario(t, coord, grown)
	view := waitForState(t, coord, second.ID, StateDone)
	if view.UnitsDone != 5 || view.UnitsCached != 4 {
		t.Fatalf("grown sweep counters: %d done / %d cached, want 5/4", view.UnitsDone, view.UnitsCached)
	}
	after := fleetHealth(t, coord)
	if got := after.LeasedTotal - before.LeasedTotal; got != 1 {
		t.Errorf("grown sweep leased %d units, want 1", got)
	}
	if got := after.Merged - before.Merged; got != 1 {
		t.Errorf("grown sweep merged %d reports, want 1", got)
	}
	if got := runner.UnitsDone() - ranBefore; got != 1 {
		t.Errorf("runner completed %d units of the grown sweep, want 1", got)
	}
	if want := planBaseline(t, grown); !bytes.Equal(view.Result, want) {
		t.Fatalf("grown sweep document differs from Plan.Execute's:\nfleet:   %.200s\nlibrary: %.200s", view.Result, want)
	}
}

// TestFleetHybridCoordinator: with the default FleetLocal the
// coordinator executes its own share while a runner takes the rest —
// the job completes and the two shares add up to the unit count.
func TestFleetHybridCoordinator(t *testing.T) {
	srv, coord := startServer(t, Config{Workers: 2, QueueDepth: 8, LeaseExpiry: 10 * time.Second})
	runner := startRunner(t, coord, RunnerConfig{ID: "hy1", Parallel: 1})

	sc := sweepScenario("fleet-hybrid", 2_000, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45)
	_, job := submitScenario(t, coord, sc)
	view := waitForState(t, coord, job.ID, StateDone)
	if view.UnitsDone != 8 {
		t.Fatalf("hybrid run finished %d units, want 8", view.UnitsDone)
	}
	remote := runner.UnitsDone()
	local := int64(srv.metrics.plan.UnitsRun.Value())
	if remote+local != 8 {
		t.Fatalf("hybrid split %d remote + %d local != 8 units", remote, local)
	}
}

// TestFleetExpiredLeaseRunsLocally: on a hybrid coordinator, units a
// zombie runner leased and never reported go back to pending when the
// lease expires, and the job's own local lessee runs them — the plan
// finishes with every unit run locally and nothing merged.
func TestFleetExpiredLeaseRunsLocally(t *testing.T) {
	srv, ts := startServer(t, Config{Workers: 1, QueueDepth: 4, FleetLocal: 1, LeaseExpiry: 200 * time.Millisecond})
	// Units heavy enough that the one local lessee is still busy with
	// its first while the zombie leases the others.
	sc := sweepScenario("expired-local", 50_000, 0.1, 0.15, 0.2, 0.25)
	want := planBaseline(t, sc)
	_, job := submitScenario(t, ts, sc)

	leased := 0
	waitFor(t, func() bool {
		leased += len(postLease(t, ts, "zombie", 64, 0).Units)
		return leased > 0
	})
	t.Logf("zombie leased %d of 4 units", leased)

	waitForState(t, ts, job.ID, StateDone)
	j, _ := srv.job(job.ID)
	got := jobResult(t, j)
	if !bytes.Equal(got, want) {
		t.Fatalf("plan document diverges from the library run:\n got %.200s\nwant %.200s", got, want)
	}
	if run := srv.metrics.plan.UnitsRun.Value(); run != 4 {
		t.Fatalf("%v units ran locally, want all 4", run)
	}
	f := fleetHealth(t, ts)
	if f.LeasedTotal != int64(leased) || f.Merged != 0 || f.Leased != 0 || f.PendingUnits != 0 {
		t.Fatalf("fleet %+v, want %d grants, nothing merged, table empty", f, leased)
	}
	if released := srv.metrics.fleetReleases.Value(); released != uint64(leased) {
		t.Fatalf("%d leases released by expiry, want %d", released, leased)
	}
}

// TestFleetSingleRunDispatchOnly: a single run on a dispatch-only
// coordinator is a 1-unit plan like any other — it completes through
// the attached runner, keeps the single-run document and view, and
// streams no slot progress (the run happened elsewhere).
func TestFleetSingleRunDispatchOnly(t *testing.T) {
	srv, ts := startServer(t, Config{Workers: 1, QueueDepth: 4, FleetLocal: -1, LeaseExpiry: 10 * time.Second})
	runner := startRunner(t, ts, RunnerConfig{ID: "solo", Parallel: 1})

	sc := lineScenario("dispatch-run", 4_000, 3)
	c, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(baseline)
	if err != nil {
		t.Fatal(err)
	}

	_, job := submitScenario(t, ts, sc)
	view := waitForState(t, ts, job.ID, StateDone)
	if view.Hash != sc.Hash() || view.UnitsTotal != 0 {
		t.Fatalf("single-run view %+v, want the scenario hash and no unit counters", view)
	}
	j, _ := srv.job(job.ID)
	got := jobResult(t, j)
	if !bytes.Equal(got, want) {
		t.Fatalf("remote single run diverges:\n got %s\nwant %s", got, want)
	}
	var types []string
	for _, e := range streamEvents(t, ts, job.ID) {
		types = append(types, e.Type)
	}
	if strings.Join(types, ",") != "queued,started,done" {
		t.Fatalf("event stream %v, want queued,started,done", types)
	}
	if runner.UnitsDone() != 1 || srv.metrics.plan.UnitsRun.Value() != 0 {
		t.Fatalf("runner did %d units, coordinator ran %v; want 1 and 0", runner.UnitsDone(), srv.metrics.plan.UnitsRun.Value())
	}
	if f := fleetHealth(t, ts); f.Merged != 1 || !f.DispatchOnly {
		t.Fatalf("fleet %+v, want 1 merged on a dispatch-only coordinator", f)
	}
}

// TestPlainSweepNeverRunnerStarved: a server without a fleet parks its
// sweep units in the lease table for its own local lessee, and the
// doctor must not read that backlog as units starved of runners.
func TestPlainSweepNeverRunnerStarved(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1})
	values := make([]float64, 16)
	for i := range values {
		values[i] = 0.1 + 0.01*float64(i)
	}
	sc := sweepScenario("plain-sweep", 20_000, values...)
	sc.Sim.Parallel = 1
	_, job := submitScenario(t, ts, sc)

	sawParked := false
	for !getJob(t, ts, job.ID).State.Terminal() {
		h := getHealth(t, ts)
		if h.Fleet != nil && h.Fleet.PendingUnits > 0 {
			sawParked = true
			if h.Fleet.DispatchOnly {
				t.Fatalf("plain server reports dispatch-only: %+v", h.Fleet)
			}
		}
		for _, f := range ctl.Diagnose(h, ctl.Metrics{}, nil, nil) {
			if f.Name == "runner-starved" {
				t.Fatalf("plain sweep diagnosed %s: %s", f.Name, f.Detail)
			}
		}
		time.Sleep(time.Millisecond)
	}
	if view := getJob(t, ts, job.ID); view.State != StateDone {
		t.Fatalf("sweep ended %s", view.State)
	}
	if !sawParked {
		t.Fatal("never observed parked units; raise the unit slot count")
	}
}

// TestFleetLeaseLifecycle pins the exactly-once merge protocol at the
// lease-manager level: a lease expires, the unit re-leases to another
// runner with the lapsed one excluded, the late report against the
// stale lease is rejected idempotently, and the counters come out
// exact.
func TestFleetLeaseLifecycle(t *testing.T) {
	lm := newLeaseManager(time.Hour, 64, nil)
	pu := dynsched.PlanUnit{Hash: "unit-1", Scenario: lineScenario("ll", 100, 1)}

	type outcome struct {
		res *dynsched.SimResult
		err error
	}
	fu := &fleetUnit{pu: pu}
	lm.park(fu)
	if _, p, _ := lm.occupancy(); p != 1 {
		t.Fatalf("%d units pending after park, want 1", p)
	}
	got := make(chan outcome, 1)
	go func() {
		res, err := lm.wait(context.Background(), fu)
		got <- outcome{res, err}
	}()

	grantA, _ := lm.lease(nil, "a", 8, 0)
	if len(grantA) != 1 {
		t.Fatalf("runner a granted %d units, want 1", len(grantA))
	}
	staleID := grantA[0].leaseID

	// The lease expires: the unit returns to pending, excluded from a.
	if released := lm.sweep(time.Now().Add(2 * time.Hour)); released != 1 {
		t.Fatalf("sweep released %d leases, want 1", released)
	}

	// b joins the roster; a may not re-acquire the unit it lapsed on.
	lm.renew("b")
	if again, _ := lm.lease(nil, "a", 8, 0); len(again) != 0 {
		t.Fatalf("lapsed runner re-acquired its expired unit (%d granted)", len(again))
	}
	grantB, _ := lm.lease(nil, "b", 8, 0)
	if len(grantB) != 1 {
		t.Fatalf("runner b granted %d units, want 1", len(grantB))
	}
	if grantB[0].leaseID == staleID {
		t.Fatal("re-grant reused the stale lease ID")
	}

	// The presumed-dead runner reports late — rejected, twice, with no
	// effect on the unit.
	res, _ := json.Marshal(&dynsched.SimResult{})
	for i := 0; i < 2; i++ {
		if err := lm.report("a", api.UnitReport{Lease: staleID, Hash: pu.Hash, Result: res}); err != errStaleLease {
			t.Fatalf("late report %d: err=%v, want errStaleLease", i, err)
		}
	}
	select {
	case o := <-got:
		t.Fatalf("unit completed off a stale report: %+v", o)
	default:
	}

	// b's report merges exactly once.
	if err := lm.report("b", api.UnitReport{Lease: grantB[0].leaseID, Hash: pu.Hash, Result: res}); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	o := <-got
	if o.err != nil || o.res == nil {
		t.Fatalf("wait outcome %+v, want merged result", o)
	}
	// A duplicate of the consumed lease is stale too.
	if err := lm.report("b", api.UnitReport{Lease: grantB[0].leaseID, Hash: pu.Hash, Result: res}); err != errStaleLease {
		t.Fatalf("duplicate report: err=%v, want errStaleLease", err)
	}

	snap := lm.snapshot()
	if snap.LeasedTotal != 2 || snap.ReLeased != 1 || snap.Merged != 1 || snap.Rejected != 3 {
		t.Fatalf("counters leased=%d reLeased=%d merged=%d rejected=%d, want 2/1/1/3",
			snap.LeasedTotal, snap.ReLeased, snap.Merged, snap.Rejected)
	}
	if snap.Leased != 0 || snap.PendingUnits != 0 {
		t.Fatalf("lease table not empty: %d leased, %d pending", snap.Leased, snap.PendingUnits)
	}
}

// TestFleetLeaseEscapeHatch: exclusion yields when the lapsed runner
// is the only one left — better a retry on a suspect runner than a
// unit no one may run.
func TestFleetLeaseEscapeHatch(t *testing.T) {
	lm := newLeaseManager(time.Hour, 64, nil)
	pu := dynsched.PlanUnit{Hash: "unit-esc", Scenario: lineScenario("esc", 100, 1)}
	lm.park(&fleetUnit{pu: pu})

	if g, _ := lm.lease(nil, "solo", 8, 0); len(g) != 1 {
		t.Fatalf("initial grant %d units, want 1", len(g))
	}
	lm.sweep(time.Now().Add(2 * time.Hour))
	g, _ := lm.lease(nil, "solo", 8, 0)
	if len(g) != 1 {
		t.Fatalf("sole surviving runner was refused its expired unit (%d granted)", len(g))
	}
}

// TestDrainReleasesFleetLeases is the drain-release regression test: a
// zombie runner holds every unit of a running plan on long leases, a
// live runner is attached, and Drain must hand the zombie's units over
// (not drop the job) so the plan finishes inside the grace period.
func TestDrainReleasesFleetLeases(t *testing.T) {
	srv, ts := startServer(t, Config{Workers: 2, QueueDepth: 8, FleetLocal: -1, LeaseExpiry: time.Minute})

	sc := sweepScenario("drain-fleet", 2_000, 0.1, 0.2, 0.3)
	_, job := submitScenario(t, ts, sc)

	// The zombie leases all three units and never reports. Its lease
	// outlives any reasonable grace period.
	waitFor(t, func() bool { f := fleetHealth(t, ts); return f != nil && f.PendingUnits+f.Leased == 3 })
	lr := postLease(t, ts, "zombie", 64, 0)
	if len(lr.Units) != 3 {
		t.Fatalf("zombie leased %d units, want 3", len(lr.Units))
	}

	live := startRunner(t, ts, RunnerConfig{ID: "live", Parallel: 2})

	rep := srv.Drain(20 * time.Second)
	if rep.Finished != 1 || rep.DroppedRunning != 0 {
		t.Fatalf("drain report %+v, want the plan finished via re-lease", rep)
	}
	view := getJob(t, ts, job.ID)
	if view.State != StateDone {
		t.Fatalf("job %s after drain, want done", view.State)
	}
	if live.UnitsDone() != 3 {
		t.Errorf("live runner completed %d units, want 3", live.UnitsDone())
	}
	f := fleetHealth(t, ts)
	if f.Merged != 3 {
		t.Errorf("fleet merged %d, want 3", f.Merged)
	}
}

// waitFor polls cond to true within a generous deadline.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within deadline")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
