package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"dynsched"
	"dynsched/internal/journal"
)

// planBaseline executes the scenario's plan uninterrupted through the
// library and returns the marshaled PlanResult — the exact document a
// server job stores.
func planBaseline(t *testing.T, sc dynsched.Scenario) []byte {
	t.Helper()
	p, err := sc.Plan(1)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := p.Execute(context.Background(), dynsched.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(pr)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCrashRecoveryBitIdentical is the durability tier's acceptance
// test: kill a journaled server mid-plan, restart it against the same
// journal and cache directories, and check the recovered job finishes
// with a result document byte-identical to an uninterrupted run —
// serving the units that completed before the crash from the cache
// instead of re-simulating them.
func TestCrashRecoveryBitIdentical(t *testing.T) {
	journalDir, cacheDir := t.TempDir(), t.TempDir()
	// A 6-unit lambda sweep, each unit heavy enough that the crash
	// lands mid-plan. Parallel=1 runs the units sequentially inside
	// the plan, so "two units done" reliably means four are left.
	sc := sweepScenario("recovery-sweep", 500_000, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35)
	sc.Sim.Parallel = 1
	want := planBaseline(t, sc)

	// Server 1: one worker so units complete in order; crash once at
	// least two units are done and at most four (mid-plan either way).
	s1, err := New(Config{Workers: 1, JournalDir: journalDir, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	ctx1, crash := context.WithCancel(context.Background())
	s1.Start(ctx1)
	ts1 := httptest.NewServer(s1.Handler())
	status, view := submitScenario(t, ts1, sc)
	if status != 202 {
		t.Fatalf("submit: status %d", status)
	}
	id := view.ID

	deadline := time.Now().Add(30 * time.Second)
	for {
		v := getJob(t, ts1, id)
		if v.State.Terminal() {
			t.Fatalf("job reached %s before the crash; raise the unit slot count", v.State)
		}
		if v.UnitsDone >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no unit progress before deadline: %+v", v)
		}
		time.Sleep(time.Millisecond)
	}
	crash() // the process dies here: no drain, no shutdown marker
	s1.Wait()
	ts1.Close()
	_ = s1.journal.Close()

	// Server 2 on the same directories: the job must come back under
	// its original ID, marked recovered, and still incomplete.
	s2, err := New(Config{Workers: 1, JournalDir: journalDir, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	if s2.RecoveredJobs() != 1 {
		t.Fatalf("recovered %d jobs, want 1", s2.RecoveredJobs())
	}
	if s2.cleanShutdown {
		t.Fatal("crash misreported as clean shutdown")
	}
	j2, ok := s2.job(id)
	if !ok {
		t.Fatalf("job %s not restored", id)
	}
	if !j2.recovered || j2.currentState().Terminal() {
		t.Fatalf("restored job: recovered=%v state=%s", j2.recovered, j2.currentState())
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	s2.Start(ctx2)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	done := waitForState(t, ts2, id, StateDone)
	if !done.Recovered {
		t.Fatal("finished job lost its recovered mark")
	}
	if done.UnitsCached < 2 {
		t.Fatalf("recovery re-simulated finished units: unitsCached=%d", done.UnitsCached)
	}
	if done.UnitsDone != 6 {
		t.Fatalf("unitsDone=%d, want 6", done.UnitsDone)
	}

	got := jobResult(t, j2)
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered result diverges from uninterrupted run:\n got %s\nwant %s", got, want)
	}
	cancel2()
	s2.Wait()
	_ = s2.journal.Close()
}

// TestTornJournalTailRecovered pins that a write torn mid-record by a
// crash is detected via its CRC and dropped — the server boots, and
// the job whose finish record was torn off recovers as incomplete.
func TestTornJournalTailRecovered(t *testing.T) {
	journalDir, cacheDir := t.TempDir(), t.TempDir()

	s1, err := New(Config{Workers: 1, JournalDir: journalDir, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	s1.Start(ctx1)
	ts1 := httptest.NewServer(s1.Handler())
	_, view := submitScenario(t, ts1, lineScenario("torn", 4_000, 1))
	waitForState(t, ts1, view.ID, StateDone)
	cancel1()
	s1.Wait()
	ts1.Close()
	_ = s1.journal.Close()

	// Tear the tail: chop into the job's synced finish record.
	segs := journalSegments(t, journalDir)
	size := segs[len(segs)-1]
	if err := journal.Truncate(journalDir, size-3); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{Workers: 1, JournalDir: journalDir, CacheDir: cacheDir})
	if err != nil {
		t.Fatalf("torn tail must not be fatal: %v", err)
	}
	defer s2.journal.Close()
	if !s2.replayStats.Torn {
		t.Fatal("torn tail not reported by replay")
	}
	// The finish record is gone, so the job must recover as incomplete.
	if s2.RecoveredJobs() != 1 {
		t.Fatalf("recovered %d jobs, want 1", s2.RecoveredJobs())
	}
	j, ok := s2.job(view.ID)
	if !ok || j.currentState().Terminal() {
		t.Fatalf("job %s not recovered as incomplete (ok=%v)", view.ID, ok)
	}
}

// journalSegments returns the sizes of the journal's segment files in
// name order.
func journalSegments(t *testing.T, dir string) []int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, info.Size())
	}
	if len(sizes) == 0 {
		t.Fatal("no journal segments")
	}
	return sizes
}

// TestDrainDropsStragglersForRecovery pins the graceful-shutdown
// contract: running jobs that outlive the grace period are dropped
// without a journaled terminal state, the clean-shutdown marker is
// written, and the next boot recovers the dropped jobs.
func TestDrainDropsStragglersForRecovery(t *testing.T) {
	journalDir, cacheDir := t.TempDir(), t.TempDir()

	s1, err := New(Config{Workers: 1, JournalDir: journalDir, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	s1.Start(ctx1)
	ts1 := httptest.NewServer(s1.Handler())
	defer ts1.Close()

	// A job far larger than the grace period, plus one stuck behind it
	// in the queue.
	_, running := submitScenario(t, ts1, lineScenario("straggler", 2_000_000_000, 1))
	waitForState(t, ts1, running.ID, StateRunning)
	_, queued := submitScenario(t, ts1, lineScenario("queued-behind", 4_000, 1))

	rep := s1.Drain(50 * time.Millisecond)
	if rep.DroppedRunning != 1 || rep.DroppedQueued != 1 {
		t.Fatalf("drain report %+v, want 1 dropped running and 1 dropped queued", rep)
	}

	// Draining servers reject new submissions.
	if status, _ := submitScenario(t, ts1, lineScenario("late", 4_000, 1)); status != 503 {
		t.Fatalf("submission during drain: status %d, want 503", status)
	}

	s2, err := New(Config{Workers: 1, JournalDir: journalDir, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.journal.Close()
	if !s2.cleanShutdown {
		t.Fatal("drain did not journal the clean-shutdown marker")
	}
	if s2.RecoveredJobs() != 2 {
		t.Fatalf("recovered %d jobs, want both dropped jobs", s2.RecoveredJobs())
	}
	for _, id := range []string{running.ID, queued.ID} {
		if j, ok := s2.job(id); !ok || j.currentState().Terminal() {
			t.Fatalf("dropped job %s not recovered as incomplete", id)
		}
	}
}

// TestSingleRunResumesFromCheckpoint pins the engine-checkpoint path
// end to end: a journaled server is crashed mid-simulation after it
// has written at least one checkpoint, and the restarted server
// resumes the recovered job from that checkpoint's slot — reporting
// the resume slot in the job view, producing a result byte-identical
// to an uninterrupted run, and dropping the checkpoint file once the
// job completes.
func TestSingleRunResumesFromCheckpoint(t *testing.T) {
	journalDir, cacheDir := t.TempDir(), t.TempDir()
	sc := lineScenario("ckpt-resume", 400_000, 1)

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

	s1, err := New(Config{Workers: 1, JournalDir: journalDir, CacheDir: cacheDir, CheckpointEvery: 2_000})
	if err != nil {
		t.Fatal(err)
	}
	ctx1, crash := context.WithCancel(context.Background())
	s1.Start(ctx1)
	ts1 := httptest.NewServer(s1.Handler())
	_, view := submitScenario(t, ts1, sc)

	// Crash once the run has persisted a checkpoint.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(s1.ckptPath(sc.Hash())); err == nil {
			break
		}
		if v := getJob(t, ts1, view.ID); v.State.Terminal() {
			t.Fatalf("job reached %s before a checkpoint was written", v.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint written before deadline")
		}
		time.Sleep(time.Millisecond)
	}
	crash()
	s1.Wait()
	ts1.Close()
	_ = s1.journal.Close()

	cp := s1.loadCheckpoint(sc.Hash())
	if cp == nil || cp.Slot <= 0 {
		t.Fatalf("no usable checkpoint on disk after crash: %+v", cp)
	}

	s2, err := New(Config{Workers: 1, JournalDir: journalDir, CacheDir: cacheDir, CheckpointEvery: 2_000})
	if err != nil {
		t.Fatal(err)
	}
	if s2.RecoveredJobs() != 1 {
		t.Fatalf("recovered %d jobs, want 1", s2.RecoveredJobs())
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	s2.Start(ctx2)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()

	done := waitForState(t, ts2, view.ID, StateDone)
	if done.ResumedFromSlot != cp.Slot {
		t.Fatalf("resumedFromSlot=%d, want checkpoint slot %d", done.ResumedFromSlot, cp.Slot)
	}
	j, ok := s2.job(view.ID)
	if !ok {
		t.Fatalf("job %s missing after completion", view.ID)
	}
	raw := jobResult(t, j)
	if !bytes.Equal(raw, want) {
		t.Fatalf("resumed result diverges:\n got %s\nwant %s", raw, want)
	}
	if _, err := os.Stat(s2.ckptPath(sc.Hash())); !os.IsNotExist(err) {
		t.Fatalf("checkpoint file not dropped after completion: %v", err)
	}
	cancel2()
	s2.Wait()
	_ = s2.journal.Close()
}
