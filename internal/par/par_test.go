package par

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"dynsched/internal/testenv"
)

func TestForCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 0, -1} {
		const n = 137
		var hits [n]atomic.Int32
		For(context.Background(), n, workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
	For(context.Background(), 0, 4, func(i int) { t.Fatal("fn called for n=0") })
	var calls atomic.Int32
	For(nil, 5, 2, func(i int) { calls.Add(1) })
	if calls.Load() != 5 {
		t.Fatalf("nil ctx: %d calls, want 5", calls.Load())
	}
}

func TestWorkers(t *testing.T) {
	if got := Workers(4, 2); got != 2 {
		t.Errorf("Workers(4,2) = %d, want 2", got)
	}
	if got := Workers(1, 100); got != 1 {
		t.Errorf("Workers(1,100) = %d, want 1", got)
	}
	if got := Workers(0, 100); got < 1 {
		t.Errorf("Workers(0,100) = %d", got)
	}
	if got := Workers(-3, 0); got != 1 {
		t.Errorf("Workers(-3,0) = %d, want 1", got)
	}
}

// TestForStopsClaimingAfterCancel: once ctx is cancelled, no worker
// claims a new index. A worker that passed its ctx check just before the
// cancel may still claim one, so at most one index per other worker
// starts after the cancel returns.
func TestForStopsClaimingAfterCancel(t *testing.T) {
	const n, cancelAt = 10000, 20
	for _, workers := range []int{1, 2, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var started, atCancel atomic.Int32
		For(ctx, n, workers, func(i int) {
			started.Add(1)
			if i == cancelAt {
				cancel()
				atCancel.Store(started.Load())
			}
		})
		cancel()
		if extra := started.Load() - atCancel.Load(); extra > int32(workers-1) {
			t.Errorf("workers=%d: %d indices started after the cancel, want ≤ %d", workers, extra, workers-1)
		}
		if started.Load() == n {
			t.Errorf("workers=%d: every index ran despite the cancel", workers)
		}
		if workers == 1 && started.Load() != cancelAt+1 {
			t.Errorf("serial: %d indices ran, want exactly %d", started.Load(), cancelAt+1)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	For(ctx, n, 4, func(i int) { t.Fatal("fn called on a cancelled ctx") })
}

// squares is a Runner writing out[i] = i*i+seed over its Job's range.
type squares struct {
	job  Job
	seed int
	out  []int
}

func (s *squares) RunChunks(slot int) {
	for {
		lo, hi := s.job.Claim()
		if lo < 0 {
			return
		}
		for i := lo; i < hi; i++ {
			s.out[i] = i*i + s.seed
		}
	}
}

func (s *squares) check(n int) bool {
	for i := 0; i < n; i++ {
		if s.out[i] != i*i+s.seed {
			return false
		}
	}
	return true
}

// TestRunZeroAllocs pins the parked pool's steady-state guarantee: once
// its helpers exist, dispatching a job allocates nothing.
func TestRunZeroAllocs(t *testing.T) {
	testenv.SkipIfRace(t)
	const n = 4096
	s := &squares{seed: 3, out: make([]int, n)}
	for i := 0; i < 50; i++ {
		Run(&s.job, s, n, 4) // spawn and park the helpers
	}
	if got := testing.AllocsPerRun(200, func() { Run(&s.job, s, n, 4) }); got != 0 {
		t.Errorf("Run: %v allocs per dispatch, want 0", got)
	}
	if !s.check(n) {
		t.Fatal("Run left an index unprocessed")
	}
}

// TestPoolStress hammers the shared parked pool from many dispatchers
// on many goroutines at once, with mixed worker counts so sends race for
// parked workers. Its job is to give the race detector something to
// chew on (go test -race) and to verify results stay correct under
// contention.
func TestPoolStress(t *testing.T) {
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			s := &squares{out: make([]int, 2048)}
			for round := 0; round < 64; round++ {
				n := 64 + (id*257+round*131)%1984
				s.seed = id*1000 + round
				Run(&s.job, s, n, 2+(id+round)%3)
				if !s.check(n) {
					errs <- "result diverged under pool contention"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}
