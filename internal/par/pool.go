package par

import (
	"sync"
	"sync/atomic"
)

// maxPoolWorkers bounds the process-wide worker pool. Workers are
// spawned lazily and parked forever, so this is a ceiling on goroutines
// ever created, not a steady cost.
const maxPoolWorkers = 256

// Runner is the work body of a parked fan-out: RunChunks claims
// contiguous index ranges from the active Job (Job.Claim) until none
// remain. slot identifies the participating goroutine (0 = the
// dispatcher) so implementations can use per-worker scratch without
// allocation. RunChunks must not block and must not call Run or For.
type Runner interface {
	RunChunks(slot int)
}

// Job is one fan-out over [0, n): a chunked atomic work cursor plus the
// completion group. It is embedded in long-lived scratch and reused
// across dispatches, so dispatching allocates nothing. A Job runs one
// dispatch at a time.
type Job struct {
	wg     sync.WaitGroup
	next   atomic.Int64 // claim cursor, advanced in grain-sized steps
	slot   atomic.Int64 // worker-slot allocator (dispatcher holds 0)
	n      int
	grain  int
	runner Runner
}

// Claim takes the next contiguous chunk, returning lo = -1 when the
// range is exhausted. Chunk boundaries never affect results — each
// index is processed exactly once, by exactly one claimant, with the
// serial per-index operation sequence — so chunking (and therefore
// timing) is invisible in the output.
func (j *Job) Claim() (lo, hi int) {
	lo = int(j.next.Add(int64(j.grain))) - j.grain
	if lo >= j.n {
		return -1, -1
	}
	hi = lo + j.grain
	if hi > j.n {
		hi = j.n
	}
	return lo, hi
}

// The process-wide parked worker pool. Workers are plain goroutines
// blocked on an unbuffered channel receive; waking one is a single
// channel send with no allocation. The pool is global (not per model)
// so a process running many models/replications shares one bounded set
// of goroutines.
var (
	poolCh   = make(chan *Job)
	poolSize atomic.Int64
)

// poolWorker parks on poolCh forever, running each delivered job to
// exhaustion. It is a zero-argument top-level function so spawning it
// captures nothing.
func poolWorker() {
	for j := range poolCh {
		slot := int(j.slot.Add(1))
		j.runner.RunChunks(slot)
		j.wg.Done()
	}
}

// trySpawnPoolWorker grows the pool by one worker unless the ceiling is
// reached.
func trySpawnPoolWorker() {
	for {
		sz := poolSize.Load()
		if sz >= maxPoolWorkers {
			return
		}
		if poolSize.CompareAndSwap(sz, sz+1) {
			go poolWorker()
			return
		}
	}
}

// Run fans runner.RunChunks over [0, n) across up to workers
// goroutines: the caller always participates (slot 0), and up to
// workers-1 pool workers are recruited. Recruitment prefers an already
// parked worker (non-blocking send), spawns a new one below the pool
// ceiling otherwise, and falls back to a blocking hand-off when the
// pool is saturated — every recruited helper is guaranteed to run, and
// with zero helpers the caller simply completes the job alone, so the
// call never deadlocks and performs no allocations in steady state.
// Run returns only after every chunk has been processed.
func Run(j *Job, runner Runner, n, workers int) {
	j.runner = runner
	j.n = n
	j.grain = grainFor(n, workers)
	j.next.Store(0)
	j.slot.Store(0)
	helpers := workers - 1
	// Never recruit more helpers than there are chunks beyond the
	// dispatcher's first.
	if maxHelpers := (n+j.grain-1)/j.grain - 1; helpers > maxHelpers {
		helpers = maxHelpers
	}
	for h := 0; h < helpers; h++ {
		j.wg.Add(1)
		select {
		case poolCh <- j:
		default:
			trySpawnPoolWorker()
			poolCh <- j
		}
	}
	runner.RunChunks(0)
	j.wg.Wait()
	j.runner = nil
}

// grainFor picks the claim-chunk size: about four claims per worker to
// smooth imbalance, but never below 64 indices so the atomic cursor
// stays cold relative to the per-index work.
func grainFor(n, workers int) int {
	g := n / (workers * 4)
	if g < 64 {
		g = 64
	}
	return g
}
