// Package par is the one home of dynsched's parallelism: the worker-count
// rule, a goroutine fan-out for coarse blocking units, and the parked,
// zero-allocation chunked pool behind the intra-slot hot paths.
//
// Two primitives, two kinds of work:
//
//   - For runs coarse units that may block for seconds — plan units,
//     experiments, replications, construction row blocks. It spawns its
//     own goroutines per call, so a blocking unit never holds a shared
//     worker.
//   - Run dispatches a Job over a bounded, process-wide set of parked
//     goroutines without allocating. Its chunk bodies must not block and
//     must not call Run or For: a parked worker held by a blocked or
//     nested dispatch is a worker no other dispatcher can recruit.
//
// Determinism contract: every index is processed exactly once, by
// exactly one claimant, and fn/RunChunks must confine their writes to
// state owned by that index (or by the claimant's slot). Under that
// contract results are bit-identical for every worker count and every
// scheduling order; parallelism changes wall-clock time, never output.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a parallelism request against a unit count: a
// request below 1 selects GOMAXPROCS, the answer never exceeds units,
// and it is never below 1.
func Workers(requested, units int) int {
	n := requested
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > units {
		n = units
	}
	if n < 1 {
		n = 1
	}
	return n
}

// For runs fn(i) for every i in [0, n) on Workers(workers, n)
// goroutines. With one worker it runs inline on the calling goroutine in
// index order — the exact serial path, no scheduling involved. Indices
// are claimed from an atomic cursor, so load balances even when unit
// costs are skewed.
//
// Once ctx is done no new index is claimed; indices already running
// finish their fn call, which is expected to observe ctx itself if it is
// long. Completed indices are exactly those fn returned from; the caller
// distinguishes them by per-index state. A nil ctx is treated as
// context.Background().
func For(ctx context.Context, n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
