package experiments

import (
	"context"
	"time"

	"dynsched/internal/par"
)

// Outcome is one experiment's result within a suite run.
type Outcome struct {
	Runner  Runner
	Table   *Table
	Err     error
	Elapsed time.Duration
}

// RunAll executes the given experiments on a worker pool of `parallel`
// goroutines (0 = GOMAXPROCS, 1 = serial inline) and returns the
// outcomes in runner order. A nil ctx means context.Background(); when
// ctx is cancelled, running experiments stop at their next simulation
// slot, unstarted experiments are skipped, and every outcome without a
// table carries the context's error.
//
// Every experiment is a pure function of (scale, seed) that builds its
// own models, RNGs, and protocols — no state is shared across runners —
// so the tables are bit-identical for every pool size. Only Elapsed
// (wall-clock, which gains contention under parallelism) may differ
// between serial and parallel runs.
func RunAll(ctx context.Context, runners []Runner, scale Scale, seed int64, parallel int) []Outcome {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]Outcome, len(runners))
	par.For(ctx, len(runners), parallel, func(i int) {
		r := runners[i]
		start := time.Now()
		tbl, err := r.Run(ctx, scale, seed)
		out[i] = Outcome{Runner: r, Table: tbl, Err: err, Elapsed: time.Since(start)}
	})
	if err := ctx.Err(); err != nil {
		for i := range out {
			if out[i].Table == nil && out[i].Err == nil {
				out[i] = Outcome{Runner: runners[i], Err: err}
			}
		}
	}
	return out
}
