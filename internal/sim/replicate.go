package sim

import (
	"context"
	"errors"
	"fmt"

	"dynsched/internal/inject"
	"dynsched/internal/interference"
	"dynsched/internal/par"
	"dynsched/internal/stats"
)

// RunInput bundles one replication's independently constructed
// components. Replications must not share mutable state.
type RunInput struct {
	Model    interference.Model
	Process  inject.Process
	Protocol Protocol
	// Observers are extra observers attached to this replication's run;
	// build must return fresh instances per replication.
	Observers []Observer
}

// Replication is one run's headline numbers.
type Replication struct {
	Rep       int     `json:"rep"`
	Stable    bool    `json:"stable"`
	MeanQ     float64 `json:"meanQueue"`
	MaxQ      float64 `json:"maxQueue"`
	MeanLat   float64 `json:"meanLatency"`
	Delivered int64   `json:"delivered"`
	Injected  int64   `json:"injected"`
}

// ReplicateResult aggregates independent runs. Runs holds one entry per
// completed replication, sorted by replication index; a cancelled
// Replicate returns the completed subset alongside the error — on a
// parallel pool that subset need not be a prefix, so consumers must
// read Replication.Rep rather than assume Runs[i] is replication i.
type ReplicateResult struct {
	Runs      []Replication `json:"runs"`
	StableAll bool          `json:"stableAll"`
	MeanQ     stats.Summary `json:"meanQueue"`   // across-replication distribution of mean queue
	MeanLat   stats.Summary `json:"meanLatency"` // across-replication distribution of mean latency
}

// ReplicationOf summarises one completed run as its replication row.
// It is the single definition of which headline numbers a replication
// carries — Replicate and the execution planner both assemble their
// aggregates from it.
func ReplicationOf(rep int, res *Result) Replication {
	return Replication{
		Rep:       rep,
		Stable:    res.Verdict.Stable,
		MeanQ:     res.Queue.MeanV(),
		MaxQ:      res.Queue.MaxV(),
		MeanLat:   res.Latency.Mean(),
		Delivered: res.Delivered,
		Injected:  res.Injected,
	}
}

// Accumulate folds one completed replication into the aggregate.
// Callers fold rows in replication order starting from a result with
// StableAll == true (the vacuous truth over zero runs).
func (r *ReplicateResult) Accumulate(run Replication) {
	r.Runs = append(r.Runs, run)
	r.StableAll = r.StableAll && run.Stable
	r.MeanQ.Add(run.MeanQ)
	r.MeanLat.Add(run.MeanLat)
}

// Replicate runs `reps` independent simulations on a worker pool of
// cfg.Parallel goroutines (0 = GOMAXPROCS) and aggregates the headline
// metrics. Each replication r derives its own seed SubSeed(cfg.Seed, r),
// so the per-shard RNG streams share no state and the results —
// including their order — are bit-identical for every pool size, serial
// included. build is called once per replication with the replication
// index and its seed, and must return fresh instances (replications
// must not share mutable state; a model's SlotResolver scratch and any
// extra observers, for example, are per-run).
//
// A nil ctx means context.Background(). When ctx is cancelled mid-way,
// Replicate stops starting new replications, aggregates the ones that
// completed, and returns that partial result with an error wrapping the
// context's error.
func Replicate(ctx context.Context, cfg Config, reps int, build func(rep int, seed int64) (RunInput, error)) (*ReplicateResult, error) {
	if reps < 1 {
		return nil, fmt.Errorf("sim: reps %d must be positive", reps)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	runs := make([]Replication, reps)
	done := make([]bool, reps)
	errs := make([]error, reps)
	par.For(ctx, reps, cfg.Parallel, func(r int) {
		seed := SubSeed(cfg.Seed, r)
		in, err := build(r, seed)
		if err != nil {
			errs[r] = err
			return
		}
		c := cfg
		c.Seed = seed
		res, err := Run(ctx, c, in.Model, in.Process, in.Protocol, in.Observers...)
		if err != nil {
			errs[r] = err
			return
		}
		runs[r] = ReplicationOf(r, res)
		done[r] = true
	})

	var firstErr error
	for _, err := range errs {
		if err != nil && !isCancellation(err) {
			firstErr = err
			break
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}

	out := &ReplicateResult{StableAll: true}
	for r := range runs {
		if !done[r] {
			continue
		}
		out.Accumulate(runs[r])
	}
	if err := ctx.Err(); err != nil {
		return out, fmt.Errorf("sim: replicate cancelled with %d of %d replications completed: %w", len(out.Runs), reps, err)
	}
	return out, nil
}

// isCancellation reports whether err stems from context cancellation or
// deadline expiry rather than a genuine simulation failure.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// SubSeed derives the seed of shard i from a base seed via a SplitMix64
// step, giving well-separated streams even for adjacent bases and
// shards — the per-shard RNGs the parallel runners build from these
// share no state. The mapping is a fixed pure function: the same
// (base, shard) pair always names the same stream, which is what makes
// serial and parallel runs bit-identical.
func SubSeed(base int64, shard int) int64 {
	z := uint64(base) + uint64(shard+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
