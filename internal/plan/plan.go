// Package plan is the unified execution planner: it takes a list of
// addressable work units — each one independent, content-addressed, and
// a pure function of its own inputs — and drives them through one
// shared worker pool with per-unit context cancellation, per-unit
// cache short-circuiting, and serialized completion streaming.
//
// The package is deliberately generic: it knows nothing about
// scenarios, simulations, or caches. The root dynsched package
// decomposes a Scenario into units (single run, replications, sweep
// and grid points) and aggregates the typed results; internal/server
// plugs its content-addressed result cache into the Lookup/OnUnit
// hooks. Everything execution-shaped — pool sizing, cancellation,
// deterministic error selection, done/cached accounting — lives here
// exactly once.
//
// Determinism contract (that of internal/par.For, which runs the
// units): every unit derives all of its randomness from its own inputs
// and writes only its own slot of the outcome, so the recorded values
// are bit-identical for every pool size. Only completion *order* (and so
// the OnUnit stream order) varies with parallelism; the Outcome is
// indexed, not ordered.
package plan

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"dynsched/internal/par"
)

// Unit is one addressable work item of a plan: a stable index into the
// outcome, a content-address key (the caller's canonical hash of the
// fully-resolved work), and a human-readable label for streams and
// logs.
type Unit struct {
	Index int
	Key   string
	Label string
}

// Progress is the plan-level completion state handed to OnUnit.
type Progress struct {
	// Done counts completed units, cache hits included.
	Done int
	// Cached counts the units served by Lookup rather than run.
	Cached int
	// Total is the plan's unit count.
	Total int
}

// Options parameterises Execute.
type Options[T any] struct {
	// Parallel caps the worker pool (0 = GOMAXPROCS, 1 = serial inline).
	Parallel int
	// Lookup, when set, is consulted once per unit before anything runs;
	// ok = true short-circuits the unit with the returned value. It is
	// called serially in unit order.
	Lookup func(u Unit) (T, bool)
	// OnUnit, when set, streams each unit's completion: cache hits first
	// (in unit order), then runs in completion order. Calls are
	// serialized and carry monotonic Progress counts; keep the callback
	// cheap — it runs under the executor's accounting lock.
	OnUnit func(u Unit, value T, cached bool, err error, p Progress)
}

// Outcome records every unit's fate, indexed by Unit.Index. Values may
// be set even for failed units (a cancelled simulation returns its
// partial result alongside the error); Done marks the units that
// completed cleanly.
type Outcome[T any] struct {
	Values []T
	Done   []bool
	Cached []bool
	Errs   []error

	NumDone   int
	NumCached int
}

// UnitError attributes an execution error to the unit that produced
// it. errors.Is/As reach through to the underlying error.
type UnitError struct {
	Unit Unit
	Err  error
}

// Error formats the failure with its unit label.
func (e *UnitError) Error() string {
	return fmt.Sprintf("unit %d (%s): %v", e.Unit.Index, e.Unit.Label, e.Err)
}

// Unwrap exposes the underlying error.
func (e *UnitError) Unwrap() error { return e.Err }

// IsCancellation reports whether err stems from context cancellation
// or deadline expiry rather than a genuine unit failure.
func IsCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Execute runs every unit on a worker pool of opts.Parallel goroutines:
// first a serial cache pass over opts.Lookup, then the remaining units
// through the pool, each under its own context derived from ctx. A nil
// ctx means context.Background().
//
// The returned error is the first (by unit index) non-cancellation
// unit error, wrapped in *UnitError; if every unit error is a
// cancellation, it is ctx.Err() when ctx was cancelled, else nil. The
// Outcome is always returned — a cancelled plan reports the units that
// completed before the cut.
func Execute[T any](ctx context.Context, units []Unit, opts Options[T], run func(ctx context.Context, u Unit) (T, error)) (*Outcome[T], error) {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(units)
	out := &Outcome[T]{
		Values: make([]T, n),
		Done:   make([]bool, n),
		Cached: make([]bool, n),
		Errs:   make([]error, n),
	}

	var mu sync.Mutex
	finish := func(i int, v T, cached bool, err error) {
		mu.Lock()
		defer mu.Unlock()
		out.Values[i] = v
		out.Errs[i] = err
		if err == nil {
			out.Done[i] = true
			out.NumDone++
			if cached {
				out.Cached[i] = true
				out.NumCached++
			}
		}
		if opts.OnUnit != nil {
			opts.OnUnit(units[i], v, cached, err, Progress{Done: out.NumDone, Cached: out.NumCached, Total: n})
		}
	}

	// Cache pass: serve what Lookup already holds, in unit order, so a
	// resubmitted plan with one new unit runs exactly that unit.
	pending := make([]int, 0, n)
	for i := range units {
		if ctx.Err() != nil {
			break
		}
		if opts.Lookup != nil {
			if v, ok := opts.Lookup(units[i]); ok {
				finish(i, v, true, nil)
				continue
			}
		}
		pending = append(pending, i)
	}

	par.For(ctx, len(pending), opts.Parallel, func(k int) {
		i := pending[k]
		// A per-unit context: cancelling the plan context cancels every
		// in-flight unit, and a unit's own resources are released as soon
		// as it returns.
		uctx, cancel := context.WithCancel(ctx)
		v, err := run(uctx, units[i])
		cancel()
		finish(i, v, false, err)
	})

	for i := range units {
		if err := out.Errs[i]; err != nil && !IsCancellation(err) {
			return out, &UnitError{Unit: units[i], Err: err}
		}
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	return out, nil
}
