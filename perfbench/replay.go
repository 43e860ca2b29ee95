package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dynsched"
	"dynsched/internal/interference"
	"dynsched/internal/sim"
)

// unitCounts is what the slot counter saw of one simulation.
type unitCounts struct {
	slots, active, tx          int64 // slots run, slots with ≥1 tx, tx
	attempted, succeeded, errs int64 // from the Result
	gridDeltas, gridRebuilds   uint64
}

func (c *unitCounts) add(o unitCounts) {
	c.slots += o.slots
	c.active += o.active
	c.tx += o.tx
	c.attempted += o.attempted
	c.succeeded += o.succeeded
	c.errs += o.errs
	c.gridDeltas += o.gridDeltas
	c.gridRebuilds += o.gridRebuilds
}

// slotCounter is a sim observer counting slots and transmissions, and
// optionally recording every slot's transmitting links for the
// interference replay.
type slotCounter struct {
	sim.BaseObserver
	c      unitCounts
	record bool
	links  []int
	ends   []int // ends[t] is the end of slot t's links in links
}

func (s *slotCounter) OnSlot(_ int64, v sim.SlotView) {
	s.c.slots++
	if len(v.Tx) > 0 {
		s.c.active++
		s.c.tx += int64(len(v.Tx))
	}
	if s.record {
		for _, tx := range v.Tx {
			s.links = append(s.links, tx.Link)
		}
		s.ends = append(s.ends, len(s.links))
	}
}

func (s *slotCounter) OnEnd(r *sim.Result) {
	s.c.attempted, s.c.succeeded, s.c.errs = r.AttemptedTx, r.SuccessfulTx, r.ProtocolErrors
}

// layers accumulates the traced run's per-layer measurements over
// every replayed unit.
type layers struct {
	mu sync.Mutex
	// Per unit, in milliseconds.
	compileMs, runMs, storeMs []float64
	// Σ unit busy time and Σ (plan wall time × pool size).
	busy, capacity time.Duration
	// Σ sim time, slots and counts over all units.
	simTime time.Duration
	counts  unitCounts
	// The inject and interference replays, over the recorded units only.
	replayed                           int
	replaySlots, replayTx              int64
	replaySim, injectTime, resolveTime time.Duration
}

// replayer recomputes cold requests through the library (Plan.Execute
// on the same spec) for the correctness gate. With lay set it also
// times every layer: that replay runs at the workload's thread budget.
type replayer struct {
	w   *workload
	lay *layers
	tr  *tracer
}

// replayResult is one cold request recomputed.
type replayResult struct {
	digest [32]byte
	counts unitCounts
}

// unitTimes are one unit's timestamps inside Plan.Execute.
type unitTimes struct {
	compile0, compile1, sim0, store0, store1 time.Time
}

// replay recomputes one request. req numbers its spans.
func (rp *replayer) replay(ctx context.Context, req int, r request) (replayResult, error) {
	reps := r.reps
	if reps < 1 {
		reps = 1
	}
	p, err := r.sc.Plan(reps)
	if err != nil {
		return replayResult{}, err
	}
	n := len(p.Units)
	models := make([]dynsched.Model, n)
	counters := make([]*slotCounter, n)
	times := make([]unitTimes, n)
	traced := rp.lay != nil
	record := make([]bool, n)
	if traced {
		rp.lay.mu.Lock()
		for i := range record {
			if rp.lay.replayed < rp.w.layerUnits {
				record[i] = true
				rp.lay.replayed++
			}
		}
		rp.lay.mu.Unlock()
	}
	parallel := 1
	if traced {
		parallel = rp.w.budget.Parallel
	}
	opts := dynsched.ExecOptions{
		Parallel: parallel,
		Compiled: func(u dynsched.PlanUnit) *dynsched.CompiledScenario {
			t0 := time.Now()
			c, err := u.Scenario.Compile()
			times[u.Index].compile0, times[u.Index].compile1 = t0, time.Now()
			if err != nil {
				return nil // Execute compiles again and reports the error
			}
			models[u.Index] = c.Model
			return c
		},
		Observers: func(u dynsched.PlanUnit) []dynsched.SimObserver {
			sc := &slotCounter{record: record[u.Index]}
			counters[u.Index] = sc
			times[u.Index].sim0 = time.Now()
			return []dynsched.SimObserver{sc}
		},
	}
	if traced {
		// The daemon's store step: marshal the unit result (the cache
		// put itself is a map insert).
		opts.Store = func(u dynsched.PlanUnit, res *dynsched.SimResult) {
			t := &times[u.Index]
			t.store0 = time.Now()
			_, _ = json.Marshal(res) // the SimResult marshals without error
			t.store1 = time.Now()
		}
	}
	start := time.Now()
	pr, err := p.Execute(ctx, opts)
	wall := time.Since(start)
	if err != nil {
		return replayResult{}, err
	}
	var doc []byte
	if p.Kind == dynsched.PlanRun {
		doc, err = json.Marshal(pr.Run)
	} else {
		doc, err = json.Marshal(pr)
	}
	if err != nil {
		return replayResult{}, fmt.Errorf("marshaling the library result: %w", err)
	}
	out := replayResult{digest: sha256.Sum256(doc)}
	for i, sc := range counters {
		c := sc.c
		if sp, ok := models[i].(interference.ResolveStatsProvider); ok {
			st := sp.ResolveStats()
			c.gridDeltas, c.gridRebuilds = st.GridDeltaUpdates, st.GridRebuilds
		}
		out.counts.add(c)
	}
	if traced {
		if err := rp.account(ctx, req, p, wall, parallel, times, counters, out.counts); err != nil {
			return replayResult{}, err
		}
	}
	return out, nil
}

// account adds one traced replay to the layer totals, replaying the
// recorded units' injection and interference on fresh compilations.
func (rp *replayer) account(ctx context.Context, req int, p *dynsched.Plan, wall time.Duration, parallel int,
	times []unitTimes, counters []*slotCounter, counts unitCounts) error {
	var first, last time.Time
	for i, t := range times {
		if i == 0 || t.compile0.Before(first) {
			first = t.compile0
		}
		if t.store1.After(last) {
			last = t.store1
		}
	}
	root := rp.tr.add(0, req, "replay.plan", first, last)
	var busy, simTime time.Duration
	var compileMs, runMs, storeMs []float64
	var rSlots, rTx int64
	var rSim, rInject, rResolve time.Duration
	for i, t := range times {
		u := rp.tr.add(root, req, "plan.unit", t.compile0, t.store1)
		rp.tr.add(u, req, "plan.compile", t.compile0, t.compile1)
		rp.tr.add(u, req, "sim.run", t.sim0, t.store0)
		rp.tr.add(u, req, "plan.store", t.store0, t.store1)
		busy += t.store1.Sub(t.compile0)
		run := t.store0.Sub(t.sim0)
		simTime += run
		compileMs = append(compileMs, ms(t.compile1.Sub(t.compile0)))
		runMs = append(runMs, ms(run))
		storeMs = append(storeMs, ms(t.store1.Sub(t.store0)))
		if sc := counters[i]; sc.record {
			t0, t1, t2, err := replayLayers(p.Units[i].Scenario, sc)
			if err != nil {
				return err
			}
			lr := rp.tr.add(0, req, "replay.layers", t0, t2)
			rp.tr.add(lr, req, "inject.step", t0, t1)
			rp.tr.add(lr, req, "interference.resolve", t1, t2)
			rSlots += sc.c.slots
			rTx += sc.c.tx
			rSim += run
			rInject += t1.Sub(t0)
			rResolve += t2.Sub(t1)
		}
	}
	l := rp.lay
	l.mu.Lock()
	defer l.mu.Unlock()
	l.compileMs = append(l.compileMs, compileMs...)
	l.runMs = append(l.runMs, runMs...)
	l.storeMs = append(l.storeMs, storeMs...)
	l.busy += busy
	l.capacity += wall * time.Duration(parallel)
	l.simTime += simTime
	l.counts.add(counts)
	l.replaySlots += rSlots
	l.replayTx += rTx
	l.replaySim += rSim
	l.injectTime += rInject
	l.resolveTime += rResolve
	return ctx.Err()
}

// replayLayers times a unit's injection process and its slot
// resolution on a fresh compilation: Process.Step over every slot (on
// its own RNG stream — the engine shares its RNG with the protocol, so
// the packets differ but their number follows the same law), then the
// recorded transmission sets, slot by slot and in order, through the
// model's resolver at the unit's resolve parallelism. The injection
// replay runs from t0 to t1, the resolution replay from t1 to t2.
func replayLayers(sc dynsched.Scenario, rec *slotCounter) (t0, t1, t2 time.Time, err error) {
	c, err := sc.Compile()
	if err != nil {
		return t0, t1, t2, err
	}
	rng := rand.New(rand.NewSource(sc.Sim.Seed))
	resolveSlot := interference.ResolveFuncN(c.Model, sc.Sim.ResolveParallelism)
	t0 = time.Now()
	for t := int64(0); t < sc.Sim.Slots; t++ {
		c.Process.Step(t, rng)
	}
	t1 = time.Now()
	from := 0
	for _, end := range rec.ends {
		resolveSlot(rec.links[from:end])
		from = end
	}
	t2 = time.Now()
	rec.links, rec.ends = nil, nil
	return t0, t1, t2, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// replayAll recomputes every cold request, serially at the workload's
// budget when timing layers, otherwise on a pool of `workers`.
func (rp *replayer) replayAll(ctx context.Context, cold []request, workers int) ([]replayResult, []error) {
	out := make([]replayResult, len(cold))
	errs := make([]error, len(cold))
	if rp.lay != nil {
		workers = 1
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				out[i], errs[i] = rp.replay(ctx, i, cold[i])
			}
		}()
	}
	for i := range cold {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out, errs
}
