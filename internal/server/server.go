// Package server turns the dynsched library into a long-running
// simulation service: an HTTP/JSON API over a bounded job queue, a
// worker pool that executes submitted Scenario specs with live
// progress streaming, and a content-addressed result cache keyed by
// the canonical spec hash (namespaced by the engine stream version) so
// identical submissions are served from memory (or a disk spill
// directory) without re-simulating.
//
// Every job is an execution plan (dynsched.Plan): a single run is a
// 1-unit plan. Each fresh unit is parked in one lease table
// (lease.go), which the job's own local lessees and any attached
// remote runners (runner.go, `dynschedd -join`) take units from, so
// local and fleet execution are one path.
//
// The API surface (all under /v1):
//
//	POST   /v1/jobs              submit a spec ({"scenario": {...}}) or a
//	                             registered name ({"name": "..."}); 202 on
//	                             enqueue, 200 on a cache hit, 503 when the
//	                             queue is full. A sweep/grid spec or
//	                             "reps" > 1 submits a multi-unit plan:
//	                             each unit consults the result cache by
//	                             its own content address, with "unit"
//	                             completion events and
//	                             unitsTotal/unitsDone/unitsCached
//	                             counters in the job view; a single run
//	                             streams slot "progress" events instead
//	GET    /v1/jobs              list jobs
//	GET    /v1/jobs/{id}         job state, including the result when done
//	GET    /v1/jobs/{id}/events  NDJSON progress stream until terminal
//	DELETE /v1/jobs/{id}         cancel a queued or running job
//	GET    /v1/scenarios         the registered scenario library
//	GET    /healthz              liveness and queue occupancy
//
// plus the fleet protocol (fleet.go): POST /v1/fleet/lease, /report
// and /heartbeat.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"dynsched"
	"dynsched/internal/journal"
	"dynsched/internal/par"
	"dynsched/internal/sim"
)

// Config parameterises a Server.
type Config struct {
	// Workers is the simulation worker-pool size (0 = GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of jobs waiting to run (0 = 64).
	// Submissions beyond it are rejected with 503 rather than queued
	// without bound.
	QueueDepth int
	// CacheEntries bounds the in-memory result cache (0 = 256, negative
	// disables the memory tier).
	CacheEntries int
	// CacheDir, when set, spills every cached result to disk and serves
	// evicted entries from there across restarts.
	CacheDir string
	// CacheDiskMax bounds the spill directory to this many entries,
	// evicting oldest-mtime files first (0 = unbounded).
	CacheDiskMax int
	// ProgressEvery is a single run's progress-event period in slots
	// (0 = one twentieth of its run length). An explicit period is
	// floored so no job emits more than maxJobEvents progress events.
	ProgressEvery int64
	// MaxJobs bounds the job registry (0 = 4096); terminal jobs beyond
	// it are forgotten oldest-first. Results stay in the cache.
	MaxJobs int
	// JournalDir, when set, enables the durable execution tier: job
	// lifecycle events are journaled there (see journal.go), engine
	// checkpoints spill to its checkpoints/ subdirectory, and New
	// replays the directory to recover incomplete jobs from the last
	// process. Pair it with CacheDir so recovered plans find their
	// finished units.
	JournalDir string
	// CheckpointEvery checkpoints each running simulation every so many
	// slots (at the protocol's next frame boundary) into the journal
	// directory's checkpoint store; 0 with a JournalDir defaults to
	// 10_000, negative disables checkpointing. Ignored without a
	// JournalDir.
	CheckpointEvery int64
	// ResolveParallelism, when positive, is the intra-slot resolution
	// worker count injected into submitted scenarios that leave their
	// own Sim.ResolveParallelism at 0. An execution knob only: results
	// are bit-identical at every value and scenario hashes (and hence
	// cache keys) exclude it.
	ResolveParallelism int
	// LeaseExpiry is the fleet lease lifetime (0 = 15s): a runner that
	// neither reports nor heartbeats for this long is presumed dead and
	// its units are re-granted elsewhere.
	LeaseExpiry time.Duration
	// FleetBatchMax caps one lease grant (0 = 64 units).
	FleetBatchMax int
	// FleetLocal sizes each job's local lessees — the goroutines that
	// take the job's units from the lease table and run them in this
	// process: 0 uses the scenario's Sim.Parallel (GOMAXPROCS by
	// default), a positive value pins the count, and a negative value
	// makes the coordinator dispatch-only — every unit, single runs
	// included, must complete through a runner, so a fleet must be
	// attached.
	FleetLocal int
}

func (c Config) withDefaults() Config {
	c.Workers = par.Workers(c.Workers, math.MaxInt)
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	if c.JournalDir != "" && c.CheckpointEvery == 0 {
		c.CheckpointEvery = 10_000
	}
	return c
}

// Server is the simulation service: job registry, bounded queue,
// worker pool and result cache behind an http.Handler.
type Server struct {
	cfg     Config
	cache   *Cache
	models  *dynsched.ModelCache // networks shared by submit-time and unit compiles
	queue   chan *Job
	metrics *serverMetrics
	fleet   *leaseManager

	// Durability (nil/zero when Config.JournalDir is empty).
	journal       *journal.Journal
	ckptDir       string
	replayStats   journal.ReplayStats
	cleanShutdown bool // previous process journaled a shutdown marker
	recovered     int  // jobs re-enqueued by recovery

	// drainCh, closed by Drain, stops idle workers from dequeuing.
	drainCh chan struct{}

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	nextID   int
	running  map[string]*Job
	draining bool

	wg sync.WaitGroup
}

// New builds a server, replaying the journal directory (when
// configured) to recover jobs from the previous process. Call Start to
// launch the worker pool and Handler to obtain the HTTP surface.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   NewCache(cfg.CacheEntries, cfg.CacheDir, cfg.CacheDiskMax),
		models:  dynsched.NewModelCache(),
		queue:   make(chan *Job, cfg.QueueDepth),
		drainCh: make(chan struct{}),
		jobs:    map[string]*Job{},
		running: map[string]*Job{},
	}
	s.metrics = newServerMetrics(s)
	s.fleet = newLeaseManager(cfg.LeaseExpiry, cfg.FleetBatchMax, s.metrics)
	s.cache.instrument(&cacheMetrics{
		hitsMem:   s.metrics.cacheHitsMem,
		hitsDisk:  s.metrics.cacheHitsDisk,
		misses:    s.metrics.cacheMisses,
		evictMem:  s.metrics.cacheEvictMem,
		evictDisk: s.metrics.cacheEvictDisk,
	})
	if cfg.JournalDir != "" {
		if err := s.recover(cfg.JournalDir); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	return s, nil
}

// Start launches the worker pool. Cancelling ctx stops the workers:
// running jobs are cancelled through their run contexts and queued
// jobs stay queued (the process is exiting). Wait blocks until the
// pool has drained.
func (s *Server) Start(ctx context.Context) {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker(ctx)
	}
	// The fleet lease sweeper rides its own goroutine, not the worker
	// WaitGroup: it must keep re-granting expired leases through a
	// drain (Drain waits on the pool while released units finish) and
	// only stops when the Start context does.
	go s.fleetSweeper(ctx)
}

// fleetSweeper periodically re-queues expired fleet leases so units
// held by dead runners are re-granted. The tick is a quarter of the
// expiry, clamped to [5ms, 250ms] so tests with millisecond expiries
// observe prompt re-leasing without a busy loop.
func (s *Server) fleetSweeper(ctx context.Context) {
	tick := s.fleet.expiry / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	if tick > 250*time.Millisecond {
		tick = 250 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-t.C:
			s.fleet.sweep(now)
		}
	}
}

// Wait blocks until every worker has returned (after the Start context
// is cancelled).
func (s *Server) Wait() { s.wg.Wait() }

func (s *Server) worker(ctx context.Context) {
	defer s.wg.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.drainCh:
			return
		case j := <-s.queue:
			s.runJob(ctx, j)
		}
	}
}

// DrainReport summarises a graceful shutdown: how many running jobs
// finished inside the grace period, and how many queued/running jobs
// were dropped. Dropped jobs are deliberately left unfinished in the
// journal, so a journaled server recovers them on the next boot.
type DrainReport struct {
	Finished       int
	DroppedQueued  int
	DroppedRunning int
}

// Drain gracefully shuts the worker pool down: stop dequeuing, let
// running jobs finish for up to grace, then hard-cancel the stragglers
// without journaling their terminal state. It journals the clean-
// shutdown marker and closes the journal; call it once, before
// cancelling the Start context. Safe without a journal (the report is
// still meaningful).
func (s *Server) Drain(grace time.Duration) DrainReport {
	s.mu.Lock()
	s.draining = true
	atStart := len(s.running)
	s.mu.Unlock()
	close(s.drainCh)

	// Release every unit currently leased to a runner: reports can no
	// longer be waited on across the grace window, so leased units go
	// back to pending where a surviving runner re-leases them (or an
	// idle local lessee takes them) — instead of dangling on a dead
	// runner's lease until its expiry and forcing the drain to drop
	// the owning plan job. Late reports against the released leases
	// are rejected idempotently.
	s.fleet.releaseAll()

	var rep DrainReport
	// Jobs still queued will never be dequeued (workers stop at the
	// closed drainCh); count them as dropped. A worker already blocked
	// on the queue may still race one job out — that job is simply a
	// running job the drain waits for.
drainQueue:
	for {
		select {
		case <-s.queue:
			rep.DroppedQueued++
		default:
			break drainQueue
		}
	}

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	graceExpired := false
	select {
	case <-done:
	case <-time.After(grace):
		graceExpired = true
		// Grace expired: hard-cancel what is still running. shutdownDrop
		// suppresses the finish journal record so the jobs recover.
		s.mu.Lock()
		stragglers := make([]*Job, 0, len(s.running))
		for _, j := range s.running {
			stragglers = append(stragglers, j)
		}
		s.mu.Unlock()
		for _, j := range stragglers {
			j.mu.Lock()
			j.shutdownDrop = true
			if j.cancel != nil {
				j.cancel()
			}
			j.mu.Unlock()
			rep.DroppedRunning++
		}
		<-done
	}
	if rep.Finished = atStart - rep.DroppedRunning; rep.Finished < 0 || !graceExpired {
		// Everything running at the start (plus any job a worker raced
		// out of the queue) completed inside the grace period.
		rep.Finished = atStart
	}

	if s.journal != nil {
		_ = s.appendRecord(journalRecord{Op: "shutdown"}, true)
		_ = s.journal.Close()
	}
	return rep
}

// runJob executes one queued job end to end: transition to running,
// execute its plan, publishing into the job's event stream; finally
// cache and publish the result document.
func (s *Server) runJob(ctx context.Context, j *Job) {
	jctx, cancel := context.WithCancel(ctx)
	defer cancel()

	j.mu.Lock()
	if j.state != StateQueued { // cancelled while waiting
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.cancel = cancel
	j.publishLocked(Event{Type: "started"})
	j.mu.Unlock()

	s.mu.Lock()
	s.running[j.ID] = j
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.running, j.ID)
		s.mu.Unlock()
	}()

	gz, err := s.runPlan(jctx, j)
	if err != nil {
		j.mu.Lock()
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			j.state = StateCancelled
			j.publishLocked(Event{Type: "cancelled"})
			// A user cancellation is a terminal outcome and is journaled;
			// a shutdown- or process-exit cancellation is not — the job
			// is meant to recover on the next boot.
			drop := j.shutdownDrop || ctx.Err() != nil
			j.mu.Unlock()
			if !drop {
				s.journalFinish(j, StateCancelled)
				s.markFinished(StateCancelled)
			}
			return
		}
		j.state = StateFailed
		j.errMsg = err.Error()
		j.publishLocked(Event{Type: "failed", Error: j.errMsg})
		j.mu.Unlock()
		s.journalFinish(j, StateFailed)
		s.markFinished(StateFailed)
		return
	}
	s.cache.PutStored(resultKey(j.Hash), gz)

	j.mu.Lock()
	j.state = StateDone
	j.result = gz
	j.publishLocked(Event{Type: "done"})
	j.mu.Unlock()
	s.journalFinish(j, StateDone)
	s.markFinished(StateDone)
}

// maxJobEvents bounds one job's share of the event log, so a
// billion-slot run or a maximal grid cannot grow its retained log — or
// every later /events replay — without bound. A single run floors its
// progress period so it emits at most this many progress events; a
// larger plan publishes a thinned unit stream (every ⌈total/cap⌉-th
// completion plus the final one) while the job-view counters still
// advance for every unit.
const maxJobEvents = 512

// runPlan executes a job's plan and returns its result document, as the
// stored (gzip) copy the cache and the job share. Every fresh unit
// result is stored in the content-addressed cache, and the units of a
// multi-unit plan are looked up there before running
// (unless the submission asked for noCache). Every unit still to run is
// parked in the lease table, where this job's local lessees and the
// remote runners compete for it. A single run (kind run: one unit)
// streams slot-level progress events while it runs here, and its
// document is the bare SimResult; every other plan streams "unit"
// completion events with monotonic counters, and its document is the
// assembled PlanResult.
func (s *Server) runPlan(ctx context.Context, j *Job) ([]byte, error) {
	p, compiled := j.plan, j.compiled
	j.plan, j.compiled = nil, nil // used once; don't retain them past the run
	single := p.Kind == dynsched.PlanRun
	var doc []byte // a single run's stored document, set by Store
	opts := dynsched.ExecOptions{
		Metrics: s.metrics.plan,
		Observers: func(u dynsched.PlanUnit) []dynsched.SimObserver {
			engine := s.metrics.sim.NewObserver(0)
			if single {
				return []dynsched.SimObserver{s.progressObserver(j, u.Scenario.Sim.Slots), engine}
			}
			return []dynsched.SimObserver{engine}
		},
		Compiled: func(u dynsched.PlanUnit) *dynsched.CompiledScenario {
			if u.Index == 0 {
				return compiled // the submit-time compilation; nil for a job recovered from the journal
			}
			return nil
		},
		Models: s.models,
		Store: func(u dynsched.PlanUnit, res *dynsched.SimResult) {
			data, err := json.Marshal(res)
			if err != nil {
				return
			}
			gz := s.cache.Put(resultKey(u.Hash), data)
			if single {
				doc = gz // the job's document too: one stored copy, shared with the cache
			}
			if s.journal != nil {
				s.journalUnit(j, u.Index, u.Hash)
				s.dropCheckpoint(u.Hash)
			}
		},
		Dispatch: func(uctx context.Context, u dynsched.PlanUnit, run func(context.Context) (*dynsched.SimResult, error)) (*dynsched.SimResult, error) {
			fu := &fleetUnit{pu: u, owner: j,
				run: func() (*dynsched.SimResult, error) { return run(uctx) }}
			s.fleet.park(fu)
			return s.fleet.wait(uctx, fu)
		},
	}
	if !single {
		opts.OnUnit = unitEvents(j, len(p.Units))
	}
	if !j.noCache && !single { // a single run's unit is the job itself, looked up at submit
		opts.Lookup = func(u dynsched.PlanUnit) (*dynsched.SimResult, bool) {
			data, ok := s.cache.Get(resultKey(u.Hash))
			if !ok {
				return nil, false
			}
			var res dynsched.SimResult
			if err := json.Unmarshal(data, &res); err != nil {
				return nil, false
			}
			return &res, true
		}
	}
	if s.journal != nil && s.cfg.CheckpointEvery > 0 {
		opts.CheckpointEvery = s.cfg.CheckpointEvery
		opts.SaveCheckpoint = func(u dynsched.PlanUnit, cp *sim.Checkpoint) error {
			return s.saveCheckpoint(u.Hash, cp)
		}
		opts.LoadCheckpoint = func(u dynsched.PlanUnit) *sim.Checkpoint {
			cp := s.loadCheckpoint(u.Hash)
			if cp != nil {
				j.mu.Lock()
				j.resumedFromSlot = max(j.resumedFromSlot, cp.Slot)
				j.mu.Unlock()
			}
			return cp
		}
	}

	// The job's local lessees: localN goroutines taking its pending
	// units from the lease table and running them here. The pool parks
	// up to maxFleetInflight units beyond them, so attached runners
	// always find work; with none attached, every unit runs locally.
	localN := par.Workers(p.Source.Sim.Parallel, math.MaxInt)
	switch {
	case s.cfg.FleetLocal > 0:
		localN = s.cfg.FleetLocal
	case s.cfg.FleetLocal < 0:
		localN = 0 // dispatch-only: every unit completes through a runner
	}
	opts.Parallel = localN + maxFleetInflight
	lctx, stop := context.WithCancel(ctx)
	var lessees sync.WaitGroup
	for i := 0; i < min(localN, len(p.Units)); i++ {
		lessees.Add(1)
		go func() {
			defer lessees.Done()
			s.fleet.serveLocal(lctx, j)
		}()
	}
	pr, err := p.Execute(ctx, opts)
	stop()
	lessees.Wait()
	switch {
	case err != nil:
		return nil, err
	case single && doc != nil:
		return doc, nil
	}
	var v any = pr
	if single {
		v = pr.Run // Store could not marshal it: report why
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return s.cache.Compress(raw), nil
}

// progressObserver publishes a single run's slot progress into the
// job's event stream, every ProgressEvery slots (0 = a twentieth of the
// run) floored so the run emits at most maxJobEvents of them.
func (s *Server) progressObserver(j *Job, slots int64) dynsched.SimObserver {
	every := s.cfg.ProgressEvery
	// Ceil division: a floor-divided period would admit up to 2x-1 the
	// intended event count for slot counts just above the cap.
	if floor := (slots + maxJobEvents - 1) / maxJobEvents; every > 0 && every < floor {
		every = floor
	}
	return sim.NewProgressObserver(slots, every, func(p sim.Progress) {
		if p.Done {
			// The terminal done/cancelled/failed event carries the
			// outcome; a trailing progress snapshot would race it.
			return
		}
		snap := p
		j.publish(Event{Type: "progress", Progress: &snap})
	})
}

// unitEvents streams a plan's unit completions into the job: the view
// counters advance for every unit, and the event log keeps a thinned
// "unit" stream of at most maxJobEvents entries.
func unitEvents(j *Job, total int) func(dynsched.PlanUnit, bool, error, dynsched.PlanProgress) {
	stride := (total + maxJobEvents - 1) / maxJobEvents
	return func(u dynsched.PlanUnit, cached bool, err error, prog dynsched.PlanProgress) {
		if err != nil {
			// The terminal failed/cancelled event carries the outcome;
			// per-unit errors are not separate stream entries.
			return
		}
		j.mu.Lock()
		defer j.mu.Unlock()
		j.unitsDone, j.unitsCached = prog.Done, prog.Cached
		if prog.Done%stride != 0 && prog.Done != prog.Total {
			// Thinned out of the stream; the view's counter lets
			// clients report how many completions were elided.
			j.eventsDropped++
			return
		}
		j.publishLocked(Event{Type: "unit", Unit: &UnitEvent{
			Index:       u.Index,
			Hash:        u.Hash,
			Coords:      u.Coords,
			Cached:      cached,
			UnitsDone:   prog.Done,
			UnitsCached: prog.Cached,
			UnitsTotal:  prog.Total,
		}})
	}
}

// viewUnits is the unit count a job view reports for the plan: a
// single run's view carries no unit counters.
func viewUnits(p *dynsched.Plan) int {
	if p.Kind == dynsched.PlanRun {
		return 0
	}
	return len(p.Units)
}

// submitPlan registers and enqueues a job for the plan, serving the
// document from the result cache when the identical job already ran
// (unless noCache — then every unit simulates afresh too). Per-unit
// cache consultation happens in the worker; a plan-level miss with
// full per-unit hits still runs zero simulations. Only a submission
// that will run compiles: its first unit, through the model cache, so
// an unbuildable spec fails here as a *specError rather than in the
// worker (units differ only in resolved parameter values, so the first
// stands in for all). That compilation rides along to the worker as
// unit 0's. It returns the job and whether it was served from cache;
// errQueueFull when the queue is at capacity.
func (s *Server) submitPlan(p *dynsched.Plan, noCache bool) (*Job, bool, error) {
	// A single run's document is the bare SimResult, cached under its
	// scenario hash; every other plan's is the PlanResult, cached under
	// the plan hash.
	hash := p.Hash()
	if p.Kind == dynsched.PlanRun {
		hash = p.Source.Hash()
	}
	n := viewUnits(p)
	if !noCache {
		if gz, ok := s.cache.Stored(resultKey(hash)); ok {
			j := newJob(s.allocID(), hash, p.Source)
			j.state = StateDone
			j.cached = true
			j.result = gz
			j.unitsTotal, j.unitsDone, j.unitsCached = n, n, n
			j.publish(Event{Type: "done", Cached: true})
			s.register(j)
			s.metrics.jobsSubmitted.With(string(p.Kind)).Inc()
			s.markFinished(StateDone)
			return j, true, nil
		}
	}
	compiled, err := s.models.Compile(p.Units[0].Scenario)
	if err != nil {
		return nil, false, &specError{err}
	}
	if s.isDraining() {
		return nil, false, errQueueFull
	}
	j := newJob(s.allocID(), hash, p.Source)
	j.plan = p
	j.compiled = compiled
	j.noCache = noCache
	j.unitsTotal = n
	j.publish(Event{Type: "queued"})
	select {
	case s.queue <- j:
	default:
		return nil, false, errQueueFull
	}
	s.register(j)
	s.journalSubmit(j, p.Reps)
	s.metrics.jobsSubmitted.With(string(p.Kind)).Inc()
	return j, false, nil
}

// isDraining reports whether Drain has begun; draining servers reject
// new submissions (they could never run).
func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

var errQueueFull = errors.New("job queue is full")

// specError is a submission whose first unit does not compile.
type specError struct{ err error }

func (e *specError) Error() string { return e.err.Error() }

func (s *Server) allocID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	return fmt.Sprintf("job-%d", s.nextID)
}

// register adds the job to the registry, forgetting the oldest
// terminal jobs beyond the MaxJobs bound.
func (s *Server) register(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	if len(s.order) <= s.cfg.MaxJobs {
		return
	}
	kept := s.order[:0]
	excess := len(s.order) - s.cfg.MaxJobs
	for _, id := range s.order {
		if excess > 0 && s.jobs[id].currentState().Terminal() {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// jobCount returns the number of registered jobs.
func (s *Server) jobCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// job looks a registered job up.
func (s *Server) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// jobList snapshots every registered job in submission order.
func (s *Server) jobList() []JobView {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobView, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.View())
	}
	return out
}

// queueLen returns the number of jobs waiting for a worker.
func (s *Server) queueLen() int { return len(s.queue) }

// RecoveredJobs reports how many incomplete jobs startup recovery
// re-enqueued from the journal.
func (s *Server) RecoveredJobs() int { return s.recovered }
