package server

import (
	"context"
	"sync"

	"dynsched"
	"dynsched/api"
)

// The wire types live in the exported dynsched/api package so external
// clients can decode service responses; the server aliases them rather
// than redefining parallel shapes that could drift.
type (
	// State is a job's lifecycle phase.
	State = api.State
	// Event is one entry of a job's NDJSON progress stream.
	Event = api.Event
	// JobView is the API representation of a job.
	JobView = api.JobView
	// SubmitRequest is the POST /v1/jobs body.
	SubmitRequest = api.SubmitRequest
	// ScenarioInfo is one GET /v1/scenarios entry.
	ScenarioInfo = api.ScenarioInfo
	// UnitEvent is the payload of a plan job's per-unit events.
	UnitEvent = api.UnitEvent
)

// Job lifecycle states, re-exported for the server's own transitions.
const (
	StateQueued    = api.StateQueued
	StateRunning   = api.StateRunning
	StateDone      = api.StateDone
	StateFailed    = api.StateFailed
	StateCancelled = api.StateCancelled
)

// Job is one submitted simulation. All mutable state is guarded by mu;
// the event log grows append-only and cond wakes streamers when it
// does.
type Job struct {
	ID       string
	Hash     string
	Scenario dynsched.Scenario

	mu     sync.Mutex
	cond   *sync.Cond
	state  State
	cached bool
	errMsg string
	result []byte // the stored (gzip) result document, shared with the cache
	events []Event
	// cancelRequested makes requestCancel idempotent: only the first
	// DELETE reports having changed anything.
	cancelRequested bool
	cancel          context.CancelFunc

	// unitsTotal/unitsDone/unitsCached track a multi-unit plan's
	// progress (zero for single-run jobs). unitsTotal is set before the
	// job is visible and never changes; the other two advance under mu
	// as units complete.
	unitsTotal  int
	unitsDone   int
	unitsCached int

	// eventsDropped counts unit completions elided from the event
	// stream by thinning (plans beyond maxJobEvents units), advanced
	// under mu alongside the units counters.
	eventsDropped int

	// recovered marks a job restored from the journal after a restart;
	// resumedFromSlot is the highest slot any of its simulations resumed
	// from via an on-disk checkpoint.
	recovered       bool
	resumedFromSlot int64

	// shutdownDrop marks a job hard-cancelled by a draining shutdown:
	// its terminal state is NOT journaled, so the next boot recovers it.
	shutdownDrop bool

	// compiled carries the submit-time compilation (done there so bad
	// specs fail the POST synchronously) to the one worker that runs the
	// job, which clears it — no recompilation needed. Only that worker
	// touches it after construction; the queue send orders the accesses.
	compiled *dynsched.CompiledScenario

	// plan is what the worker executes — a single run is a 1-unit plan
	// — consulting the result cache per unit unless noCache. Like
	// compiled, only the one worker touches it after construction.
	plan    *dynsched.Plan
	noCache bool
}

func newJob(id, hash string, sc dynsched.Scenario) *Job {
	j := &Job{ID: id, Hash: hash, Scenario: sc, state: StateQueued}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// publishLocked appends an event to the log (stamping Seq and Job) and
// wakes every waiting streamer. Callers must hold j.mu.
func (j *Job) publishLocked(e Event) {
	e.Seq = len(j.events)
	e.Job = j.ID
	j.events = append(j.events, e)
	j.cond.Broadcast()
}

// publish is publishLocked for callers not holding the lock.
func (j *Job) publish(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.publishLocked(e)
}

// currentState reads the job's state without building a view.
func (j *Job) currentState() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// View snapshots the job for the API, without its result document.
func (j *Job) View() JobView {
	v, _ := j.snapshot()
	return v
}

// snapshot is View plus, for a done job, its stored (gzip) result
// document.
func (j *Job) snapshot() (JobView, []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:              j.ID,
		Hash:            j.Hash,
		Scenario:        j.Scenario.Name,
		State:           j.state,
		Cached:          j.cached,
		Error:           j.errMsg,
		UnitsTotal:      j.unitsTotal,
		UnitsDone:       j.unitsDone,
		UnitsCached:     j.unitsCached,
		Recovered:       j.recovered,
		ResumedFromSlot: j.resumedFromSlot,
		Events:          len(j.events),
		EventsDropped:   j.eventsDropped,
	}
	if j.state != StateDone {
		return v, nil
	}
	return v, j.result
}

// event blocks until the job's i-th event exists and returns it. It
// returns ok=false when ctx is done first; the caller must have
// arranged for a broadcast on ctx cancellation (see streamEvents).
func (j *Job) event(ctx context.Context, i int) (Event, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i >= len(j.events) {
		if ctx.Err() != nil {
			return Event{}, false
		}
		j.cond.Wait()
	}
	return j.events[i], true
}

// requestCancel asks the job to stop. A queued job transitions to
// cancelled immediately (the worker will skip it); a running job has
// its run context cancelled and the worker publishes the terminal
// event. Terminal jobs are left untouched. It reports whether the
// request changed anything, and whether the job went terminal right
// here (so the caller can journal the outcome — the worker journals
// the running case). Because both this transition and the worker's
// queued→running transition happen under j.mu, a DELETE cannot slip
// between them: the job is either still queued (cancelled here) or
// already running (cancelled through its context).
func (j *Job) requestCancel() (changed, cancelledNow bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() || j.cancelRequested {
		return false, false
	}
	j.cancelRequested = true
	switch j.state {
	case StateQueued:
		j.state = StateCancelled
		j.publishLocked(Event{Type: "cancelled"})
		cancelledNow = true
	case StateRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
	return true, cancelledNow
}
