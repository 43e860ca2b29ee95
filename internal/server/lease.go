package server

// The lease table: every fresh plan unit dynschedd executes is parked
// here (park), and the goroutine that dispatched it blocks in wait
// until the unit completes. Two kinds of lessee take units from the
// one pending queue, competing under the table's lock:
//
//   - a local lessee — one of the goroutines each job starts, sized by
//     Config.FleetLocal or the scenario's Sim.Parallel — takes a
//     pending unit of its own job and runs it in this process;
//   - a remote runner leases a batch over HTTP and reports the results.
//
// A local take holds no expiring lease, so neither the sweeper nor a
// drain ever touches it. Remote leases carry an expiry renewed by
// reports and heartbeats; the sweeper puts units whose lease lapsed
// back on pending — where an idle local lessee or another runner takes
// them — excluding the presumed-dead runner from the re-grant so a
// zombie cannot keep re-acquiring work it never finishes. A cancelled
// plan withdraws its pending and leased units. Merge is exactly once:
// a lease ID is valid for one report, a unit's content hash is
// cross-checked, and late reports against expired leases are rejected
// idempotently.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"dynsched"
	"dynsched/api"
)

// Unit lifecycle (fleetUnit.state, guarded by leaseManager.mu).
const (
	unitPending   = iota // parked, awaiting a local lessee or a lease
	unitLocal            // taken by a local lessee, which completes it
	unitLeased           // out with a runner
	unitDone             // a report was merged (or failed the unit)
	unitWithdrawn        // abandoned by cancellation
)

// fleetUnit is one plan unit parked in the lease table.
type fleetUnit struct {
	pu dynsched.PlanUnit
	// owner is the job whose local lessees may take the unit; run is
	// its local execution, bound to the unit's context.
	owner *Job
	run   func() (*dynsched.SimResult, error)

	// done closes exactly once, when the unit completes; res/err are
	// written before the close and read only after it.
	done chan struct{}
	res  *dynsched.SimResult
	err  error

	// Guarded by leaseManager.mu.
	state    int
	leaseID  uint64
	runner   string
	deadline time.Time
	excluded map[string]bool
	grants   int
}

// runnerState is the coordinator's bookkeeping for one runner.
type runnerState struct {
	id        string
	firstSeen time.Time
	lastSeen  time.Time
	leased    int
	unitsDone int64
}

// fleetCounters are the manager's monotonic totals, read into both
// /healthz and /metrics (all guarded by mu).
type fleetCounters struct {
	leasedTotal int64 // lease grants
	reLeased    int64 // grants that re-issued a previously-leased unit
	merged      int64 // reports accepted and merged
	rejected    int64 // reports rejected (stale lease, hash mismatch)
}

// leaseManager is the coordinator's lease table.
type leaseManager struct {
	expiry   time.Duration
	batchMax int

	mu      sync.Mutex
	pending []*fleetUnit
	leased  map[uint64]*fleetUnit
	runners map[string]*runnerState
	nextID  uint64
	counts  fleetCounters
	wake    chan struct{} // closed and replaced whenever pending grows

	m *serverMetrics // nil-safe: only counter hooks are touched
}

// Defaults for the lease protocol.
const (
	defaultLeaseExpiry   = 15 * time.Second
	defaultFleetBatchMax = 64
	// maxFleetInflight bounds how many units one plan parks beyond its
	// local lessees at a time.
	maxFleetInflight = 256
	// runnerForgetAfter is how many expiry periods of silence before a
	// runner disappears from the fleet roster. Its leases expire first
	// (deadline <= lastSeen + expiry), so forgetting drops no units.
	runnerForgetAfter = 3
)

func newLeaseManager(expiry time.Duration, batchMax int, m *serverMetrics) *leaseManager {
	if expiry <= 0 {
		expiry = defaultLeaseExpiry
	}
	if batchMax <= 0 {
		batchMax = defaultFleetBatchMax
	}
	return &leaseManager{
		expiry:   expiry,
		batchMax: batchMax,
		leased:   map[uint64]*fleetUnit{},
		runners:  map[string]*runnerState{},
		wake:     make(chan struct{}),
		m:        m,
	}
}

// park queues the unit for a local lessee or a remote lease.
func (lm *leaseManager) park(fu *fleetUnit) {
	fu.done = make(chan struct{})
	lm.mu.Lock()
	fu.state = unitPending
	lm.pending = append(lm.pending, fu)
	lm.wakeLocked()
	lm.mu.Unlock()
}

// wait blocks until the parked unit completes and returns its outcome.
// When ctx ends first, a pending or leased unit is withdrawn and wait
// returns ctx's error; a unit a local lessee is running shares ctx, so
// wait lets it return its partial result.
func (lm *leaseManager) wait(ctx context.Context, fu *fleetUnit) (*dynsched.SimResult, error) {
	select {
	case <-fu.done:
	case <-ctx.Done():
		if lm.abandon(fu) {
			return nil, ctx.Err()
		}
		<-fu.done
	}
	return fu.res, fu.err
}

// serveLocal is one local lessee of the owner job: it takes the job's
// pending units one at a time and runs them on this goroutine, until
// ctx ends.
func (lm *leaseManager) serveLocal(ctx context.Context, owner *Job) {
	for {
		fu, wake := lm.takeLocal(owner)
		if fu == nil {
			select {
			case <-wake:
				continue
			case <-ctx.Done():
				return
			}
		}
		fu.res, fu.err = fu.run()
		close(fu.done)
	}
}

// takeLocal withdraws the owner's first pending unit for local
// execution. With none pending it returns the channel the next park or
// lease release closes.
func (lm *leaseManager) takeLocal(owner *Job) (*fleetUnit, <-chan struct{}) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	for i, fu := range lm.pending {
		if fu.owner == owner {
			lm.removePendingAtLocked(i)
			fu.state = unitLocal
			return fu, nil
		}
	}
	return nil, lm.wake
}

// abandon withdraws a unit whose plan was cancelled: pending units
// leave the queue, leased units have their lease invalidated so the
// eventual report is rejected. It reports false for a unit that is
// already completing — run locally or merged — whose done will close.
func (lm *leaseManager) abandon(fu *fleetUnit) bool {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	switch fu.state {
	case unitPending:
		for i, p := range lm.pending {
			if p == fu {
				lm.removePendingAtLocked(i)
				break
			}
		}
	case unitLeased:
		delete(lm.leased, fu.leaseID)
		if r := lm.runners[fu.runner]; r != nil && r.leased > 0 {
			r.leased--
		}
	default:
		return false
	}
	fu.state = unitWithdrawn
	return true
}

// removePendingAtLocked drops pending[i] (order preserved), clearing
// the vacated tail slot: the backing array must not keep a finished
// unit — and the compiled model its run closure holds — alive.
// Callers must hold mu.
func (lm *leaseManager) removePendingAtLocked(i int) {
	n := len(lm.pending) - 1
	copy(lm.pending[i:], lm.pending[i+1:])
	lm.pending[n] = nil
	lm.pending = lm.pending[:n]
}

// wakeLocked signals every parked lease long-poll and idle local
// lessee. Callers must hold mu.
func (lm *leaseManager) wakeLocked() {
	close(lm.wake)
	lm.wake = make(chan struct{})
}

// touchLocked records liveness for the runner, creating its roster
// entry on first contact. Callers must hold mu.
func (lm *leaseManager) touchLocked(id string, now time.Time) *runnerState {
	r := lm.runners[id]
	if r == nil {
		r = &runnerState{id: id, firstSeen: now}
		lm.runners[id] = r
	}
	r.lastSeen = now
	return r
}

// lease grants up to want pending units to the runner, long-polling up
// to wait when nothing is pending. The grant is capped by the batch
// bound and by a fair share — ceil(pending / active runners) — so one
// greedy runner cannot starve the fleet. Units whose previous lease
// expired on this runner are excluded from it unless it is the only
// runner left (starvation escape hatch). Returns the granted units and
// the active-runner count.
func (lm *leaseManager) lease(done <-chan struct{}, runner string, want int, wait time.Duration) ([]*fleetUnit, int) {
	if want < 1 {
		want = 1
	}
	deadline := time.Now().Add(wait)
	for {
		now := time.Now()
		lm.mu.Lock()
		lm.touchLocked(runner, now)
		active := len(lm.runners)
		var grant []*fleetUnit
		if n := len(lm.pending); n > 0 {
			quota := min(want, lm.batchMax)
			if share := (n + active - 1) / active; share < quota {
				quota = share
			}
			if quota < 1 {
				quota = 1
			}
			kept := lm.pending[:0]
			for _, fu := range lm.pending {
				if len(grant) < quota && (!fu.excluded[runner] || active == 1) {
					grant = append(grant, fu)
					continue
				}
				kept = append(kept, fu)
			}
			clear(lm.pending[len(kept):]) // granted units must not linger in the backing array
			lm.pending = kept
			r := lm.runners[runner]
			for _, fu := range grant {
				lm.nextID++
				fu.state = unitLeased
				fu.leaseID = lm.nextID
				fu.runner = runner
				fu.deadline = now.Add(lm.expiry)
				fu.grants++
				lm.leased[fu.leaseID] = fu
				lm.counts.leasedTotal++
				if fu.grants > 1 {
					lm.counts.reLeased++
				}
				r.leased++
			}
		}
		wake := lm.wake
		lm.mu.Unlock()
		if len(grant) > 0 {
			lm.m.fleetLeased(len(grant))
			return grant, active
		}
		if remain := time.Until(deadline); remain <= 0 {
			return nil, active
		} else {
			timer := time.NewTimer(min(remain, lm.expiry))
			select {
			case <-wake:
			case <-timer.C:
			case <-done:
				timer.Stop()
				return nil, active
			}
			timer.Stop()
		}
	}
}

// errStaleLease rejects a report whose lease is no longer valid: it
// expired and the unit was re-granted, the unit completed through
// another path, or the plan was cancelled.
var errStaleLease = errors.New("stale lease")

// report merges one unit result. Exactly-once: the lease ID is
// consumed here under the lock, the unit hash is cross-checked, and
// any later report for the same lease (or an expired one) gets
// errStaleLease — never a second merge.
func (lm *leaseManager) report(runner string, rep api.UnitReport) error {
	now := time.Now()
	lm.mu.Lock()
	fu := lm.leased[rep.Lease]
	if fu == nil || fu.state != unitLeased || fu.runner != runner || fu.pu.Hash != rep.Hash {
		lm.counts.rejected++
		lm.mu.Unlock()
		lm.m.fleetReport("rejected")
		return errStaleLease
	}
	delete(lm.leased, rep.Lease)
	fu.state = unitDone
	r := lm.touchLocked(runner, now)
	if r.leased > 0 {
		r.leased--
	}
	r.unitsDone++
	lm.counts.merged++
	lm.mu.Unlock()

	if rep.Error != "" {
		fu.err = fmt.Errorf("runner %s: %s", runner, rep.Error)
		lm.m.fleetReport("failed")
	} else {
		res := new(dynsched.SimResult)
		if err := json.Unmarshal(rep.Result, res); err != nil {
			fu.err = fmt.Errorf("runner %s: undecodable result for unit %s: %v", runner, rep.Hash, err)
			lm.m.fleetReport("failed")
		} else {
			fu.res = res
			lm.m.fleetReport("merged")
		}
	}
	close(fu.done)
	return nil
}

// renew extends every lease the runner holds and records liveness.
func (lm *leaseManager) renew(runner string) int {
	now := time.Now()
	lm.mu.Lock()
	defer lm.mu.Unlock()
	lm.touchLocked(runner, now)
	deadline := now.Add(lm.expiry)
	n := 0
	for _, fu := range lm.leased {
		if fu.runner == runner {
			fu.deadline = deadline
			n++
		}
	}
	return n
}

// sweep re-queues units whose lease expired — excluding the lapsed
// runner from the re-grant — and forgets runners silent for several
// expiry periods. Returns how many units were released.
func (lm *leaseManager) sweep(now time.Time) int {
	lm.mu.Lock()
	released := lm.releaseLocked(func(fu *fleetUnit) bool { return now.After(fu.deadline) }, true)
	for id, r := range lm.runners {
		if now.Sub(r.lastSeen) > time.Duration(runnerForgetAfter)*lm.expiry {
			delete(lm.runners, id)
		}
	}
	lm.mu.Unlock()
	lm.m.fleetReleased(released)
	return released
}

// releaseAll returns every leased unit to the pending queue without
// excluding its holder — the draining coordinator's path: reports can
// no longer be relied on, so outstanding units must become grantable
// (to surviving runners) or locally runnable again instead of
// dangling on dead leases past the drain grace.
func (lm *leaseManager) releaseAll() int {
	lm.mu.Lock()
	released := lm.releaseLocked(func(*fleetUnit) bool { return true }, false)
	lm.mu.Unlock()
	lm.m.fleetReleased(released)
	return released
}

// releaseLocked moves leased units matching expired back to pending.
// exclude marks the lapsed runner so the re-grant goes elsewhere.
// Callers must hold mu.
func (lm *leaseManager) releaseLocked(expired func(*fleetUnit) bool, exclude bool) int {
	released := 0
	for id, fu := range lm.leased {
		if !expired(fu) {
			continue
		}
		delete(lm.leased, id)
		if r := lm.runners[fu.runner]; r != nil && r.leased > 0 {
			r.leased--
		}
		if exclude {
			if fu.excluded == nil {
				fu.excluded = map[string]bool{}
			}
			fu.excluded[fu.runner] = true
		}
		fu.state = unitPending
		lm.pending = append(lm.pending, fu)
		released++
	}
	if released > 0 {
		lm.wakeLocked()
	}
	return released
}

// snapshot assembles the /healthz fleet section.
func (lm *leaseManager) snapshot() *api.FleetHealth {
	now := time.Now()
	lm.mu.Lock()
	defer lm.mu.Unlock()
	h := &api.FleetHealth{
		Runners:      len(lm.runners),
		PendingUnits: len(lm.pending),
		Leased:       len(lm.leased),
		LeasedTotal:  lm.counts.leasedTotal,
		ReLeased:     lm.counts.reLeased,
		Merged:       lm.counts.merged,
		Rejected:     lm.counts.rejected,
	}
	for _, r := range lm.runners {
		age := now.Sub(r.firstSeen)
		if age <= 0 {
			age = time.Millisecond
		}
		h.RunnerDetail = append(h.RunnerDetail, api.RunnerHealth{
			ID:          r.id,
			Leased:      r.leased,
			UnitsDone:   r.unitsDone,
			UnitsPerSec: float64(r.unitsDone) / age.Seconds(),
			IdleMs:      now.Sub(r.lastSeen).Milliseconds(),
		})
	}
	sort.Slice(h.RunnerDetail, func(i, j int) bool { return h.RunnerDetail[i].ID < h.RunnerDetail[j].ID })
	return h
}

// occupancy reports the live gauge readings (runners, pending, leased).
func (lm *leaseManager) occupancy() (runners, pending, leased int) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return len(lm.runners), len(lm.pending), len(lm.leased)
}
