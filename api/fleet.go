package api

import (
	"encoding/json"

	"dynsched"
)

// The fleet wire types: the /v1/fleet lease protocol a worker runner
// (`dynschedd -join <coordinator>`) speaks against a coordinator, and
// the fleet section of the /healthz document.
//
// The protocol is deliberately batch-oriented so throughput amortizes
// round-trip time: a runner leases a *batch* of plan units per request
// (sized by its adaptive controller), executes them with the ordinary
// engine, and streams completed results back in batched reports over a
// reused keep-alive connection. Report bodies are gzip-compressed;
// lease responses are gzip-compressed when the client accepts it.
//
//	POST /v1/fleet/lease      lease a batch of units (long-polls up to
//	                          waitMs when none are pending)
//	POST /v1/fleet/report     report completed units, renew the
//	                          runner's outstanding leases
//	POST /v1/fleet/heartbeat  register liveness and renew leases

// LeaseRequest is the POST /v1/fleet/lease body.
type LeaseRequest struct {
	// Runner is the runner's self-assigned stable identity
	// (host-pid-suffix); the coordinator tracks liveness, leases and
	// throughput per runner and excludes a lease-expired runner from
	// re-leases of the units it lost.
	Runner string `json:"runner"`
	// Want is how many units the runner's batch controller asks for.
	// The coordinator may grant fewer: its fair-share cap divides
	// pending units across active runners so one runner cannot starve
	// the rest of the fleet.
	Want int `json:"want"`
	// WaitMs long-polls: when no units are pending, the coordinator
	// parks the request up to this long before answering with an empty
	// batch, so idle runners do not hot-poll.
	WaitMs int64 `json:"waitMs,omitempty"`
}

// LeasedUnit is one granted unit of a lease batch.
type LeasedUnit struct {
	// Lease is the grant's unique ID; reports must quote it. A lease
	// that expires before its report arrives is re-granted under a new
	// ID, and the late report against the stale ID is rejected — the
	// exactly-once merge guard.
	Lease uint64 `json:"lease"`
	// Hash is the unit's content address (its resolved Scenario.Hash);
	// reports echo it and the coordinator cross-checks.
	Hash string `json:"hash"`
	// Scenario is the fully-resolved single-run spec to execute.
	Scenario dynsched.Scenario `json:"scenario"`
}

// LeaseResponse is the POST /v1/fleet/lease answer. An empty Units
// slice means nothing was pending within the long-poll window.
type LeaseResponse struct {
	Units []LeasedUnit `json:"units"`
	// ExpiryMs is the lease lifetime: a runner must report or renew
	// (heartbeat) within it or the units are re-leased without it.
	ExpiryMs int64 `json:"expiryMs"`
	// Runners is the coordinator's current active-runner count — input
	// to the runner's batch controller.
	Runners int `json:"runners"`
}

// UnitReport is one completed unit in a report batch.
type UnitReport struct {
	Lease uint64 `json:"lease"`
	Hash  string `json:"hash"`
	// Result is the marshaled SimResult on success.
	Result json.RawMessage `json:"result,omitempty"`
	// Error carries an execution failure (compile error, model
	// rejection); the coordinator fails the owning plan with it.
	Error string `json:"error,omitempty"`
}

// ReportRequest is the POST /v1/fleet/report body, sent with
// Content-Encoding: gzip. Reporting renews the runner's remaining
// leases as a side effect, so a busy runner needs no separate
// heartbeat traffic.
type ReportRequest struct {
	Runner  string       `json:"runner"`
	Results []UnitReport `json:"results"`
}

// ReportResponse acknowledges a report batch.
type ReportResponse struct {
	// Merged counts results accepted and merged into their plans.
	Merged int `json:"merged"`
	// Rejected counts stale results: the lease expired and the unit was
	// re-granted (or the plan was cancelled) before the report arrived.
	// Rejection is idempotent — the unit is merged exactly once, by
	// whichever lease reports first while still valid.
	Rejected int `json:"rejected"`
	// ExpiryMs mirrors the current lease lifetime (renewal deadline).
	ExpiryMs int64 `json:"expiryMs"`
}

// HeartbeatRequest is the POST /v1/fleet/heartbeat body: pure liveness,
// renewing every lease the runner holds.
type HeartbeatRequest struct {
	Runner string `json:"runner"`
}

// HeartbeatResponse answers a heartbeat.
type HeartbeatResponse struct {
	ExpiryMs int64 `json:"expiryMs"`
	Runners  int   `json:"runners"`
}

// FleetHealth is the fleet section of the /healthz document.
type FleetHealth struct {
	// Runners is the number of active (recently heard-from) runners.
	Runners int `json:"runners"`
	// PendingUnits is how many plan units are parked awaiting a lease.
	PendingUnits int `json:"pendingUnits"`
	// Leased is how many units are currently out on a lease.
	Leased int `json:"leased"`
	// LeasedTotal counts every lease grant since boot; ReLeased counts
	// grants that re-issued a unit after its previous lease expired or
	// was released — the lease-thrash signal.
	LeasedTotal int64 `json:"leasedTotal"`
	ReLeased    int64 `json:"reLeased"`
	// Merged/Rejected count reported unit results by fate.
	Merged   int64 `json:"merged"`
	Rejected int64 `json:"rejected"`
	// DispatchOnly marks a coordinator that runs no unit itself
	// (-fleet-local < 0): its pending units wait for a runner, so
	// pending units with no runner on the roster are starved. On any
	// other server its own local lessees take them.
	DispatchOnly bool `json:"dispatchOnly,omitempty"`
	// RunnerDetail lists the per-runner vitals, sorted by ID.
	RunnerDetail []RunnerHealth `json:"runnerDetail,omitempty"`
}

// RunnerHealth is one runner's row in the fleet health document.
type RunnerHealth struct {
	ID string `json:"id"`
	// Leased is how many units the runner currently holds.
	Leased int `json:"leased"`
	// UnitsDone counts results this runner has had merged.
	UnitsDone int64 `json:"unitsDone"`
	// UnitsPerSec is the runner's merge throughput since it joined —
	// the straggler-detection signal.
	UnitsPerSec float64 `json:"unitsPerSec"`
	// IdleMs is how long ago the coordinator last heard from it.
	IdleMs int64 `json:"idleMs"`
}
