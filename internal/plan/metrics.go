package plan

import (
	"time"

	"dynsched/internal/metrics"
)

// Metrics is the planner's instrument bundle: how many units ran
// fresh, were served from the cache, or failed, and the wall time of
// the fresh runs. It counts work where it happens — a unit executed by
// a remote runner is counted by that runner's bundle, not by the
// coordinator's — so UnitSeconds measures local execution cost only:
// a runner's batch controller sizes leases from its own histogram.
// One bundle serves every plan executed by the same process
// (dynschedd shares one across all jobs).
type Metrics struct {
	UnitsRun    *metrics.Counter
	UnitsCached *metrics.Counter
	UnitsFailed *metrics.Counter
	UnitSeconds *metrics.Histogram
}

// unitSecondsBuckets spans 1ms to ~17min: CI-scale units finish in
// milliseconds, full-length sweep units in seconds to minutes.
var unitSecondsBuckets = metrics.ExpBuckets(0.001, 2, 20)

// NewMetrics registers the planner instruments on r (idempotent).
func NewMetrics(r *metrics.Registry) *Metrics {
	units := r.CounterVec("dynsched_plan_units_total", "Plan units by outcome: run fresh, served from cache, or failed.", "outcome")
	return &Metrics{
		UnitsRun:    units.With("run"),
		UnitsCached: units.With("cached"),
		UnitsFailed: units.With("failed"),
		UnitSeconds: r.Histogram("dynsched_plan_unit_seconds", "Wall time of freshly-executed plan units (cache hits excluded).", unitSecondsBuckets),
	}
}

// ObserveCached records one cache-served unit. A nil bundle is a
// no-op.
func (m *Metrics) ObserveCached() {
	if m == nil {
		return
	}
	m.UnitsCached.Inc()
}

// ObserveRun records one freshly-executed unit and its wall time (a
// failure counts as failed, without a time). A nil bundle is a no-op.
func (m *Metrics) ObserveRun(d time.Duration, err error) {
	if m == nil {
		return
	}
	if err != nil {
		m.UnitsFailed.Inc()
		return
	}
	m.UnitsRun.Inc()
	m.UnitSeconds.Observe(d.Seconds())
}
