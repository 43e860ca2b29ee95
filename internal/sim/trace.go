// Engine tracing: a zero-allocation observer that streams the hot
// loop's vital signs — slots executed, packets injected/delivered,
// and a sampled per-slot wall-time histogram — into shared
// internal/metrics instruments, so an operator can read slots/sec and
// engine latency off GET /metrics while simulations run.
//
// The design keeps the per-slot cost to one integer decrement:
// counters accumulate in plain (engine-goroutine-local) fields and
// are flushed to the shared atomics only at sample points, and slot
// timing captures two time.Now() readings per sample window (the
// duration of exactly one slot every SampleEvery slots). Nothing on
// the OnInject/OnDeliver/OnSlot paths allocates, which is pinned by
// the repository's steady-state allocation guards with the observer
// attached.
package sim

import (
	"time"

	"dynsched/internal/inject"
	"dynsched/internal/interference"
	"dynsched/internal/metrics"
)

// EngineMetrics is the bundle of shared engine instruments. One bundle
// serves any number of concurrent simulations: each run attaches its
// own Observer (per-run sampling state), all flushing into the same
// counters and histogram.
type EngineMetrics struct {
	Slots       *metrics.Counter
	Injected    *metrics.Counter
	Delivered   *metrics.Counter
	SlotSeconds *metrics.Histogram

	// Intra-slot resolution instruments: the worker count the most
	// recently started run resolves with, the cumulative
	// delta-vs-rebuild accounting of spatially-indexed resolvers, and
	// their re-walked verdicts.
	ResolveWorkers   *metrics.Gauge
	GridRebuilds     *metrics.Counter
	GridDeltaUpdates *metrics.Counter
	Rewalks          *metrics.Counter
}

// slotSecondsBuckets spans ~100ns to ~0.4s: identity-model slots
// resolve in hundreds of nanoseconds, million-link indexed slots in
// tens of microseconds, and anything past a millisecond is worth
// seeing in detail on the way to the +Inf bucket.
var slotSecondsBuckets = metrics.ExpBuckets(1e-7, 4, 12)

// NewEngineMetrics registers the engine instruments on r (idempotent —
// re-registering returns the same instruments).
func NewEngineMetrics(r *metrics.Registry) *EngineMetrics {
	return &EngineMetrics{
		Slots:       r.Counter("dynsched_sim_slots_total", "Simulation slots executed across all runs."),
		Injected:    r.Counter("dynsched_sim_injected_total", "Packets injected across all runs."),
		Delivered:   r.Counter("dynsched_sim_delivered_total", "Packets delivered across all runs."),
		SlotSeconds: r.Histogram("dynsched_sim_slot_seconds", "Sampled wall time of one simulation slot (injection, resolution, delivery, observers).", slotSecondsBuckets),
		ResolveWorkers: r.Gauge("dynsched_sim_resolve_workers",
			"Intra-slot resolver worker count of the most recently started run (1 = serial)."),
		GridRebuilds: r.Counter("dynsched_sim_grid_rebuilds_total",
			"Spatial interference grids rebuilt from scratch across all runs."),
		GridDeltaUpdates: r.Counter("dynsched_sim_grid_delta_updates_total",
			"Spatial interference grid slots served by the incremental joined/left delta path across all runs."),
		Rewalks: r.Counter("dynsched_sim_rewalks_total",
			"Indexed SINR verdicts the certified far-cell tail left undecided, walked again with exact powers, across all runs."),
	}
}

// DefaultTraceSample is the default sampling period of the tracing
// observer: one timed slot (and one counter flush) per this many
// slots.
const DefaultTraceSample = 256

// MetricsObserver streams one run's engine activity into an
// EngineMetrics bundle. It holds per-run state only, so a fresh
// observer is needed per simulation (NewObserver); the shared bundle
// side is atomic and safe across concurrently running simulations.
type MetricsObserver struct {
	BaseObserver
	m     *EngineMetrics
	every int64

	// Locally accumulated deltas, flushed at sample points and OnEnd.
	slots     int64
	injected  int64
	delivered int64

	countdown int64
	armed     bool
	start     time.Time

	// resolveStats reports the run's own resolver accounting
	// (ResolveObserver), so OnEnd adds exactly this run's grid work to
	// the shared counters.
	resolveStats func() interference.ResolveStats
}

// NewObserver returns a fresh per-run tracing observer flushing into
// the bundle every sampleEvery slots (0 = DefaultTraceSample).
func (m *EngineMetrics) NewObserver(sampleEvery int64) *MetricsObserver {
	if sampleEvery <= 0 {
		sampleEvery = DefaultTraceSample
	}
	return &MetricsObserver{m: m, every: sampleEvery, countdown: sampleEvery}
}

// OnResolve implements ResolveObserver: it publishes the run's
// intra-slot worker count to the gauge and keeps the run's resolver
// accounting for OnEnd.
func (o *MetricsObserver) OnResolve(stats func() interference.ResolveStats) {
	o.resolveStats = stats
	o.m.ResolveWorkers.Set(float64(stats().Workers))
}

// OnInject implements Observer.
func (o *MetricsObserver) OnInject(t int64, pkts []inject.Packet) {
	o.injected += int64(len(pkts))
}

// OnDeliver implements Observer.
func (o *MetricsObserver) OnDeliver(t int64, d Delivery) {
	o.delivered++
}

// OnSlot implements Observer. At each sample point it flushes the
// local counters, records the start of the next slot, and one slot
// later observes that slot's duration into the histogram — so the
// histogram holds the wall time of complete, representative slots
// while the steady-state path costs a single decrement.
func (o *MetricsObserver) OnSlot(t int64, v SlotView) {
	o.slots++
	if o.armed {
		o.m.SlotSeconds.Observe(time.Since(o.start).Seconds())
		o.armed = false
	}
	o.countdown--
	if o.countdown <= 0 {
		o.flush()
		o.countdown = o.every
		o.start = time.Now()
		o.armed = true
	}
}

// OnEnd implements Observer: the tail of the local counters reaches
// the shared bundle even for runs shorter than one sample window, and
// the run's grid delta-vs-rebuild and re-walk contributions land in
// the shared counters.
func (o *MetricsObserver) OnEnd(r *Result) {
	o.armed = false
	o.flush()
	if o.resolveStats != nil {
		st := o.resolveStats()
		if st.GridRebuilds > 0 {
			o.m.GridRebuilds.Add(st.GridRebuilds)
		}
		if st.GridDeltaUpdates > 0 {
			o.m.GridDeltaUpdates.Add(st.GridDeltaUpdates)
		}
		if st.Rewalks > 0 {
			o.m.Rewalks.Add(st.Rewalks)
		}
		o.resolveStats = nil
	}
}

// flush moves the locally accumulated deltas into the shared atomics.
func (o *MetricsObserver) flush() {
	if o.slots > 0 {
		o.m.Slots.Add(uint64(o.slots))
		o.slots = 0
	}
	if o.injected > 0 {
		o.m.Injected.Add(uint64(o.injected))
		o.injected = 0
	}
	if o.delivered > 0 {
		o.m.Delivered.Add(uint64(o.delivered))
		o.delivered = 0
	}
}
