// The server's instrumentation: one metrics registry per Server (so
// tests and multi-server processes never share state), populated with
// the full catalog the daemon exposes at GET /metrics. Counters are
// incremented at the few points where the instrumented thing happens;
// occupancy readings (queue depth, busy workers, jobs by state, cache
// entries) are callback gauges evaluated at scrape time against the
// server's own bookkeeping, so there is no second copy of any state.
package server

import (
	"runtime"
	"time"

	"dynsched/internal/metrics"
	"dynsched/internal/plan"
	"dynsched/internal/sim"
)

// serverMetrics bundles every instrument the server writes, plus the
// engine and planner bundles it shares with the layers below.
type serverMetrics struct {
	reg  *metrics.Registry
	sim  *sim.EngineMetrics
	plan *plan.Metrics

	jobsSubmitted *metrics.CounterVec // kind: run|replicate|sweep|grid
	jobsFinished  *metrics.CounterVec // state: done|failed|cancelled

	cacheHitsMem   *metrics.Counter
	cacheHitsDisk  *metrics.Counter
	cacheMisses    *metrics.Counter
	cacheEvictMem  *metrics.Counter
	cacheEvictDisk *metrics.Counter

	journalAppends   *metrics.Counter
	journalFsyncs    *metrics.Counter
	checkpointWrites *metrics.Counter

	fleetLeases   *metrics.Counter    // lease grants (units, not round-trips)
	fleetReleases *metrics.Counter    // leases released by expiry or drain
	fleetReports  *metrics.CounterVec // outcome: merged|failed|rejected
	fleetBatch    *metrics.Histogram  // units per lease grant
}

// fleetLeased records one lease grant of n units.
func (m *serverMetrics) fleetLeased(n int) {
	if m == nil || n <= 0 {
		return
	}
	m.fleetLeases.Add(uint64(n))
	m.fleetBatch.Observe(float64(n))
}

// fleetReleased records n leases released (expiry sweep or drain).
func (m *serverMetrics) fleetReleased(n int) {
	if m == nil || n <= 0 {
		return
	}
	m.fleetReleases.Add(uint64(n))
}

// fleetReport records one unit report by outcome (merged, failed —
// the remote execution errored — or rejected as stale).
func (m *serverMetrics) fleetReport(outcome string) {
	if m == nil {
		return
	}
	m.fleetReports.With(outcome).Inc()
}

// newServerMetrics builds the server's registry and registers the full
// catalog. The occupancy gauges close over s and read live state at
// scrape time; s's fields they touch (cache, queue, cfg) must already
// be set.
func newServerMetrics(s *Server) *serverMetrics {
	r := metrics.NewRegistry()
	m := &serverMetrics{
		reg:  r,
		sim:  sim.NewEngineMetrics(r),
		plan: plan.NewMetrics(r),

		jobsSubmitted: r.CounterVec("dynsched_jobs_submitted_total", "Jobs accepted for execution or served from cache, by plan kind.", "kind"),
		jobsFinished:  r.CounterVec("dynsched_jobs_finished_total", "Jobs that reached a terminal state, by outcome.", "state"),

		journalAppends:   r.Counter("dynsched_journal_appends_total", "Records appended to the job journal."),
		journalFsyncs:    r.Counter("dynsched_journal_fsyncs_total", "Journal appends that forced an fsync before returning."),
		checkpointWrites: r.Counter("dynsched_checkpoint_writes_total", "Engine checkpoints written to the on-disk checkpoint store."),
	}
	hits := r.CounterVec("dynsched_cache_hits_total", "Result-cache hits, by serving tier.", "tier")
	m.cacheHitsMem = hits.With("memory")
	m.cacheHitsDisk = hits.With("disk")
	m.cacheMisses = r.Counter("dynsched_cache_misses_total", "Result-cache lookups that found nothing in either tier.")
	evict := r.CounterVec("dynsched_cache_evictions_total", "Result-cache entries evicted, by tier.", "tier")
	m.cacheEvictMem = evict.With("memory")
	m.cacheEvictDisk = evict.With("disk")

	models := r.CounterVec("dynsched_model_cache_total", "Compilations by model-cache outcome: hit (the network was cached or being built) or miss (it was built).", "outcome")
	models.Func(func() uint64 { hits, _ := s.models.Stats(); return hits }, "hit")
	models.Func(func() uint64 { _, misses := s.models.Stats(); return misses }, "miss")

	m.fleetLeases = r.Counter("dynsched_fleet_leases_total", "Plan units granted to fleet runners (re-grants included).")
	m.fleetReleases = r.Counter("dynsched_fleet_releases_total", "Fleet leases released by expiry or drain and returned to pending.")
	m.fleetReports = r.CounterVec("dynsched_fleet_reports_total", "Fleet unit reports, by outcome: merged, failed (remote execution error), rejected (stale lease).", "outcome")
	m.fleetBatch = r.Histogram("dynsched_fleet_batch_units", "Units per fleet lease grant.", metrics.ExpBuckets(1, 2, 10))

	r.GaugeFunc("dynsched_queue_depth", "Jobs waiting for a worker.", func() float64 {
		return float64(s.queueLen())
	})
	r.GaugeFunc("dynsched_queue_capacity", "Queue bound; submissions beyond it are rejected with 503.", func() float64 {
		return float64(s.cfg.QueueDepth)
	})
	r.GaugeFunc("dynsched_workers", "Simulation worker-pool size.", func() float64 {
		return float64(s.cfg.Workers)
	})
	r.GaugeFunc("dynsched_workers_busy", "Workers currently running a job.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.running))
	})
	jobs := r.GaugeVec("dynsched_jobs", "Registered jobs, by lifecycle state.", "state")
	for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
		st := st
		jobs.Func(func() float64 { return float64(s.jobsInState(st)) }, string(st))
	}
	r.GaugeFunc("dynsched_cache_entries", "Result-cache entries held in memory.", func() float64 {
		return float64(s.cache.Len())
	})
	r.GaugeFunc("dynsched_cache_disk_entries", "Result-cache entries in the disk spill directory.", func() float64 {
		return float64(s.cache.DiskLen())
	})
	diskBytes := r.GaugeVec("dynsched_cache_disk_bytes", "Result-cache disk spill size: compressed bytes on disk vs the raw document bytes they decompress to.", "kind")
	diskBytes.Func(func() float64 { _, c := s.cache.DiskBytes(); return float64(c) }, "compressed")
	diskBytes.Func(func() float64 { raw, _ := s.cache.DiskBytes(); return float64(raw) }, "raw")
	r.GaugeFunc("dynsched_fleet_runners", "Runners on the fleet roster (heartbeated within the forget window).", func() float64 {
		n, _, _ := s.fleet.occupancy()
		return float64(n)
	})
	r.GaugeFunc("dynsched_fleet_pending_units", "Plan units parked awaiting a lease or a local lessee.", func() float64 {
		_, n, _ := s.fleet.occupancy()
		return float64(n)
	})
	r.GaugeFunc("dynsched_fleet_leased_units", "Plan units currently out on a fleet lease.", func() float64 {
		_, _, n := s.fleet.occupancy()
		return float64(n)
	})
	r.GaugeFunc("dynsched_recovered_jobs", "Incomplete jobs re-enqueued from the journal at startup.", func() float64 {
		return float64(s.recovered)
	})
	start := time.Now()
	r.GaugeFunc("dynsched_uptime_seconds", "Seconds since this server was built.", func() float64 {
		return time.Since(start).Seconds()
	})
	r.GaugeFunc("go_goroutines", "Goroutines in the process.", func() float64 {
		return float64(runtime.NumGoroutine())
	})
	return m
}

// jobsInState counts registered jobs in the given state (a scrape-time
// walk; the registry is bounded by MaxJobs).
func (s *Server) jobsInState(st State) int {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	n := 0
	for _, j := range jobs {
		if j.currentState() == st {
			n++
		}
	}
	return n
}

// markFinished counts a job reaching a terminal state.
func (s *Server) markFinished(st State) {
	s.metrics.jobsFinished.With(string(st)).Inc()
}
