package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"time"

	"dynsched/api"
)

// gate is the correctness gate and the workload-shape guards: failed
// counts requests that failed, were refused or returned a wrong
// document; violations are broken workload shapes.
type gate struct {
	w          *workload
	attempted  int
	failed     int
	violations []string
	// daemon holds the digest each cold request's document had, by
	// cold index.
	daemon map[int][32]byte
	// counts sums the replayed simulations' slot counts.
	counts unitCounts
}

func (g *gate) violate(format string, args ...any) {
	g.violations = append(g.violations, fmt.Sprintf(format, args...))
}

// checkPhase checks one phase's requests: every request completed,
// every cold request ran fresh, every resubmission was a cache hit
// with its first computation's exact bytes, and (fleet) every unit
// went through exactly one lease.
func (g *gate) checkPhase(ph *phase) {
	if g.daemon == nil {
		g.daemon = map[int][32]byte{}
	}
	var hits, coldUnits int
	for i, r := range ph.reqs {
		o := &ph.outs[i]
		g.attempted++
		switch {
		case o.refused:
			g.failed++
			continue
		case o.err != nil:
			g.failed++
			fmt.Fprintln(os.Stderr, "perfbench: request failed:", o.err)
			continue
		}
		if o.cached {
			hits++
		}
		if !r.repeat {
			g.daemon[r.spec] = o.digest
			coldUnits += len(o.units)
			if o.cached {
				g.violate("cold request %d was served from the cache", r.spec)
			}
			continue
		}
		if first, ok := g.daemon[r.spec]; !ok || first != o.digest {
			g.failed++
			fmt.Fprintf(os.Stderr, "perfbench: resubmission of cold request %d returned different bytes\n", r.spec)
		}
	}
	c, k := g.w.coldPerCycle+g.w.cachedPerCycle, g.w.cachedPerCycle
	if hits*c != len(ph.reqs)*k {
		g.violate("cache-hit share %d/%d, designed %d/%d", hits, len(ph.reqs), k, c)
	}
	if g.w.fleet {
		leased := ph.fleet1.LeasedTotal - ph.fleet0.LeasedTotal
		merged := ph.fleet1.Merged - ph.fleet0.Merged
		if re := ph.fleet1.ReLeased - ph.fleet0.ReLeased; re != 0 {
			g.violate("fleet re-leased %d units", re)
		}
		if leased != int64(coldUnits) || merged != int64(coldUnits) {
			g.violate("fleet leased %d and merged %d units for %d cold units", leased, merged, coldUnits)
		}
	}
}

// checkReplays recomputes every cold request through the library and
// compares documents byte for byte (by SHA-256), then checks the
// spatial workload reached the interference kernel at scale.
func (g *gate) checkReplays(ctx context.Context, rp *replayer, cold []request) {
	reps, errs := rp.replayAll(ctx, cold, runtime.NumCPU())
	for i := range cold {
		daemon, ran := g.daemon[i]
		switch {
		case !ran:
			continue // the request itself failed and is counted
		case errs[i] != nil:
			g.failed++
			fmt.Fprintf(os.Stderr, "perfbench: library replay of cold request %d failed: %v\n", i, errs[i])
		case reps[i].digest != daemon:
			g.failed++
			fmt.Fprintf(os.Stderr, "perfbench: cold request %d: the daemon's document differs from the library's\n", i)
		default:
			g.counts.add(reps[i].counts)
		}
	}
	if g.w.name == "spatial" {
		c := g.counts
		switch {
		case c.active == 0:
			g.violate("spatial: no slot transmitted")
		case c.tx < 256*c.active:
			g.violate("spatial: %.1f tx per active slot, want ≥256", float64(c.tx)/float64(c.active))
		case c.gridDeltas == 0:
			g.violate("spatial: the incremental grid never took a delta update")
		}
	}
}

// latencies returns the latencies (ms) of a phase's successful cold
// requests, or of its resubmissions.
func (ph *phase) latencies(repeat bool) []float64 {
	var out []float64
	for i, r := range ph.reqs {
		if o := &ph.outs[i]; r.repeat == repeat && o.err == nil && !o.refused {
			out = append(out, ms(o.latency()))
		}
	}
	return out
}

// unitTimes returns the cold units' completion times, ascending.
func (ph *phase) unitTimes() []time.Time {
	var ts []time.Time
	for i, r := range ph.reqs {
		if !r.repeat {
			ts = append(ts, ph.outs[i].units...)
		}
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].Before(ts[j]) })
	return ts
}

func (ph *phase) unitsPerSec(w *workload) float64 {
	return windowedRate(ph.start, ph.unitTimes(), w.window)
}

// endToEnd fills the metrics a user of dynschedd sees.
func endToEnd(m map[string]metric, w *workload, ph *phase, setups []float64, g *gate) {
	cold := ph.latencies(false)
	if w.tail > 0.5 && w.tail > highestTail(len(cold)) {
		g.violate("p%g of %d cold samples has fewer than %d beyond it", 100*w.tail, len(cold), minBeyond)
	}
	m["setup_s"] = metric{median(setups), "s"}
	m["units_per_s"] = metric{ph.unitsPerSec(w), "1/s"}
	m["latency_p50_ms"] = metric{median(cold), "ms"}
	m["latency_tail_ms"] = metric{quantile(cold, w.tail), "ms"}
	m["cached_latency_p50_ms"] = metric{median(ph.latencies(true)), "ms"}
	m["heap_peak_mb"] = metric{ph.heapPeak / (1 << 20), "MiB"}
	fmt.Printf("samples %s cold=%d cached=%d units=%d tail=p%g\n", w.name, len(cold), len(ph.latencies(true)), len(ph.unitTimes()), 100*w.tail)
}

// perLayer fills the traced run's per-layer metrics. Metrics of a
// layer the workload does not exercise read 0.
func perLayer(m map[string]metric, w *workload, plain, tp *phase, lay *layers, g *gate) {
	var submit, queue, fetch, size []float64
	var hits, refused, coldPlans, coldUnits int
	for i, r := range tp.reqs {
		o := &tp.outs[i]
		if o.refused {
			refused++
		}
		if o.err != nil || o.refused {
			continue
		}
		if o.cached {
			hits++
		}
		if r.repeat {
			fetch = append(fetch, ms(o.fetched.Sub(o.submitted)))
			size = append(size, float64(o.size))
			continue
		}
		submit = append(submit, ms(o.submitted.Sub(o.posted)))
		queue = append(queue, ms(o.started.Sub(o.submitted)))
		coldUnits += len(o.units)
		if r.plan {
			coldPlans++
		}
	}
	m["server.submit_ms"] = metric{median(submit), "ms"}
	m["server.queue_wait_ms"] = metric{median(queue), "ms"}
	m["server.result_fetch_ms"] = metric{median(fetch), "ms"}
	m["server.result_bytes"] = metric{median(size), "bytes"}
	m["server.cache_hit_ratio"] = metric{ratio(float64(hits), float64(len(tp.reqs))), "ratio"}
	m["server.refused"] = metric{float64(refused), "count"}

	// Fleet routes, from the timing wrapper around the coordinator.
	var leaseMs, reportMs []float64
	var grants, granted int
	var wire int64
	for _, c := range tp.calls {
		wire += c.in + c.out
		switch c.route {
		case "lease":
			n, err := leaseUnits(c)
			if err != nil {
				g.violate("undecodable lease response: %v", err)
			}
			if n > 0 {
				grants++
				granted += n
				leaseMs = append(leaseMs, ms(c.end.Sub(c.start)))
			}
		case "report":
			reportMs = append(reportMs, ms(c.end.Sub(c.start)))
		}
	}
	m["server.lease_ms"] = metric{orZero(median(leaseMs)), "ms"}
	m["server.report_ms"] = metric{orZero(median(reportMs)), "ms"}
	m["server.leases_per_plan"] = metric{ratio(float64(grants), float64(coldPlans)), "count"}
	m["server.units_per_lease"] = metric{ratio(float64(granted), float64(grants)), "count"}
	m["server.wire_bytes_per_unit"] = metric{ratio(float64(wire), float64(granted)), "bytes"}
	m["server.re_leased"] = metric{float64(tp.fleet1.ReLeased - tp.fleet0.ReLeased), "count"}

	// Plan executor, engine and kernels, from the traced library replay.
	c := lay.counts
	m["plan.compile_ms"] = metric{median(lay.compileMs), "ms"}
	m["plan.unit_run_ms"] = metric{median(lay.runMs), "ms"}
	m["plan.store_ms"] = metric{median(lay.storeMs), "ms"}
	m["plan.pool_busy_frac"] = metric{ratio(float64(lay.busy), float64(lay.capacity)), "ratio"}
	m["sim.slot_ns"] = metric{ratio(float64(lay.simTime), float64(c.slots)), "ns"}
	m["sim.active_slot_frac"] = metric{ratio(float64(c.active), float64(c.slots)), "ratio"}
	m["sim.tx_per_active_slot"] = metric{ratio(float64(c.tx), float64(c.active)), "count"}
	m["sim.success_ratio"] = metric{ratio(float64(c.succeeded), float64(c.attempted)), "ratio"}
	m["sim.protocol_errors"] = metric{float64(c.errs), "count"}
	slots := float64(lay.replaySlots)
	m["inject.step_ns_per_slot"] = metric{ratio(float64(lay.injectTime), slots), "ns"}
	m["core.protocol_ns_per_slot"] = metric{ratio(float64(lay.replaySim-lay.injectTime-lay.resolveTime), slots), "ns"}
	m["interference.resolve_ns_per_tx"] = metric{ratio(float64(lay.resolveTime), float64(lay.replayTx)), "ns"}
	m["interference.resolve_share"] = metric{ratio(float64(lay.resolveTime), float64(lay.replaySim)), "ratio"}
	m["interference.grid_delta_updates"] = metric{float64(c.gridDeltas), "count"}
	m["interference.grid_rebuilds"] = metric{float64(c.gridRebuilds), "count"}

	// Runtime, over the traced phase.
	units := float64(coldUnits)
	m["runtime.alloc_bytes_per_unit"] = metric{ratio(float64(tp.mem1.TotalAlloc-tp.mem0.TotalAlloc), units), "bytes"}
	m["runtime.allocs_per_unit"] = metric{ratio(float64(tp.mem1.Mallocs-tp.mem0.Mallocs), units), "count"}
	m["runtime.gc_cycles"] = metric{float64(tp.mem1.NumGC - tp.mem0.NumGC), "count"}
	traced, untraced := tp.unitsPerSec(w), plain.unitsPerSec(w)
	m["trace.overhead_frac"] = metric{1 - traced/untraced, "ratio"}
	fmt.Fprintf(os.Stderr, "units/s: untraced %.4g, traced %.4g\n", untraced, traced)
}

// ratio is a/b, or 0 when the layer saw no work (b = 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func orZero(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

// fleetHealth reads the coordinator's fleet counters from /healthz.
func (c *client) fleetHealth(ctx context.Context, out *api.FleetHealth) error {
	status, data, err := c.call(ctx, http.MethodGet, "/healthz", nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("healthz: %d", status)
	}
	var h api.Health
	if err := json.Unmarshal(data, &h); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	if h.Fleet != nil {
		*out = *h.Fleet
	}
	return nil
}
