package ctl

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"dynsched/api"
)

// Finding is one doctor diagnostic.
type Finding struct {
	// Warn marks a problem; false is an informational note.
	Warn bool
	// Name is the heuristic's short slug (queue-saturated, cache-cold,
	// cache-thrash, stuck-job, journal-torn, unclean-shutdown, ...).
	Name string
	// Detail is the human-readable explanation with the numbers that
	// fired the heuristic.
	Detail string
}

// Doctor exit codes.
const (
	DoctorHealthy     = 0
	DoctorWarnings    = 1
	DoctorUnreachable = 2
)

// Doctor runs the health heuristics against a live daemon: fetch
// health and metrics, sample the job list twice sampleGap apart (to
// tell a stuck running job from a slow one), and render a verdict. It
// returns the command's exit code: 0 healthy, 1 warnings, 2 when the
// daemon cannot be diagnosed at all.
func Doctor(ctx context.Context, c *Client, w io.Writer, sampleGap time.Duration) int {
	h, err := c.Health(ctx)
	if err != nil {
		fmt.Fprintf(w, "doctor: cannot reach dynschedd at %s: %v\n", c.BaseURL, err)
		return DoctorUnreachable
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		// An old daemon without /metrics still gets the health-only
		// heuristics.
		m = Metrics{}
	}
	first, err := c.Jobs(ctx)
	if err != nil {
		fmt.Fprintf(w, "doctor: listing jobs: %v\n", err)
		return DoctorUnreachable
	}
	second := first
	if anyRunning(first) && sampleGap > 0 {
		select {
		case <-ctx.Done():
			fmt.Fprintf(w, "doctor: %v\n", ctx.Err())
			return DoctorUnreachable
		case <-time.After(sampleGap):
		}
		if second, err = c.Jobs(ctx); err != nil {
			fmt.Fprintf(w, "doctor: re-listing jobs: %v\n", err)
			return DoctorUnreachable
		}
	}

	findings := Diagnose(h, m, first, second)
	warnings := 0
	for _, f := range findings {
		mark := "note"
		if f.Warn {
			mark = "WARN"
			warnings++
		}
		fmt.Fprintf(w, "%s  %-17s %s\n", mark, f.Name, f.Detail)
	}
	if warnings == 0 {
		fmt.Fprintln(w, "doctor: healthy")
		return DoctorHealthy
	}
	fmt.Fprintf(w, "doctor: %d warning(s)\n", warnings)
	return DoctorWarnings
}

func anyRunning(jobs []api.JobView) bool {
	for _, j := range jobs {
		if j.State == api.StateRunning {
			return true
		}
	}
	return false
}

// minLookupsForRatio is how many cache lookups the hit-ratio heuristic
// needs before it trusts the ratio — a cold daemon's first misses are
// not a finding.
const minLookupsForRatio = 20

// minLeasesForRatio is how many fleet lease grants the lease-thrash
// heuristic needs before it trusts the re-grant ratio: one expired
// lease on a two-lease fleet is startup noise, not thrash.
const minLeasesForRatio = 10

// minMergedForStraggler is how many merged fleet reports the straggler
// heuristic needs before per-runner throughput comparisons mean
// anything.
const minMergedForStraggler = 10

// median returns the median of vs (vs is re-ordered in place).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	mid := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[mid]
	}
	return (vs[mid-1] + vs[mid]) / 2
}

// Diagnose applies the doctor heuristics to already-fetched state:
// health, parsed metrics, and two job-list samples taken a moment
// apart (pass the same slice twice when nothing was running). Pure, so
// each heuristic is testable without a server.
func Diagnose(h api.Health, m Metrics, first, second []api.JobView) []Finding {
	var out []Finding

	if h.QueueCapacity > 0 && h.Queued >= h.QueueCapacity {
		out = append(out, Finding{Warn: true, Name: "queue-saturated",
			Detail: fmt.Sprintf("%d/%d jobs queued — submissions are being rejected with 503; add workers or widen -queue", h.Queued, h.QueueCapacity)})
	}
	if h.Draining {
		out = append(out, Finding{Warn: true, Name: "draining",
			Detail: "the daemon is shutting down and rejecting submissions"})
	}

	hits, misses := m.Family("dynsched_cache_hits_total"), m.Get("dynsched_cache_misses_total")
	if lookups := hits + misses; lookups >= minLookupsForRatio {
		if ratio := hits / lookups; ratio < 0.2 {
			out = append(out, Finding{Warn: true, Name: "cache-cold",
				Detail: fmt.Sprintf("%.0f%% hit ratio over %.0f lookups — resubmissions are not finding cached results", 100*ratio, lookups)})
		}
	}
	if evictions := m.Family("dynsched_cache_evictions_total"); evictions > 0 && evictions > hits {
		out = append(out, Finding{Warn: true, Name: "cache-thrash",
			Detail: fmt.Sprintf("%.0f evictions against %.0f hits — the cache is cycling entries faster than it serves them; raise -cache or -cache-disk-max", evictions, hits)})
	}

	// A running job whose unit counter AND event log did not move
	// between the two samples is stuck (a live simulation publishes
	// progress events; a live plan advances unitsDone).
	prev := map[string]api.JobView{}
	for _, j := range first {
		prev[j.ID] = j
	}
	for _, j := range second {
		p, ok := prev[j.ID]
		if !ok || j.State != api.StateRunning || p.State != api.StateRunning {
			continue
		}
		if j.UnitsDone == p.UnitsDone && j.Events == p.Events {
			out = append(out, Finding{Warn: true, Name: "stuck-job",
				Detail: fmt.Sprintf("%s is running but neither its unit counter (%d/%d) nor its event log moved between samples", j.ID, j.UnitsDone, j.UnitsTotal)})
		}
	}

	if f := h.Fleet; f != nil {
		if f.DispatchOnly && f.PendingUnits > 0 && f.Runners == 0 {
			out = append(out, Finding{Warn: true, Name: "runner-starved",
				Detail: fmt.Sprintf("%d plan unit(s) parked for the fleet with zero runners on the roster — start runners (dynschedd -join) or avoid -fleet-local=-1", f.PendingUnits)})
		}
		if f.LeasedTotal >= minLeasesForRatio {
			if ratio := float64(f.ReLeased) / float64(f.LeasedTotal); ratio > 0.2 {
				out = append(out, Finding{Warn: true, Name: "lease-thrash",
					Detail: fmt.Sprintf("%d of %d lease grants were re-grants of expired leases (%.0f%%) — runners are dying or too slow for -lease-expiry; raise it or shrink -batch-max", f.ReLeased, f.LeasedTotal, 100*ratio)})
			}
		}
		if len(f.RunnerDetail) >= 2 && f.Merged >= minMergedForStraggler {
			rates := make([]float64, 0, len(f.RunnerDetail))
			for _, r := range f.RunnerDetail {
				rates = append(rates, r.UnitsPerSec)
			}
			if med := median(rates); med > 0 {
				for _, r := range f.RunnerDetail {
					if r.UnitsPerSec < med/4 {
						out = append(out, Finding{Warn: true, Name: "straggler",
							Detail: fmt.Sprintf("runner %s completes %.2f unit/s against a fleet median of %.2f — below a quarter of the fleet; check its host or drop it", r.ID, r.UnitsPerSec, med)})
					}
				}
			}
		}
	}

	if j := h.Journal; j != nil {
		if j.ReplayTorn {
			out = append(out, Finding{Warn: true, Name: "journal-torn",
				Detail: "the replayed journal ended in a torn record (dropped) — the previous process died mid-append"})
		}
		if !j.CleanShutdown && j.ReplayedRecords > 0 {
			out = append(out, Finding{Name: "unclean-shutdown",
				Detail: fmt.Sprintf("the previous process left no shutdown marker; recovery re-enqueued %d job(s)", j.RecoveredJobs)})
		}
		if j.RecoveredJobs > 0 {
			out = append(out, Finding{Name: "recovered-jobs",
				Detail: fmt.Sprintf("%d job(s) recovered from the journal this boot", j.RecoveredJobs)})
		}
	}
	return out
}
