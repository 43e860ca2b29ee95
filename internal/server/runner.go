package server

// Runner is the worker side of the fleet tier: a stateless process
// that joins a coordinator (`dynschedd -join URL`), leases plan-unit
// batches, executes them on its local CPUs and streams the results
// back. It holds no queue, no cache directory and no journal — kill
// one and its leases expire on the coordinator, which re-grants the
// units elsewhere.
//
// Throughput shape:
//
//   - Batched leasing with an adaptive controller: each lease asks for
//     about two round-trips' worth of work per executor — computed
//     from the runner's own unit-duration histogram and an EWMA of the
//     lease RTT — clamped to [2×parallel, BatchMax]. Fast units on a
//     slow link grow the batch; slow units shrink it toward the fair
//     minimum so re-lease exposure stays small.
//   - Prefetch: the fetcher leases the next batch while executors
//     drain the current one, so executors never idle on the wire.
//   - Compressed, keep-alive reporting: results batch up and ship as
//     one gzip POST per flush on a warm connection; reports double as
//     lease renewals.
//   - A heartbeat at a third of the lease expiry keeps long batches
//     alive even when no report is due.

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dynsched"
	"dynsched/api"
	"dynsched/internal/metrics"
	"dynsched/internal/par"
	"dynsched/internal/plan"
)

// RunnerConfig parameterises a fleet runner.
type RunnerConfig struct {
	// Coordinator is the coordinator's base URL (http://host:port).
	Coordinator string
	// ID names the runner on the fleet roster; empty derives
	// host.pid.
	ID string
	// Parallel is the executor goroutine count (0 = GOMAXPROCS).
	Parallel int
	// BatchMax caps one lease grant (0 = the protocol default, 64).
	BatchMax int
	// LeaseWait is the lease long-poll duration when the coordinator
	// has nothing pending (0 = 5s).
	LeaseWait time.Duration
	// Registry, when set, receives the runner's instruments (the
	// plan-unit counters and duration histogram feeding the batch
	// controller, plus lease/report wire counters).
	Registry *metrics.Registry
}

// Runner executes leased plan units for one coordinator.
type Runner struct {
	cfg    RunnerConfig
	hc     *http.Client
	pm     *plan.Metrics
	models *dynsched.ModelCache // networks shared across leased units

	leases    *metrics.Counter
	leaseRTT  *metrics.Histogram
	unitsDone atomic.Int64

	// expiryMs is the coordinator's lease expiry, learned from every
	// lease/report/heartbeat response.
	expiryMs atomic.Int64
	// rttNs is the EWMA lease round-trip time.
	rttNs atomic.Int64

	// serviceFloor, when positive, holds a freshly-executed unit that
	// finishes faster until the floor elapses: a fixed per-unit
	// capacity for benchmarks that run many runners on one host.
	serviceFloor time.Duration
}

// NewRunner builds a runner for the coordinator at cfg.Coordinator.
func NewRunner(cfg RunnerConfig) *Runner {
	cfg.Parallel = par.Workers(cfg.Parallel, math.MaxInt)
	if cfg.BatchMax <= 0 {
		cfg.BatchMax = defaultFleetBatchMax
	}
	if cfg.LeaseWait <= 0 {
		cfg.LeaseWait = 5 * time.Second
	}
	if cfg.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "runner"
		}
		cfg.ID = fmt.Sprintf("%s.%d", host, os.Getpid())
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	r := &Runner{
		cfg: cfg,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: cfg.Parallel + 2,
			IdleConnTimeout:     90 * time.Second,
		}},
		pm:       plan.NewMetrics(cfg.Registry),
		models:   dynsched.NewModelCache(),
		leases:   cfg.Registry.Counter("dynsched_runner_leases_total", "Lease round-trips that granted at least one unit."),
		leaseRTT: cfg.Registry.Histogram("dynsched_runner_lease_rtt_seconds", "Lease request round-trip time.", metrics.ExpBuckets(0.0001, 2, 16)),
	}
	r.expiryMs.Store(defaultLeaseExpiry.Milliseconds())
	return r
}

// ID returns the runner's fleet roster name.
func (r *Runner) ID() string { return r.cfg.ID }

// UnitsDone returns how many units this runner has completed.
func (r *Runner) UnitsDone() int64 { return r.unitsDone.Load() }

// Run joins the fleet and executes units until ctx is cancelled.
// Transient coordinator errors (restart, drain window) are retried
// with backoff; the only non-nil return is ctx's error.
func (r *Runner) Run(ctx context.Context) error {
	unitCh := make(chan api.LeasedUnit, 2*r.cfg.Parallel)
	repCh := make(chan api.UnitReport, 2*r.cfg.Parallel)

	var wg sync.WaitGroup
	// Executors.
	for i := 0; i < r.cfg.Parallel; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range unitCh {
				rep := r.execute(ctx, u)
				select {
				case repCh <- rep:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	// Reporter: batch results, flush on a short timer, ship gzipped.
	done := make(chan struct{})
	go r.reportLoop(ctx, repCh, done)
	// Heartbeat: renew leases while executing long batches.
	hbCtx, hbCancel := context.WithCancel(ctx)
	go r.heartbeatLoop(hbCtx)

	// Fetcher (this goroutine): lease the next batch while executors
	// drain the buffered one.
	backoff := 50 * time.Millisecond
	for ctx.Err() == nil {
		units, err := r.leaseOnce(ctx)
		if err != nil {
			if ctx.Err() != nil {
				break
			}
			sleepCtx(ctx, backoff)
			if backoff *= 2; backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
			continue
		}
		backoff = 50 * time.Millisecond
		for _, u := range units {
			select {
			case unitCh <- u:
			case <-ctx.Done():
			}
		}
	}
	close(unitCh)
	wg.Wait()
	close(repCh)
	<-done
	hbCancel()
	return ctx.Err()
}

// batchWant sizes the next lease request: about two round-trips of
// work per executor, from the measured mean unit time and the EWMA
// lease RTT, clamped to [2×parallel, BatchMax].
func (r *Runner) batchWant() int {
	lo := 2 * r.cfg.Parallel
	if lo < 1 {
		lo = 1
	}
	want := lo
	if n := r.pm.UnitSeconds.Count(); n > 0 {
		mean := r.pm.UnitSeconds.Sum() / float64(n)
		rtt := float64(r.rttNs.Load()) / float64(time.Second)
		if mean > 0 && rtt > 0 {
			want = int(math.Ceil(2 * rtt * float64(r.cfg.Parallel) / mean))
		}
	}
	if want < lo {
		want = lo
	}
	if want > r.cfg.BatchMax {
		want = r.cfg.BatchMax
	}
	return want
}

// leaseOnce performs one lease round-trip and updates the RTT EWMA.
func (r *Runner) leaseOnce(ctx context.Context) ([]api.LeasedUnit, error) {
	req := api.LeaseRequest{
		Runner: r.cfg.ID,
		Want:   r.batchWant(),
		WaitMs: r.cfg.LeaseWait.Milliseconds(),
	}
	started := time.Now()
	var resp api.LeaseResponse
	if err := r.post(ctx, "/v1/fleet/lease", req, &resp, false); err != nil {
		return nil, err
	}
	rtt := time.Since(started)
	if len(resp.Units) > 0 {
		// Only granted round-trips feed the EWMA: an empty long-poll's
		// wall time measures the coordinator's queue, not the wire.
		prev := r.rttNs.Load()
		if prev == 0 {
			r.rttNs.Store(int64(rtt))
		} else {
			r.rttNs.Store((3*prev + int64(rtt)) / 4)
		}
		r.leases.Inc()
	}
	if resp.ExpiryMs > 0 {
		r.expiryMs.Store(resp.ExpiryMs)
	}
	return resp.Units, nil
}

// execute runs one leased unit: compile and simulate, holding the
// result to the service floor. The coordinator served every cached
// unit before leasing, so a leased unit always runs.
func (r *Runner) execute(ctx context.Context, u api.LeasedUnit) api.UnitReport {
	rep := api.UnitReport{Lease: u.Lease, Hash: u.Hash}
	started := time.Now()
	res, err := r.runUnit(ctx, u)
	elapsed := time.Since(started)
	if err == nil && r.serviceFloor > elapsed {
		sleepCtx(ctx, r.serviceFloor-elapsed)
		elapsed = time.Since(started)
	}
	if err == nil {
		if rep.Result, err = json.Marshal(res); err != nil {
			err = fmt.Errorf("marshaling result: %v", err)
		}
	}
	r.pm.ObserveRun(elapsed, err)
	if err != nil {
		rep.Error = err.Error()
		return rep
	}
	r.unitsDone.Add(1)
	return rep
}

// runUnit compiles one unit's scenario on the runner's model cache and
// simulates it.
func (r *Runner) runUnit(ctx context.Context, u api.LeasedUnit) (*dynsched.SimResult, error) {
	cs, err := r.models.Compile(u.Scenario)
	if err != nil {
		return nil, err
	}
	return cs.Run(ctx)
}

// reportLoop batches finished units and ships them as gzip POSTs.
// Batching is greedy, not lingering: the first finished result ships at
// once, bundled with everything else already queued. Under load the
// batches grow by themselves — results pile up in the channel while
// the previous POST is in flight — and when the runner is trickling,
// each result merges immediately instead of sitting out a timer window
// (a fixed linger adds its full delay to every plan's tail on every
// runner). Failed ships retry with backoff until the lease would have
// expired anyway; the final partial batch flushes on channel close.
func (r *Runner) reportLoop(ctx context.Context, repCh <-chan api.UnitReport, done chan<- struct{}) {
	defer close(done)
	bound := max(1, r.cfg.BatchMax/2)
	for {
		var batch []api.UnitReport
		select {
		case rep, ok := <-repCh:
			if !ok {
				return
			}
			batch = append(batch, rep)
		case <-ctx.Done():
			return
		}
	drain:
		for len(batch) < bound {
			select {
			case rep, ok := <-repCh:
				if !ok {
					r.ship(ctx, batch)
					return
				}
				batch = append(batch, rep)
			default:
				break drain
			}
		}
		r.ship(ctx, batch)
	}
}

// ship POSTs one report batch, retrying transient failures while the
// leases plausibly still stand.
func (r *Runner) ship(ctx context.Context, batch []api.UnitReport) {
	req := api.ReportRequest{Runner: r.cfg.ID, Results: batch}
	deadline := time.Now().Add(time.Duration(r.expiryMs.Load()) * time.Millisecond)
	backoff := 50 * time.Millisecond
	for {
		var resp api.ReportResponse
		err := r.post(ctx, "/v1/fleet/report", req, &resp, true)
		if err == nil {
			if resp.ExpiryMs > 0 {
				r.expiryMs.Store(resp.ExpiryMs)
			}
			return
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			return
		}
		sleepCtx(ctx, backoff)
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
}

// heartbeatLoop renews the runner's leases at a third of the expiry.
func (r *Runner) heartbeatLoop(ctx context.Context) {
	for {
		period := time.Duration(r.expiryMs.Load()) * time.Millisecond / 3
		if period < 10*time.Millisecond {
			period = 10 * time.Millisecond
		}
		if !sleepCtx(ctx, period) {
			return
		}
		var resp api.HeartbeatResponse
		if err := r.post(ctx, "/v1/fleet/heartbeat", api.HeartbeatRequest{Runner: r.cfg.ID}, &resp, false); err == nil && resp.ExpiryMs > 0 {
			r.expiryMs.Store(resp.ExpiryMs)
		}
	}
}

// post sends one JSON request to the coordinator, optionally
// gzip-compressing the body (reports carry batches of marshaled
// results — compression is where the wire savings are).
func (r *Runner) post(ctx context.Context, path string, in, out any, compress bool) error {
	payload, err := json.Marshal(in)
	if err != nil {
		return err
	}
	var body bytes.Buffer
	if compress {
		zw := gzip.NewWriter(&body)
		if _, err := zw.Write(payload); err != nil {
			return err
		}
		if err := zw.Close(); err != nil {
			return err
		}
	} else {
		body.Write(payload)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.cfg.Coordinator+path, &body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept-Encoding", "gzip")
	if compress {
		req.Header.Set("Content-Encoding", "gzip")
	}
	resp, err := r.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var src io.Reader = resp.Body
	if resp.Header.Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(src)
		if err != nil {
			return err
		}
		defer zr.Close()
		src = zr
	}
	data, err := io.ReadAll(io.LimitReader(src, maxFleetBodyBytes))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", path, resp.Status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// sleepCtx sleeps for d, returning false if ctx was cancelled first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}
