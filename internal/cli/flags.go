// Package cli holds the flag and signal handling the cmd/ binaries
// share: dynschedd's service flags (ServerOptions, RegisterServerFlags)
// and SignalContext, so every command reacts to Ctrl-C the same way:
// the first signal cancels the run context (simulations stop promptly
// with partial results), a second one kills the process.
package cli

import (
	"context"
	"flag"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// ServerOptions mirror cmd/dynschedd's flags: where to listen and how
// the job queue, worker pool and result cache are sized.
type ServerOptions struct {
	Addr          string
	Workers       int
	QueueDepth    int
	CacheEntries  int
	CacheDir      string
	CacheDiskMax  int
	ProgressEvery int64
	// JournalDir enables the durable tier: job journal + checkpoint
	// store, replayed on startup to recover incomplete jobs.
	JournalDir string
	// CheckpointEvery is the engine checkpoint period in slots (0 with
	// a journal dir = 10000, negative = off).
	CheckpointEvery int64
	// ShutdownGrace is how long a draining shutdown lets running jobs
	// finish before hard-cancelling them.
	ShutdownGrace time.Duration
	// Pprof mounts net/http/pprof under /debug/pprof/ on the service
	// listener. Off by default: the profiling surface is a diagnostic
	// tool, not part of the API.
	Pprof bool
	// ResolveParallelism is the default intra-slot resolution worker
	// count injected into submitted scenarios that leave theirs at 0
	// (0 = leave the model default, 1 = force serial). A pure execution
	// knob: it never changes results or cache keys.
	ResolveParallelism int
	// Join, when set, turns the process into a fleet runner: instead of
	// serving the job API it leases plan-unit batches from the
	// coordinator at this base URL, executes them locally and streams
	// the results back. -addr then serves only the runner's own
	// /healthz and /metrics.
	Join string
	// RunnerID names this runner on the coordinator's fleet roster
	// (empty = host.pid).
	RunnerID string
	// LeaseExpiry is the coordinator's fleet lease lifetime: a runner
	// silent for this long is presumed dead and its units re-granted
	// (0 = 15s).
	LeaseExpiry time.Duration
	// FleetBatchMax caps one fleet lease grant (0 = 64 units).
	FleetBatchMax int
	// FleetLocal sizes each job's local lessees on the coordinator:
	// 0 = the scenario's Sim.Parallel, >0 pins the count, <0 =
	// dispatch-only (every unit, single runs included, must run on a
	// runner).
	FleetLocal int
}

// RegisterServerFlags registers the dynschedd service flags onto fs,
// writing into o. Callers set the defaults by pre-filling o.
func RegisterServerFlags(fs *flag.FlagSet, o *ServerOptions) {
	fs.StringVar(&o.Addr, "addr", o.Addr, "HTTP listen address")
	fs.IntVar(&o.Workers, "workers", o.Workers, "simulation worker pool size (0 = all CPUs)")
	fs.IntVar(&o.QueueDepth, "queue", o.QueueDepth, "bounded job queue depth; submissions beyond it get 503")
	fs.IntVar(&o.CacheEntries, "cache", o.CacheEntries, "in-memory result cache entries (0 = default 256)")
	fs.StringVar(&o.CacheDir, "cache-dir", o.CacheDir, "spill cached results to this directory (empty = memory only)")
	fs.IntVar(&o.CacheDiskMax, "cache-disk-max", o.CacheDiskMax, "bound the spill directory to this many entries, evicting oldest first (0 = unbounded)")
	fs.Int64Var(&o.ProgressEvery, "progress-every", o.ProgressEvery, "progress event period in slots (0 = run length / 20)")
	fs.StringVar(&o.JournalDir, "journal-dir", o.JournalDir, "journal job lifecycle events to this directory and recover incomplete jobs on startup (empty = no durability)")
	fs.Int64Var(&o.CheckpointEvery, "checkpoint-every", o.CheckpointEvery, "engine checkpoint period in slots with -journal-dir (0 = 10000, negative = off)")
	fs.DurationVar(&o.ShutdownGrace, "shutdown-grace", o.ShutdownGrace, "how long a draining shutdown lets running jobs finish before dropping them for recovery")
	fs.BoolVar(&o.Pprof, "pprof", o.Pprof, "serve net/http/pprof under /debug/pprof/ for live profiling")
	fs.IntVar(&o.ResolveParallelism, "resolve-parallelism", o.ResolveParallelism, "default intra-slot resolution workers for submitted scenarios that leave theirs unset (0 = model default, 1 = serial)")
	fs.StringVar(&o.Join, "join", o.Join, "run as a fleet runner leasing plan units from the coordinator at this base URL (e.g. http://coord:8080); -addr then serves only the runner's /healthz and /metrics")
	fs.StringVar(&o.RunnerID, "runner-id", o.RunnerID, "fleet roster name for this runner with -join (empty = host.pid)")
	fs.DurationVar(&o.LeaseExpiry, "lease-expiry", o.LeaseExpiry, "fleet lease lifetime; a runner silent for this long is presumed dead and its units are re-granted (0 = 15s)")
	fs.IntVar(&o.FleetBatchMax, "batch-max", o.FleetBatchMax, "maximum plan units per fleet lease grant (0 = 64)")
	fs.IntVar(&o.FleetLocal, "fleet-local", o.FleetLocal, "local lessees per job, each running one of the job's units at a time in this process: 0 = the scenario's sim.parallel (default all CPUs), >0 pins the count, negative = dispatch-only (every unit, single runs included, runs on a -join runner)")
}

// SignalContext returns a context cancelled by SIGINT/SIGTERM. The
// signal handler is released as soon as the context is done (or the
// returned stop function is called), restoring the default disposition
// — so a second Ctrl-C terminates the process immediately even while
// cancelled work is still unwinding.
func SignalContext() (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	return ctx, stop
}
