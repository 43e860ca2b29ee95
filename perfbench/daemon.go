package main

import (
	"context"
	"fmt"
	"net"
	"net/http"

	"dynsched/internal/server"
)

// daemon is dynschedd running in this process: a server.Server behind
// its own Handler on a loopback listener, plus, for the fleet workload,
// one runner joined to it.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	client *client
	routes *routeTimer // fleet route timing; nil unless tracing

	cancel    context.CancelFunc
	serveDone chan struct{}

	runnerCancel context.CancelFunc
	runnerDone   chan struct{}
}

// startDaemon builds and starts the daemon for a workload. The job
// registry and cache are kept small so the heap reaches its steady
// state within the first second of a run.
func startDaemon(w *workload, tracing bool) (*daemon, error) {
	cfg := server.Config{
		Workers:      w.budget.Workers,
		QueueDepth:   8,
		CacheEntries: 256,
		MaxJobs:      64,
	}
	if w.fleet {
		cfg.FleetLocal = -1 // dispatch-only: every unit goes through a lease
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("building server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	d := &daemon{
		srv:       srv,
		base:      "http://" + ln.Addr().String(),
		cancel:    cancel,
		serveDone: make(chan struct{}),
	}
	d.client = newClient(d.base)
	var h http.Handler = srv.Handler()
	if tracing {
		d.routes = newRouteTimer(h)
		h = d.routes
	}
	d.hs = &http.Server{Handler: h}
	go func() {
		defer close(d.serveDone)
		// A listener that fails mid-run fails every later request, and
		// the run with it; the error itself adds nothing.
		_ = d.hs.Serve(ln)
	}()
	if w.fleet {
		runner := server.NewRunner(server.RunnerConfig{
			Coordinator: d.base,
			ID:          "bench-runner",
			Parallel:    w.budget.Parallel,
		})
		rctx, rcancel := context.WithCancel(context.Background())
		d.runnerCancel = rcancel
		d.runnerDone = make(chan struct{})
		go func() {
			defer close(d.runnerDone)
			_ = runner.Run(rctx) // returns only ctx's error
		}()
	}
	return d, nil
}

// close stops the runner, the worker pool and the HTTP server, and
// waits for all three.
func (d *daemon) close() {
	d.client.close()
	if d.runnerCancel != nil {
		d.runnerCancel()
		<-d.runnerDone
	}
	d.cancel()
	_ = d.hs.Close() // the listener and open streams; nothing to flush
	<-d.serveDone
	d.srv.Wait()
}
