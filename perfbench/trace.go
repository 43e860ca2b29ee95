package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dynsched/api"
)

// tracer keeps the spans of a traced run in memory.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its ID (IDs start at 1; 0 = none).
func (t *tracer) add(parent, req int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return id
}

// requestSpans records one request's spans from its outcome's
// timestamps: the request itself, and the submit, queue wait, run and
// result fetch inside it.
func (t *tracer) requestSpans(req int, o *outcome) {
	root := t.add(0, req, "client.request", o.posted, o.fetched)
	t.add(root, req, "server.submit", o.posted, o.submitted)
	fetchFrom := o.submitted
	if !o.started.IsZero() {
		t.add(root, req, "server.queue_wait", o.submitted, o.started)
		t.add(root, req, "server.run", o.started, o.done)
		fetchFrom = o.done
	}
	t.add(root, req, "server.result_fetch", fetchFrom, o.fetched)
}

// routeCall is one timed call of a fleet route on the coordinator.
type routeCall struct {
	route      string // lease, report, heartbeat or unit
	start, end time.Time
	in, out    int64  // request and response body bytes on the wire
	body       []byte // lease responses, decoded after the phase
	gzipped    bool
}

// routeTimer wraps the coordinator's handler and times the fleet
// protocol's routes while on is set.
type routeTimer struct {
	next http.Handler
	on   atomic.Bool

	mu    sync.Mutex
	calls []routeCall
}

func newRouteTimer(next http.Handler) *routeTimer { return &routeTimer{next: next} }

func fleetRoute(path string) string {
	switch {
	case path == "/v1/fleet/lease":
		return "lease"
	case path == "/v1/fleet/report":
		return "report"
	case path == "/v1/fleet/heartbeat":
		return "heartbeat"
	case strings.HasPrefix(path, "/v1/units/"):
		return "unit"
	}
	return ""
}

func (rt *routeTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := fleetRoute(r.URL.Path)
	if route == "" || !rt.on.Load() {
		rt.next.ServeHTTP(w, r)
		return
	}
	in := &countingReader{r: r.Body}
	r.Body = in
	out := &countingWriter{ResponseWriter: w, keep: route == "lease"}
	start := time.Now()
	rt.next.ServeHTTP(out, r)
	end := time.Now()
	call := routeCall{route: route, start: start, end: end, in: in.n, out: out.n, body: out.buf.Bytes(),
		gzipped: out.Header().Get("Content-Encoding") == "gzip"}
	rt.mu.Lock()
	rt.calls = append(rt.calls, call)
	rt.mu.Unlock()
}

// take returns and clears the recorded calls.
func (rt *routeTimer) take() []routeCall {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	calls := rt.calls
	rt.calls = nil
	return calls
}

// leaseUnits decodes a recorded lease response and returns how many
// units it granted.
func leaseUnits(c routeCall) (int, error) {
	var src io.Reader = bytes.NewReader(c.body)
	if c.gzipped {
		zr, err := gzip.NewReader(src)
		if err != nil {
			return 0, err
		}
		defer zr.Close()
		src = zr
	}
	var resp api.LeaseResponse
	if err := json.NewDecoder(src).Decode(&resp); err != nil {
		return 0, err
	}
	return len(resp.Units), nil
}

type countingReader struct {
	r io.ReadCloser
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }

type countingWriter struct {
	http.ResponseWriter
	n    int64
	keep bool
	buf  bytes.Buffer
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	if c.keep {
		c.buf.Write(p[:n])
	}
	return n, err
}

// heapSampler samples the garbage collector's heap goal from
// runtime/metrics at a fixed period. The goal is the heap size each GC
// cycle is paced to end at, so it is the peak of the heap's sawtooth.
// The instantaneous heap in use reaches it only when a sample happens
// to land at a cycle's end, and overshoots it by an amount that follows
// the allocation rate, and with it the host's speed.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/gc/heap/goal:bytes"}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(sample)
			h.samples = append(h.samples, float64(sample[0].Value.Uint64()))
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak heap: the median of
// the sampled goals over the phase.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return median(h.samples)
}
