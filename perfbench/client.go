package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"dynsched/api"
)

// client is the benchmark's single closed-loop client: one HTTP
// connection, one request at a time.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// outcome is what one request observed, with the client-side
// timestamps the latency metrics and the request's spans derive from.
type outcome struct {
	id      string
	cached  bool // served from the result cache at submission
	refused bool // 503: queue full or draining
	err     error
	digest  [32]byte // SHA-256 of the compact result document
	size    int      // bytes of the result document
	// posted → submitted is the POST; started and done are when the
	// job's "started" and terminal events arrived (zero for cache hits);
	// fetched is when the result document had been read.
	posted, submitted, started, done, fetched time.Time
	// units are the arrival times of the job's freshly-computed unit
	// completions ("unit" events of plans, the done event of a run).
	units []time.Time
}

func (o *outcome) latency() time.Duration { return o.fetched.Sub(o.posted) }

// do submits one request, follows the job's NDJSON event stream until
// it is terminal, and fetches the result document.
func (c *client) do(ctx context.Context, r request) outcome {
	var o outcome
	body, err := json.Marshal(api.SubmitRequest{Scenario: &r.sc, Reps: r.reps})
	if err != nil {
		o.err = fmt.Errorf("encoding submission: %w", err)
		return o
	}
	o.posted = time.Now()
	status, data, err := c.call(ctx, http.MethodPost, "/v1/jobs", body)
	o.submitted = time.Now()
	switch {
	case err != nil:
		o.err = err
		return o
	case status == http.StatusServiceUnavailable:
		o.refused = true
		return o
	case status != http.StatusOK && status != http.StatusAccepted:
		o.err = fmt.Errorf("submit: %d: %s", status, bytes.TrimSpace(data))
		return o
	}
	var view api.JobView
	if err := json.Unmarshal(data, &view); err != nil {
		o.err = fmt.Errorf("decoding submit response: %w", err)
		return o
	}
	o.id, o.cached = view.ID, view.Cached
	if !o.cached {
		// A fresh job may already be done by the time the submit
		// response is written; its event log still replays every step.
		if err := c.follow(ctx, &o, r.isPlan()); err != nil {
			o.err = err
			return o
		}
	} else if view.State != api.StateDone {
		o.err = fmt.Errorf("job %s: cache hit in state %s", o.id, view.State)
		return o
	}
	status, data, err = c.call(ctx, http.MethodGet, "/v1/jobs/"+o.id, nil)
	o.fetched = time.Now()
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("fetch %s: %d", o.id, status)
	}
	if err == nil {
		err = json.Unmarshal(data, &view)
	}
	if err != nil {
		o.err = err
		return o
	}
	var doc bytes.Buffer
	if err := json.Compact(&doc, view.Result); err != nil {
		o.err = fmt.Errorf("job %s result: %w", o.id, err)
		return o
	}
	o.digest = sha256.Sum256(doc.Bytes())
	o.size = doc.Len()
	return o
}

// event is the part of an api.Event the client reads; the progress
// snapshots are skipped, not decoded.
type event struct {
	Type string `json:"type"`
	Unit *struct {
		Cached bool `json:"cached"`
	} `json:"unit"`
	Error string `json:"error"`
}

// follow reads the job's event stream until its terminal event.
func (c *client) follow(ctx context.Context, o *outcome, isPlan bool) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+o.id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("events %s: %w", o.id, err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return fmt.Errorf("events %s: %w", o.id, err)
		}
		now := time.Now()
		switch e.Type {
		case "started":
			o.started = now
		case "unit":
			if e.Unit != nil && !e.Unit.Cached {
				o.units = append(o.units, now)
			}
		case "done":
			o.done = now
			if !isPlan {
				o.units = append(o.units, now)
			}
			// Drain to EOF so the connection goes back to the pool.
			_, err := io.Copy(io.Discard, resp.Body)
			return err
		case "failed", "cancelled":
			return fmt.Errorf("job %s %s: %s", o.id, e.Type, e.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("events %s: %w", o.id, err)
	}
	return fmt.Errorf("events %s: stream ended before a terminal event", o.id)
}

// call makes one request and reads the whole response.
func (c *client) call(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return resp.StatusCode, data, nil
}
