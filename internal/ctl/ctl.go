// Package ctl is the engine room of cmd/dynschedctl: a typed HTTP
// client for a running dynschedd, a parser for its /metrics exposition
// document, and the status / watch / doctor command implementations.
// Everything takes an io.Writer and returns errors rather than
// printing and exiting, so the commands are testable against a real
// in-process server.
package ctl

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"dynsched/api"
)

// Client talks to one dynschedd instance.
type Client struct {
	// BaseURL is the daemon's root URL, scheme included, no trailing
	// slash (NewClient normalizes).
	BaseURL string
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP *http.Client
}

// NewClient builds a client for addr, accepting bare host:port forms
// ("127.0.0.1:8080") as well as full URLs.
func NewClient(addr string) *Client {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return &Client{BaseURL: strings.TrimSuffix(addr, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// get issues a GET and decodes the JSON body into v.
func (c *Client) get(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// httpError turns a non-200 response into an error carrying the
// service's own diagnostic when the body is an {"error": ...} document.
func httpError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var doc struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &doc) == nil && doc.Error != "" {
		return fmt.Errorf("%s: %s", resp.Status, doc.Error)
	}
	return fmt.Errorf("%s", resp.Status)
}

// Health fetches /healthz.
func (c *Client) Health(ctx context.Context) (api.Health, error) {
	var h api.Health
	err := c.get(ctx, "/healthz", &h)
	return h, err
}

// Jobs fetches the job list.
func (c *Client) Jobs(ctx context.Context) ([]api.JobView, error) {
	var views []api.JobView
	err := c.get(ctx, "/v1/jobs", &views)
	return views, err
}

// Job fetches one job, result included when done.
func (c *Client) Job(ctx context.Context, id string) (api.JobView, error) {
	var v api.JobView
	err := c.get(ctx, "/v1/jobs/"+id, &v)
	return v, err
}

// Submit posts a submission and reports the created job view and
// whether it was served from the result cache (HTTP 200 vs 202).
func (c *Client) Submit(ctx context.Context, body []byte) (api.JobView, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return api.JobView{}, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return api.JobView{}, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return api.JobView{}, false, httpError(resp)
	}
	var v api.JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return api.JobView{}, false, err
	}
	return v, resp.StatusCode == http.StatusOK, nil
}

// Events follows the job's NDJSON event stream, handing each event to
// fn until the stream ends (terminal event), fn returns an error, or
// ctx is cancelled.
func (c *Client) Events(ctx context.Context, id string, fn func(api.Event) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError(resp)
	}
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		var e api.Event
		if err := json.Unmarshal(scanner.Bytes(), &e); err != nil {
			return fmt.Errorf("bad event line %q: %v", scanner.Text(), err)
		}
		if err := fn(e); err != nil {
			return err
		}
	}
	return scanner.Err()
}

// Metrics fetches and parses /metrics.
func (c *Client) Metrics(ctx context.Context) (Metrics, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, httpError(resp)
	}
	return ParseMetrics(resp.Body)
}
