package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dynsched"
	"dynsched/api"
	"dynsched/internal/sim"
	"dynsched/internal/testenv"
)

// The event-cap tests name the one job event cap by the stream it
// bounds: a single run's progress events, a plan's unit events.
const (
	maxProgressEvents = maxJobEvents
	maxUnitEvents     = maxJobEvents
)

// startServer boots a server with its worker pool and an HTTP listener
// on a random port, both torn down with the test.
func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		cancel()
		srv.Wait()
	})
	return srv, ts
}

// lineScenario is the fast test workload: packet routing on a short
// line, milliseconds per 10k slots.
func lineScenario(name string, slots, seed int64) dynsched.Scenario {
	return dynsched.NewScenario(name,
		dynsched.WithModel("identity"),
		dynsched.WithTopology("line"),
		dynsched.WithNodes(6), dynsched.WithHops(5),
		dynsched.WithLambda(0.4),
		dynsched.WithAlgorithm("full-parallel"),
		dynsched.WithSlots(slots), dynsched.WithSeed(seed),
	)
}

func submitJSON(t *testing.T, ts *httptest.Server, body string) (int, JobView) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view JobView
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, view
}

func submitScenario(t *testing.T, ts *httptest.Server, sc dynsched.Scenario) (int, JobView) {
	t.Helper()
	body, err := json.Marshal(SubmitRequest{Scenario: &sc})
	if err != nil {
		t.Fatal(err)
	}
	return submitJSON(t, ts, string(body))
}

func getJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: %s", id, resp.Status)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	return view
}

// jobResult returns a done job's result document, inflated from the
// stored (gzip) copy the job holds.
func jobResult(t *testing.T, j *Job) []byte {
	t.Helper()
	j.mu.Lock()
	gz := j.result
	j.mu.Unlock()
	doc, err := inflate(gz)
	if err != nil {
		t.Fatalf("job %s: stored result does not inflate: %v", j.ID, err)
	}
	return doc
}

// streamEvents follows the job's NDJSON stream to its terminal event.
func streamEvents(t *testing.T, ts *httptest.Server, id string) []Event {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("event stream content type %q", ct)
	}
	var events []Event
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		var e Event
		if err := json.Unmarshal(scanner.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", scanner.Text(), err)
		}
		events = append(events, e)
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

// waitForState polls the job until it reaches want or the deadline
// passes.
func waitForState(t *testing.T, ts *httptest.Server, id string, want State) JobView {
	t.Helper()
	deadline := time.Now().Add(testenv.Timeout(10 * time.Second))
	for {
		view := getJob(t, ts, id)
		if view.State == want {
			return view
		}
		if view.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s (want %s): %+v", id, view.State, want, view)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerEndToEnd is the acceptance test: boot dynschedd's server
// on a random port, submit the same scenario twice, and check that
// (a) streamed progress events arrive in order, (b) the second
// submission is a cache hit returning a bit-identical result.
func TestServerEndToEnd(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 2, QueueDepth: 8, ProgressEvery: 1_000})
	sc := lineScenario("e2e", 4_000, 1)

	status, first := submitScenario(t, ts, sc)
	if status != http.StatusAccepted {
		t.Fatalf("first submission status %d", status)
	}
	if first.Cached {
		t.Fatal("first submission claims a cache hit")
	}
	if first.Hash != sc.Hash() {
		t.Fatalf("job hash %s != spec hash %s", first.Hash, sc.Hash())
	}

	// (a) The event stream replays and follows in order: contiguous
	// sequence numbers, queued → started → progress… → done, with
	// progress slot counts strictly increasing.
	events := streamEvents(t, ts, first.ID)
	if len(events) < 4 {
		t.Fatalf("only %d events: %+v", len(events), events)
	}
	for i, e := range events {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d: %+v", i, e.Seq, events)
		}
		if e.Job != first.ID {
			t.Fatalf("event %d names job %q", i, e.Job)
		}
	}
	if events[0].Type != "queued" || events[1].Type != "started" {
		t.Fatalf("stream starts %s, %s", events[0].Type, events[1].Type)
	}
	if last := events[len(events)-1]; last.Type != "done" || last.Cached {
		t.Fatalf("stream ends with %+v", last)
	}
	var lastSlot int64
	progress := 0
	for _, e := range events[2 : len(events)-1] {
		if e.Type != "progress" || e.Progress == nil {
			t.Fatalf("mid-stream event %+v", e)
		}
		if e.Progress.Slots <= lastSlot {
			t.Fatalf("progress slots went %d -> %d", lastSlot, e.Progress.Slots)
		}
		lastSlot = e.Progress.Slots
		progress++
	}
	if progress < 2 {
		t.Fatalf("only %d progress events", progress)
	}

	done := getJob(t, ts, first.ID)
	if done.State != StateDone || done.Error != "" || len(done.Result) == 0 {
		t.Fatalf("finished job: %+v", done)
	}
	var res sim.Result
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Slots != 4_000 || res.Injected == 0 || res.ProtocolErrors != 0 {
		t.Fatalf("implausible result: %+v", res)
	}

	// (b) Bit-identical cache hit.
	status, second := submitScenario(t, ts, sc)
	if status != http.StatusOK {
		t.Fatalf("cached submission status %d", status)
	}
	if !second.Cached || second.State != StateDone {
		t.Fatalf("second submission not served from cache: %+v", second)
	}
	if second.ID == first.ID {
		t.Fatal("cache hit reused the job ID")
	}
	cached := getJob(t, ts, second.ID)
	if !bytes.Equal(cached.Result, done.Result) {
		t.Fatalf("cached result not bit-identical:\n%s\nvs\n%s", cached.Result, done.Result)
	}
	cachedEvents := streamEvents(t, ts, second.ID)
	if len(cachedEvents) != 1 || cachedEvents[0].Type != "done" || !cachedEvents[0].Cached {
		t.Fatalf("cached job events: %+v", cachedEvents)
	}

	// A different seed is a different experiment: no false sharing.
	status, third := submitScenario(t, ts, lineScenario("e2e", 4_000, 2))
	if status != http.StatusAccepted || third.Cached {
		t.Fatalf("distinct spec hit the cache: status %d %+v", status, third)
	}
	if third.Hash == first.Hash {
		t.Fatal("different seeds share a hash")
	}
	waitForState(t, ts, third.ID, StateDone)
	fresh := getJob(t, ts, third.ID)
	var freshRes sim.Result
	if err := json.Unmarshal(fresh.Result, &freshRes); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(freshRes, res) {
		t.Fatal("different seeds produced identical results")
	}
}

// TestServerCancel is the cancellation half of the acceptance
// criterion: DELETE ends a running job promptly.
func TestServerCancel(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, QueueDepth: 8})
	// Long enough to never finish on its own (hundreds of millions of
	// slots), so only cancellation can end it.
	status, job := submitScenario(t, ts, lineScenario("long", 500_000_000, 1))
	if status != http.StatusAccepted {
		t.Fatalf("submission status %d", status)
	}
	waitForState(t, ts, job.ID, StateRunning)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+job.ID, nil)
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %s", resp.Status)
	}
	waitForState(t, ts, job.ID, StateCancelled)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	events := streamEvents(t, ts, job.ID)
	if last := events[len(events)-1]; last.Type != "cancelled" {
		t.Fatalf("stream ends with %+v", last)
	}

	// Cancelling a queued job works too: saturate the single worker,
	// then kill the waiting job before it starts.
	_, runner := submitScenario(t, ts, lineScenario("long", 500_000_000, 2))
	waitForState(t, ts, runner.ID, StateRunning)
	_, queued := submitScenario(t, ts, lineScenario("long", 500_000_000, 3))
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitForState(t, ts, queued.ID, StateCancelled)
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+runner.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitForState(t, ts, runner.ID, StateCancelled)
}

func TestServerSubmitByNameAndScenarioList(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 2, QueueDepth: 8})

	resp, err := http.Get(ts.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	var infos []ScenarioInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) < 6 {
		t.Fatalf("only %d registered scenarios listed", len(infos))
	}
	for _, info := range infos {
		if info.Name == "" || len(info.Hash) != 64 {
			t.Fatalf("malformed scenario info %+v", info)
		}
	}

	// Registry submission with a slots override (a distinct cacheable
	// experiment from the full-length scenario).
	status, job := submitJSON(t, ts, `{"name":"line-stochastic","slots":2000}`)
	if status != http.StatusAccepted {
		t.Fatalf("submission status %d", status)
	}
	waitForState(t, ts, job.ID, StateDone)
	full, _ := dynsched.ScenarioByName("line-stochastic")
	if job.Hash == full.Hash() {
		t.Fatal("slots override did not change the content address")
	}

	status, again := submitJSON(t, ts, `{"name":"line-stochastic","slots":2000}`)
	if status != http.StatusOK || !again.Cached {
		t.Fatalf("repeat name submission not cached: status %d %+v", status, again)
	}

	// noCache forces a fresh run of a cached spec.
	status, forced := submitJSON(t, ts, `{"name":"line-stochastic","slots":2000,"noCache":true}`)
	if status != http.StatusAccepted || forced.Cached {
		t.Fatalf("noCache submission served from cache: status %d %+v", status, forced)
	}
	waitForState(t, ts, forced.ID, StateDone)
}

func TestServerSubmissionErrors(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, QueueDepth: 4})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"empty", `{}`, http.StatusBadRequest},
		{"malformed", `{"name":`, http.StatusBadRequest},
		{"unknown field", `{"nmae":"line-stochastic"}`, http.StatusBadRequest},
		{"unknown name", `{"name":"no-such-scenario"}`, http.StatusNotFound},
		{"both", `{"name":"line-stochastic","scenario":{"name":"x","sim":{"slots":10}}}`, http.StatusBadRequest},
		{"invalid spec", `{"scenario":{"name":"x","sim":{"slots":-5}}}`, http.StatusBadRequest},
		{"uncompilable spec", `{"scenario":{"name":"x","model":{"kind":"tachyon"},"sim":{"slots":10}}}`, http.StatusBadRequest},
		{"sweep", `{"scenario":{"name":"x","sim":{"slots":10},"sweep":{"axis":"lambda","values":[0.1]}}}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		if status, _ := submitJSON(t, ts, c.body); status != c.want {
			t.Errorf("%s: status %d, want %d", c.name, status, c.want)
		}
	}
	// Unknown job endpoints 404.
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status %s", resp.Status)
	}
}

func TestServerQueueFull(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, QueueDepth: 1})
	_, running := submitScenario(t, ts, lineScenario("long", 500_000_000, 1))
	waitForState(t, ts, running.ID, StateRunning)
	_, queued := submitScenario(t, ts, lineScenario("long", 500_000_000, 2))

	status, _ := submitScenario(t, ts, lineScenario("long", 500_000_000, 3))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity submission status %d, want 503", status)
	}

	for _, id := range []string{queued.ID, running.ID} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		waitForState(t, ts, id, StateCancelled)
	}
}

func TestCacheDiskSpill(t *testing.T) {
	// A not-yet-existing nested path: the cache must create it rather
	// than silently dropping every spill write.
	dir := filepath.Join(t.TempDir(), "nested", "cache")
	_, ts := startServer(t, Config{Workers: 2, QueueDepth: 8, CacheEntries: 1, CacheDir: dir})

	a := lineScenario("spill-a", 2_000, 1)
	b := lineScenario("spill-b", 2_000, 2)
	_, jobA := submitScenario(t, ts, a)
	waitForState(t, ts, jobA.ID, StateDone)
	if _, err := os.Stat(filepath.Join(dir, resultKey(a.Hash())+".json.gz")); err != nil {
		t.Fatalf("result not spilled to disk: %v", err)
	}

	// B evicts A from the single-entry memory tier…
	_, jobB := submitScenario(t, ts, b)
	waitForState(t, ts, jobB.ID, StateDone)

	// …but A still hits, served from the spill directory.
	status, again := submitScenario(t, ts, a)
	if status != http.StatusOK || !again.Cached {
		t.Fatalf("evicted entry not served from disk: status %d %+v", status, again)
	}
	want := getJob(t, ts, jobA.ID).Result
	got := getJob(t, ts, again.ID).Result
	if !bytes.Equal(got, want) {
		t.Fatal("disk-served result not bit-identical")
	}
}

// TestCacheHitServesLibraryBytes: a result-cache hit serves exactly the
// library's document, spliced verbatim into GET /v1/jobs/{id} (the
// envelope stays indented).
func TestCacheHitServesLibraryBytes(t *testing.T) {
	sc := lineScenario("library-bytes", 2_000, 5)
	c, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}

	_, ts := startServer(t, Config{Workers: 1, QueueDepth: 4})
	_, first := submitScenario(t, ts, sc)
	waitForState(t, ts, first.ID, StateDone)
	status, hit := submitScenario(t, ts, sc)
	if status != http.StatusOK || !hit.Cached {
		t.Fatalf("resubmission missed the cache: status %d %+v", status, hit)
	}
	for _, id := range []string{first.ID, hit.ID} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(body, []byte("\n  \"state\": \"done\",\n")) {
			t.Fatalf("job %s: envelope not indented:\n%.300s", id, body)
		}
		if !bytes.HasSuffix(body, append(append([]byte(",\n  \"result\": "), want...), "\n}\n"...)) {
			t.Fatalf("job %s: result not spliced verbatim:\n%.300s", id, body)
		}
		if view := getJob(t, ts, id); !bytes.Equal(view.Result, want) {
			t.Fatalf("job %s: decoded result differs from the library's", id)
		}
	}
}

// TestCacheRestart checks that a fresh server over the same spill
// directory — a daemon restart — serves previous results.
func TestCacheRestart(t *testing.T) {
	dir := t.TempDir()
	sc := lineScenario("restart", 2_000, 5)

	_, ts1 := startServer(t, Config{Workers: 1, QueueDepth: 4, CacheDir: dir})
	_, job := submitScenario(t, ts1, sc)
	waitForState(t, ts1, job.ID, StateDone)

	_, ts2 := startServer(t, Config{Workers: 1, QueueDepth: 4, CacheDir: dir})
	status, view := submitScenario(t, ts2, sc)
	if status != http.StatusOK || !view.Cached {
		t.Fatalf("restarted server missed the disk cache: status %d %+v", status, view)
	}
}

// TestCacheIgnoresOtherStreamVersions seeds a spill directory with a
// document under the bare spec hash, as a daemon on an older engine
// stream left it: a restarted server must not serve it, and the spec
// recomputes to the library's document.
func TestCacheIgnoresOtherStreamVersions(t *testing.T) {
	dir := t.TempDir()
	sc := lineScenario("stream-version", 2_000, 5)
	stale := []byte(`{"slots":1}`)
	if err := os.WriteFile(filepath.Join(dir, sc.Hash()+".json"), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}

	srv, ts := startServer(t, Config{Workers: 1, QueueDepth: 4, CacheDir: dir})
	status, job := submitScenario(t, ts, sc)
	if status != http.StatusAccepted || job.Cached {
		t.Fatalf("stale document served: status %d %+v", status, job)
	}
	waitForState(t, ts, job.ID, StateDone)
	j, _ := srv.job(job.ID)
	got := jobResult(t, j)
	if !bytes.Equal(got, want) {
		t.Fatalf("recomputed result differs from the library's:\n got %s\nwant %s", got, want)
	}
}

func TestServerHealthAndJobList(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, QueueDepth: 4})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// The document round-trips through the typed wire struct...
	var health api.Health
	if err := json.Unmarshal(raw, &health); err != nil {
		t.Fatal(err)
	}
	if !health.OK || health.Workers != 1 || health.QueueCapacity != 4 || health.Draining {
		t.Fatalf("health %+v", health)
	}
	// ...and still serves every pre-typed field name, so clients built
	// against the old map document keep decoding.
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"ok", "queued", "queueCapacity", "jobs", "cached", "cachedDisk", "workers", "workersBusy"} {
		if _, ok := fields[key]; !ok {
			t.Errorf("health document lost the %q field: %s", key, raw)
		}
	}

	_, job := submitScenario(t, ts, lineScenario("listed", 2_000, 1))
	waitForState(t, ts, job.ID, StateDone)
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var views []JobView
	if err := json.NewDecoder(resp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(views) != 1 || views[0].ID != job.ID || len(views[0].Result) != 0 {
		t.Fatalf("job list %+v", views)
	}
}

// fetchAll is a tiny helper for the race test below.
func deleteJob(ts *httptest.Server, id string) error {
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("DELETE %s: %s", id, resp.Status)
	}
	return nil
}

// TestServerProgressEventCap pins the event-log bound: however small
// the configured progress period, one job retains at most
// maxProgressEvents progress events, so huge submissions cannot grow
// the daemon's memory (or event replays) without bound.
func TestServerProgressEventCap(t *testing.T) {
	_, ts := startServer(t, Config{Workers: 1, QueueDepth: 4, ProgressEvery: 1})
	// Slot counts that are not multiples of the cap would overshoot it
	// under floor division (600 slots would retain 600 events); the
	// ceil-divided period keeps every job within the bound.
	for _, slots := range []int64{600, 102_700} {
		_, job := submitScenario(t, ts, lineScenario("capped", slots, 1))
		waitForState(t, ts, job.ID, StateDone)
		progress := 0
		for _, e := range streamEvents(t, ts, job.ID) {
			if e.Type == "progress" {
				progress++
			}
		}
		if progress == 0 || progress > maxProgressEvents {
			t.Fatalf("%d slots: %d progress events retained, want (0, %d]", slots, progress, maxProgressEvents)
		}
	}
	// A small job keeps the configured fine-grained cadence.
	_, small := submitScenario(t, ts, lineScenario("fine", 300, 1))
	waitForState(t, ts, small.ID, StateDone)
	fine := 0
	for _, e := range streamEvents(t, ts, small.ID) {
		if e.Type == "progress" {
			fine++
		}
	}
	if fine != 300 { // one per slot; only the OnEnd snapshot becomes "done"
		t.Fatalf("fine-grained job retained %d progress events, want 300", fine)
	}
}
