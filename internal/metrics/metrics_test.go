package metrics

import (
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestExpositionGolden pins the full text exposition format — HELP and
// TYPE comments, label rendering and escaping, cumulative histogram
// buckets with the +Inf terminator, sorted family order — against a
// hand-written document. Scrapers (and the dynschedctl parser) depend
// on this exact shape.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_requests_total", "Requests served.").Add(3)
	cv := r.CounterVec("test_hits_total", "Hits by tier.", "tier")
	cv.With("memory").Add(5)
	cv.With("disk").Inc()
	cv.Func(func() uint64 { return 9 }, "model")
	r.Gauge("test_depth", "Queue depth.").Set(7)
	r.GaugeFunc("test_workers", "Workers.", func() float64 { return 4 })
	gv := r.GaugeVec("test_jobs", "Jobs by state.", "state")
	gv.With("queued").Set(2)
	gv.Func(func() float64 { return 1.5 }, "running")
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(100)
	// A label value needing escaping.
	r.CounterVec("test_weird_total", `Help with \backslash.`, "path").With("a\"b\\c\nd").Inc()

	want := strings.Join([]string{
		`# HELP test_depth Queue depth.`,
		`# TYPE test_depth gauge`,
		`test_depth 7`,
		`# HELP test_hits_total Hits by tier.`,
		`# TYPE test_hits_total counter`,
		`test_hits_total{tier="memory"} 5`,
		`test_hits_total{tier="disk"} 1`,
		`test_hits_total{tier="model"} 9`,
		`# HELP test_jobs Jobs by state.`,
		`# TYPE test_jobs gauge`,
		`test_jobs{state="queued"} 2`,
		`test_jobs{state="running"} 1.5`,
		`# HELP test_latency_seconds Latency.`,
		`# TYPE test_latency_seconds histogram`,
		`test_latency_seconds_bucket{le="0.1"} 1`,
		`test_latency_seconds_bucket{le="1"} 3`,
		`test_latency_seconds_bucket{le="10"} 3`,
		`test_latency_seconds_bucket{le="+Inf"} 4`,
		`test_latency_seconds_sum 101.05`,
		`test_latency_seconds_count 4`,
		`# HELP test_requests_total Requests served.`,
		`# TYPE test_requests_total counter`,
		`test_requests_total 3`,
		`# HELP test_weird_total Help with \\backslash.`,
		`# TYPE test_weird_total counter`,
		`test_weird_total{path="a\"b\\c\nd"} 1`,
		`# HELP test_workers Workers.`,
		`# TYPE test_workers gauge`,
		`test_workers 4`,
	}, "\n") + "\n"

	if got := r.Text(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestHandler asserts the HTTP surface: content type, method guard,
// and that the body is the exposition document.
func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_one_total", "One.").Inc()
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "test_one_total 1") {
		t.Errorf("body missing series:\n%s", body)
	}

	post, err := ts.Client().Post(ts.URL, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != 405 {
		t.Errorf("POST status %d, want 405", post.StatusCode)
	}
}

// TestHistogramBucketBoundaries pins the le semantics at the edges: a
// value exactly on a bound belongs to that bound's bucket (le is <=),
// below the first bound lands in the first bucket, and above the last
// bound only in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_edges", "Edges.", []float64{1, 2, 4})
	for _, v := range []float64{0, 1, 1.0000001, 2, 4, 4.5} {
		h.Observe(v)
	}
	text := r.Text()
	for _, want := range []string{
		`test_edges_bucket{le="1"} 2`,    // 0 and exactly 1
		`test_edges_bucket{le="2"} 4`,    // + 1.0000001 and exactly 2
		`test_edges_bucket{le="4"} 5`,    // + exactly 4
		`test_edges_bucket{le="+Inf"} 6`, // + 4.5
		`test_edges_count 6`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	if h.Count() != 6 {
		t.Errorf("count %d, want 6", h.Count())
	}
	// The sum accumulates left to right; compare with tolerance since
	// float addition is not associative.
	if got, want := h.Sum(), 0+1+1.0000001+2+4+4.5; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("sum %v, want ~%v", got, want)
	}
}

// TestConcurrentIncrements hammers one counter, one gauge and one
// histogram from many goroutines; run under -race (CI does) this pins
// the lock-free write paths, and the final counts pin that no
// increment is lost.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_c_total", "c")
	cv := r.CounterVec("test_cv_total", "cv", "who")
	g := r.Gauge("test_g", "g")
	h := r.Histogram("test_h", "h", ExpBuckets(0.001, 2, 10))

	const workers, per = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lab := []string{"even", "odd"}[w%2]
			for i := 0; i < per; i++ {
				c.Inc()
				cv.With(lab).Inc()
				g.Add(1)
				h.Observe(float64(i%100) / 100)
			}
		}(w)
	}
	wg.Wait()

	if c.Value() != workers*per {
		t.Errorf("counter %d, want %d", c.Value(), workers*per)
	}
	if got := cv.With("even").Value() + cv.With("odd").Value(); got != workers*per {
		t.Errorf("vec total %d, want %d", got, workers*per)
	}
	if g.Value() != workers*per {
		t.Errorf("gauge %v, want %d", g.Value(), workers*per)
	}
	if h.Count() != workers*per {
		t.Errorf("histogram count %d, want %d", h.Count(), workers*per)
	}
}

// TestIdempotentRegistration pins that re-creating an instrument by
// name returns the same underlying instrument.
func TestIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_same_total", "same")
	a.Add(2)
	b := r.Counter("test_same_total", "same")
	if b.Value() != 2 {
		t.Errorf("re-registration returned a fresh counter (value %d)", b.Value())
	}
	h1 := r.Histogram("test_same_h", "h", []float64{1, 2})
	h1.Observe(1)
	h2 := r.Histogram("test_same_h", "h", []float64{1, 2})
	if h2.Count() != 1 {
		t.Errorf("re-registered histogram lost observations")
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.5, 2, 4)
	want := []float64{0.5, 1, 2, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}
