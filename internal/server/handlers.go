package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"dynsched"
	"dynsched/api"
)

// maxBodyBytes bounds submission bodies; scenario specs are small.
const maxBodyBytes = 1 << 20

// Handler returns the service's HTTP surface. It is safe to serve
// before Start, but jobs only execute once the worker pool runs.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	mux.HandleFunc("/v1/scenarios", s.handleScenarios)
	mux.HandleFunc("/v1/fleet/lease", s.handleFleetLease)
	mux.HandleFunc("/v1/fleet/report", s.handleFleetReport)
	mux.HandleFunc("/v1/fleet/heartbeat", s.handleFleetHeartbeat)
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.Handle("/metrics", s.metrics.reg.Handler())
	return mux
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleSubmit(w, r)
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.jobList())
	default:
		writeError(w, http.StatusMethodNotAllowed, "use POST to submit or GET to list")
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if len(body) > maxBodyBytes {
		writeError(w, http.StatusRequestEntityTooLarge, "submission larger than %d bytes", maxBodyBytes)
		return
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req SubmitRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "parsing submission: %v", err)
		return
	}

	var sc dynsched.Scenario
	switch {
	case req.Name != "" && req.Scenario != nil:
		writeError(w, http.StatusBadRequest, "name and scenario are mutually exclusive")
		return
	case req.Name != "":
		reg, ok := dynsched.ScenarioByName(req.Name)
		if !ok {
			writeError(w, http.StatusNotFound, "unknown scenario %q (see GET /v1/scenarios)", req.Name)
			return
		}
		sc = reg
	case req.Scenario != nil:
		sc = *req.Scenario
	default:
		writeError(w, http.StatusBadRequest, "submission needs a name or an inline scenario")
		return
	}
	if req.Slots != nil {
		sc.Sim.Slots = *req.Slots
	}
	if req.Seed != nil {
		sc.Sim.Seed = *req.Seed
	}
	// Inject the daemon's default intra-slot resolution worker count
	// into scenarios that leave theirs unset. Hash excludes the knob, so
	// cached results stay shared between serial and parallel daemons.
	if s.cfg.ResolveParallelism > 0 && sc.Sim.ResolveParallelism == 0 {
		sc.Sim.ResolveParallelism = s.cfg.ResolveParallelism
	}
	reps := req.Reps
	if reps == 0 {
		reps = 1
	}
	// Decompose into the execution plan: one unit for a plain run, one
	// per replication/sweep value/grid point otherwise. Plan validates
	// the spec and also rejects nonsense shapes (reps < 1, replicated
	// sweeps, oversized grids) with a synchronous diagnostic.
	p, err := sc.Plan(reps)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// A result-cache hit is served without compiling; otherwise
	// submitPlan compiles the first unit so an unbuildable spec fails
	// here, synchronously, instead of in the worker.
	j, cached, err := s.submitPlan(p, req.NoCache)
	var bad *specError
	if errors.As(err, &bad) {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if errors.Is(err, errQueueFull) {
		writeError(w, http.StatusServiceUnavailable, "job queue is full (%d queued); retry later", s.queueLen())
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	status := http.StatusAccepted
	if cached {
		status = http.StatusOK
	}
	writeJSON(w, status, j.View())
}

// handleJob routes /v1/jobs/{id} and /v1/jobs/{id}/events.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	j, ok := s.job(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		writeJobResult(w, j)
	case sub == "" && r.Method == http.MethodDelete:
		if _, cancelledNow := j.requestCancel(); cancelledNow {
			// The queued job went terminal right here; journal it (a
			// running job's outcome is journaled by its worker).
			s.journalFinish(j, StateCancelled)
			s.markFinished(StateCancelled)
		}
		writeJSON(w, http.StatusOK, j.View())
	case sub == "events" && r.Method == http.MethodGet:
		s.streamEvents(w, r, j)
	default:
		writeError(w, http.StatusNotFound, "unknown job endpoint %q", r.URL.Path)
	}
}

// streamEvents writes the job's event log as NDJSON — replaying what
// already happened, then following live — and returns after the
// terminal event or when the client disconnects.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request, j *Job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// Wake blocked event waits when the client goes away: Cond has no
	// context support, so a disconnect broadcasts under the job lock.
	stop := context.AfterFunc(r.Context(), func() {
		j.mu.Lock()
		j.cond.Broadcast()
		j.mu.Unlock()
	})
	defer stop()

	enc := json.NewEncoder(w)
	for i := 0; ; i++ {
		e, ok := j.event(r.Context(), i)
		if !ok {
			return // client gone
		}
		if err := enc.Encode(e); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		switch e.Type {
		case "done", "failed", "cancelled":
			return
		}
	}
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	all := dynsched.Scenarios()
	out := make([]ScenarioInfo, 0, len(all))
	for _, sc := range all {
		out = append(out, ScenarioInfo{Name: sc.Name, Description: sc.Description, Hash: sc.Hash()})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.health())
}

// health assembles the typed /healthz document.
func (s *Server) health() api.Health {
	s.mu.Lock()
	busy := len(s.running)
	draining := s.draining
	jobs := len(s.jobs)
	s.mu.Unlock()
	doc := api.Health{
		OK:            true,
		Queued:        s.queueLen(),
		QueueCapacity: s.cfg.QueueDepth,
		Jobs:          jobs,
		Cached:        s.cache.Len(),
		CachedDisk:    s.cache.DiskLen(),
		Workers:       s.cfg.Workers,
		WorkersBusy:   busy,
		Draining:      draining,
	}
	if fh := s.fleet.snapshot(); fh.Runners > 0 || fh.LeasedTotal > 0 || fh.PendingUnits > 0 {
		// The fleet section appears once a runner has ever joined (or
		// units are parked in the lease table); an idle local server
		// keeps the pre-fleet document shape.
		fh.DispatchOnly = s.cfg.FleetLocal < 0
		doc.Fleet = fh
	}
	if s.journal != nil {
		st := s.journal.Stats()
		doc.Journal = &api.JournalHealth{
			Segments:        st.Segments,
			Records:         st.Records,
			Bytes:           st.Bytes,
			ReplayedRecords: s.replayStats.Records,
			ReplayTorn:      s.replayStats.Torn,
			RecoveredJobs:   s.recovered,
			CleanShutdown:   s.cleanShutdown,
		}
	}
	return doc
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeJobResult writes GET /v1/jobs/{id}: the job view indented like
// every other response, with a done job's result document spliced in as
// the last member ("result", JobView's last field) — inflated from its
// stored copy straight into the response, never re-encoded.
func writeJobResult(w http.ResponseWriter, j *Job) {
	v, gz := j.snapshot()
	if gz == nil {
		writeJSON(w, http.StatusOK, v)
		return
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		writeError(w, http.StatusInternalServerError, "job %s result: %v", j.ID, err)
		return
	}
	var head bytes.Buffer
	enc := json.NewEncoder(&head)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(bytes.TrimSuffix(head.Bytes(), []byte("\n}\n")))
	_, _ = io.WriteString(w, ",\n  \"result\": ")
	_, _ = io.Copy(w, zr)
	_, _ = io.WriteString(w, "\n}\n")
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
