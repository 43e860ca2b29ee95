package server

// The fleet protocol's HTTP surface: POST /v1/fleet/lease, /report
// and /heartbeat. Report bodies may arrive gzip-compressed
// (Content-Encoding: gzip) and lease responses are compressed when the
// runner advertises Accept-Encoding: gzip; both ride the runner's
// keep-alive connections, so a busy fleet holds one warm TCP stream
// per runner.

import (
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"time"

	"dynsched/api"
)

// maxFleetBodyBytes bounds fleet request bodies (after decompression):
// a report batch carries up to batchMax marshaled SimResults.
const maxFleetBodyBytes = 64 << 20

// maxLeaseWait caps a lease long-poll so dead runners cannot pin
// handler goroutines much longer than a heartbeat period.
const maxLeaseWait = 30 * time.Second

// readFleetBody reads a fleet request body, transparently unwrapping
// Content-Encoding: gzip, and decodes it into v.
func readFleetBody(r *http.Request, v any) error {
	var src io.Reader = r.Body
	if strings.Contains(r.Header.Get("Content-Encoding"), "gzip") {
		zr, err := gzip.NewReader(src)
		if err != nil {
			return err
		}
		defer zr.Close()
		src = zr
	}
	body, err := io.ReadAll(io.LimitReader(src, maxFleetBodyBytes))
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// writeFleetJSON writes v as JSON, gzip-compressed when the client
// advertised Accept-Encoding: gzip (lease responses carry full
// scenario specs — compressing them keeps batch grants cheap on the
// wire).
func writeFleetJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	if !strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
		writeJSON(w, status, v)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Encoding", "gzip")
	w.WriteHeader(status)
	zw := gzip.NewWriter(w)
	_ = json.NewEncoder(zw).Encode(v)
	_ = zw.Close()
}

// handleFleetLease grants a batch of pending plan units to a runner,
// long-polling up to the requested wait when nothing is pending.
func (s *Server) handleFleetLease(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req api.LeaseRequest
	if err := readFleetBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "parsing lease request: %v", err)
		return
	}
	if req.Runner == "" {
		writeError(w, http.StatusBadRequest, "lease request needs a runner id")
		return
	}
	wait := time.Duration(req.WaitMs) * time.Millisecond
	if wait < 0 {
		wait = 0
	}
	if wait > maxLeaseWait {
		wait = maxLeaseWait
	}
	grant, runners := s.fleet.lease(r.Context().Done(), req.Runner, req.Want, wait)
	resp := api.LeaseResponse{
		ExpiryMs: s.fleet.expiry.Milliseconds(),
		Runners:  runners,
	}
	for _, fu := range grant {
		resp.Units = append(resp.Units, api.LeasedUnit{
			Lease:    fu.leaseID,
			Hash:     fu.pu.Hash,
			Scenario: fu.pu.Scenario,
		})
	}
	writeFleetJSON(w, r, http.StatusOK, resp)
}

// handleFleetReport merges a batch of unit results. Individual stale
// or mismatched reports are rejected idempotently — the batch never
// fails as a whole, and reporting also renews the runner's remaining
// leases.
func (s *Server) handleFleetReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req api.ReportRequest
	if err := readFleetBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "parsing report: %v", err)
		return
	}
	if req.Runner == "" {
		writeError(w, http.StatusBadRequest, "report needs a runner id")
		return
	}
	resp := api.ReportResponse{ExpiryMs: s.fleet.expiry.Milliseconds()}
	for _, rep := range req.Results {
		if err := s.fleet.report(req.Runner, rep); err != nil {
			resp.Rejected++
		} else {
			resp.Merged++
		}
	}
	s.fleet.renew(req.Runner)
	writeFleetJSON(w, r, http.StatusOK, resp)
}

// handleFleetHeartbeat renews every lease the runner holds and keeps
// it on the fleet roster while it executes a long batch.
func (s *Server) handleFleetHeartbeat(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req api.HeartbeatRequest
	if err := readFleetBody(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "parsing heartbeat: %v", err)
		return
	}
	if req.Runner == "" {
		writeError(w, http.StatusBadRequest, "heartbeat needs a runner id")
		return
	}
	s.fleet.renew(req.Runner)
	runners, _, _ := s.fleet.occupancy()
	writeFleetJSON(w, r, http.StatusOK, api.HeartbeatResponse{
		ExpiryMs: s.fleet.expiry.Milliseconds(),
		Runners:  runners,
	})
}
