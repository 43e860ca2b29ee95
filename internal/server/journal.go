// The server's durable execution tier: a job journal and an on-disk
// checkpoint store, both rooted in Config.JournalDir.
//
// The journal records job lifecycle events — the submitted spec, each
// freshly-simulated unit, and the terminal state — as JSON payloads in
// an append-only, CRC-framed record log (internal/journal). On
// restart, New replays the log, restores terminal jobs to the
// registry, and resubmits every job that never reached a terminal
// state under its original ID. Recovery re-simulates only units whose
// results never reached the content-addressed cache; the per-unit
// cache lookup serves the rest, and the assembled result document is
// byte-identical to an uninterrupted run's.
//
// Deliberate asymmetry in what is journaled: a user cancellation is a
// terminal outcome and is journaled, but a shutdown- or crash-time
// cancellation is not — those jobs are meant to recover on the next
// boot.
//
// The checkpoint store holds at most one engine checkpoint per unit
// (JournalDir/checkpoints/<unit-hash>.json, written atomically), so a
// huge interrupted simulation resumes from its last frame-aligned
// snapshot instead of slot 0. Files are deleted when their unit
// completes; a stale or unreadable file is dropped, never fatal.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"dynsched"
	"dynsched/internal/journal"
	"dynsched/internal/sim"
)

// journalRecord is the JSON payload of one journal entry. Op selects
// which fields are meaningful:
//
//	submit    id, hash, spec, reps, noCache — a job entered the queue
//	unit      id, index, hash — one plan unit's fresh result reached
//	          the cache (cache-served units are not recorded; they need
//	          no recovery)
//	finish    id, state — the job reached a terminal state
//	shutdown  (none) — the process drained and exited cleanly
type journalRecord struct {
	Op      string             `json:"op"`
	ID      string             `json:"id,omitempty"`
	Hash    string             `json:"hash,omitempty"`
	Spec    *dynsched.Scenario `json:"spec,omitempty"`
	Reps    int                `json:"reps,omitempty"`
	NoCache bool               `json:"noCache,omitempty"`
	Index   int                `json:"index,omitempty"`
	State   State              `json:"state,omitempty"`
}

// replayedJob is one job's state reconstructed from the journal.
type replayedJob struct {
	id      string
	hash    string
	spec    dynsched.Scenario
	reps    int
	noCache bool
	units   int // fresh units journaled before the cut
	state   State
}

// appendRecord journals one record; sync forces it to disk before
// returning. A nil journal (durability off) is a no-op. Append errors
// are reported to the caller but the server treats them as
// non-fatal — the journal degrades, jobs still run.
func (s *Server) appendRecord(rec journalRecord, sync bool) error {
	if s.journal == nil {
		return nil
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := s.journal.Append(payload, sync); err != nil {
		return err
	}
	s.metrics.journalAppends.Inc()
	if sync {
		s.metrics.journalFsyncs.Inc()
	}
	return nil
}

// journalSubmit records a job entering the queue.
func (s *Server) journalSubmit(j *Job, reps int) {
	_ = s.appendRecord(journalRecord{
		Op: "submit", ID: j.ID, Hash: j.Hash,
		Spec: &j.Scenario, Reps: reps, NoCache: j.noCache,
	}, true)
}

// journalUnit records one plan unit's fresh result reaching the cache.
// Unit records are not synced: losing the tail of them costs only
// re-simulating units whose results may nonetheless be in the cache.
func (s *Server) journalUnit(j *Job, index int, hash string) {
	_ = s.appendRecord(journalRecord{Op: "unit", ID: j.ID, Index: index, Hash: hash}, false)
}

// journalFinish records a job's terminal state.
func (s *Server) journalFinish(j *Job, state State) {
	_ = s.appendRecord(journalRecord{Op: "finish", ID: j.ID, State: state}, true)
}

// recover replays the journal directory, restores the job table, and
// re-enqueues incomplete jobs. It then opens a fresh journal segment,
// re-journals the surviving incomplete jobs (the compacted snapshot),
// and prunes the replayed segments. Called from New before the worker
// pool starts, so no locking is needed.
func (s *Server) recover(dir string) error {
	jobs := map[string]*replayedJob{}
	var order []string
	stats, err := journal.Replay(dir, func(payload []byte) error {
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("decoding journal record: %w", err)
		}
		switch rec.Op {
		case "submit":
			if rec.Spec == nil || rec.ID == "" {
				return fmt.Errorf("journal submit record without spec or id")
			}
			if _, dup := jobs[rec.ID]; !dup {
				order = append(order, rec.ID)
			}
			jobs[rec.ID] = &replayedJob{
				id: rec.ID, hash: rec.Hash, spec: *rec.Spec,
				reps: rec.Reps, noCache: rec.NoCache,
			}
		case "unit":
			if rj, ok := jobs[rec.ID]; ok {
				rj.units++
			}
		case "finish":
			if rj, ok := jobs[rec.ID]; ok {
				rj.state = rec.State
			}
		case "shutdown":
			s.cleanShutdown = true
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("replaying journal: %w", err)
	}
	s.replayStats = stats

	jn, err := journal.Open(dir, 0)
	if err != nil {
		return fmt.Errorf("opening journal: %w", err)
	}
	s.journal = jn
	s.ckptDir = filepath.Join(dir, "checkpoints")

	for _, id := range order {
		rj := jobs[id]
		if n := jobIDNum(id); n > s.nextID {
			s.nextID = n
		}
		if rj.state.Terminal() {
			s.restoreTerminal(rj)
			continue
		}
		s.resubmit(rj)
	}
	if err := jn.Sync(); err != nil {
		return fmt.Errorf("syncing journal snapshot: %w", err)
	}
	if err := jn.Prune(); err != nil {
		return fmt.Errorf("pruning journal: %w", err)
	}
	return nil
}

// restoreTerminal re-registers a finished job: its state survives the
// restart and, for done jobs, the result document is served from the
// content-addressed cache when still present. Terminal jobs are not
// re-journaled — after pruning, the next restart forgets them (their
// results stay in the cache, addressed by spec hash).
func (s *Server) restoreTerminal(rj *replayedJob) {
	j := newJob(rj.id, rj.hash, rj.spec)
	j.state = rj.state
	j.recovered = true
	if rj.state == StateDone {
		if gz, ok := s.cache.Stored(resultKey(rj.hash)); ok {
			j.result = gz
		}
	}
	s.register(j)
}

// resubmit re-enqueues an incomplete job under its original ID with
// recovered set, re-journaling its submit record into the compacted
// snapshot. A job whose spec no longer plans (library drift) or that
// finds the queue full turns failed with a diagnostic instead of
// silently vanishing.
func (s *Server) resubmit(rj *replayedJob) {
	j := newJob(rj.id, rj.hash, rj.spec)
	j.recovered = true
	j.noCache = rj.noCache
	p, err := rj.spec.Plan(max(rj.reps, 1))
	if err == nil {
		j.plan = p
		j.unitsTotal = viewUnits(p)
		j.publish(Event{Type: "queued"})
		select {
		case s.queue <- j:
			s.register(j)
			s.recovered++
			s.journalSubmit(j, rj.reps)
			return
		default:
			err = errors.New("queue full at startup")
		}
	}
	j.state = StateFailed
	j.errMsg = fmt.Sprintf("recovering job: %v", err)
	j.publish(Event{Type: "failed", Error: j.errMsg})
	s.register(j)
	s.journalFinish(j, StateFailed)
	s.markFinished(StateFailed)
}

// jobIDNum extracts the numeric suffix of a "job-N" ID (0 for foreign
// shapes), so allocID continues past recovered IDs.
func jobIDNum(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "job-"))
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// ---- Checkpoint store ----

// ckptPath is the unit's checkpoint file, addressed by its result key:
// a restarted daemon finds the same unit at the same path, and never
// resumes a checkpoint taken under another engine stream version.
func (s *Server) ckptPath(hash string) string {
	return filepath.Join(s.ckptDir, resultKey(hash)+".json")
}

// saveCheckpoint atomically replaces the unit's checkpoint file.
func (s *Server) saveCheckpoint(hash string, cp *sim.Checkpoint) error {
	data, err := json.Marshal(cp)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(s.ckptDir, 0o755); err != nil {
		return err
	}
	tmp := s.ckptPath(hash) + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, s.ckptPath(hash)); err != nil {
		return err
	}
	s.metrics.checkpointWrites.Inc()
	return nil
}

// loadCheckpoint returns the unit's stored checkpoint, nil when there
// is none or it does not decode — a bad checkpoint file costs a
// restart from slot 0, never a failed job.
func (s *Server) loadCheckpoint(hash string) *sim.Checkpoint {
	data, err := os.ReadFile(s.ckptPath(hash))
	if err != nil {
		return nil
	}
	var cp sim.Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil
	}
	return &cp
}

// dropCheckpoint removes the unit's checkpoint file once its result is
// durable in the cache.
func (s *Server) dropCheckpoint(hash string) {
	_ = os.Remove(s.ckptPath(hash))
}
