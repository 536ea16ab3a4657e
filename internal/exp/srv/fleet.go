package srv

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	dragonfly "repro"
	"repro/internal/exp/queue"
)

// fleet.go is the coordinator's side of the worker protocol: the three
// lease endpoints remote dragonsrv -worker processes drive. The wire
// contract is deliberately small — claim a batch, heartbeat the lease,
// submit outcomes — and every response a worker can act on is a status
// code: 200 carry on, 410 the lease is gone (stop, discard, re-claim),
// 503 the coordinator is draining (back off and rejoin later).

// maxClaimWait bounds how long a claim request may long-poll for work.
const maxClaimWait = 30 * time.Second

// claimRequest asks for up to Max points under one lease. WaitMS, when
// positive, long-polls: the coordinator holds the request until work is
// ready or the wait elapses (capped at maxClaimWait).
type claimRequest struct {
	Worker string `json:"worker"`
	Max    int    `json:"max"`
	WaitMS int    `json:"wait_ms,omitempty"`
}

// LeaseGrant is a successful claim. An empty ID means no work was ready
// within the wait — poll again. LeaseSeconds is how long the lease
// lives between heartbeats. A claimed point on the wire is queue.Task's
// own JSON layout.
type LeaseGrant struct {
	ID           string       `json:"id,omitempty"`
	LeaseSeconds float64      `json:"lease_seconds,omitempty"`
	Points       []queue.Task `json:"points,omitempty"`
}

// heartbeatResponse returns the remaining lease lifetime after the
// extension.
type heartbeatResponse struct {
	LeaseSeconds float64 `json:"lease_seconds"`
}

// TaskResult is one task's outcome as submitted by a worker: exactly
// one of Result or Error is set.
type TaskResult struct {
	Task   string            `json:"task"`
	Result *dragonfly.Result `json:"result,omitempty"`
	Error  string            `json:"error,omitempty"`
}

// resultsRequest submits a batch of outcomes under a lease.
type resultsRequest struct {
	Results []TaskResult `json:"results"`
}

// resultsResponse reports how the submission landed. Discarded counts
// idempotent duplicates of already-finished tasks.
type resultsResponse struct {
	Accepted  int `json:"accepted"`
	Discarded int `json:"discarded"`
}

func (s *Server) handleClaim(w http.ResponseWriter, r *http.Request) {
	var req claimRequest
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decode claim: %v", err)
		return
	}
	if req.Worker == "" {
		httpError(w, http.StatusBadRequest, "claim needs a worker name")
		return
	}
	wait := time.Duration(req.WaitMS) * time.Millisecond
	if wait < 0 {
		wait = 0
	}
	if wait > maxClaimWait {
		wait = maxClaimWait
	}
	l, err := s.queue.WaitClaim(r.Context(), req.Worker, req.Max, wait, false)
	switch {
	case errors.Is(err, ErrDraining) || (err == nil && s.draining.Load()):
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	case err != nil: // worker went away mid-poll
		return
	case l == nil:
		writeJSON(w, http.StatusOK, LeaseGrant{})
		return
	}
	s.logf("lease %s: %d point(s) -> worker %s", l.ID, len(l.Tasks), l.Worker)
	writeJSON(w, http.StatusOK, LeaseGrant{
		ID:           l.ID,
		LeaseSeconds: time.Until(l.Deadline).Seconds(),
		Points:       l.Tasks,
	})
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	deadline, err := s.queue.Heartbeat(r.PathValue("id"))
	if err != nil {
		httpError(w, http.StatusGone, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, heartbeatResponse{LeaseSeconds: time.Until(deadline).Seconds()})
}

func (s *Server) handleLeaseResults(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req resultsRequest
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decode results: %v", err)
		return
	}
	var resp resultsResponse
	for _, tr := range req.Results {
		var out queue.Outcome
		switch {
		case tr.Error != "":
			out.Err = errRemote{msg: tr.Error}
		case tr.Result != nil:
			out.Result = *tr.Result
		default:
			httpError(w, http.StatusBadRequest, "task %s: result or error required", tr.Task)
			return
		}
		accepted, err := s.queue.Complete(id, tr.Task, out)
		switch {
		case errors.Is(err, queue.ErrLeaseExpired):
			// Zombie: the lease expired and the work was requeued (or
			// already finished elsewhere). Idempotent discard — the
			// worker stops and re-claims.
			s.logf("lease %s: late result for %s discarded", id, tr.Task)
			httpError(w, http.StatusGone, "%v", err)
			return
		case err != nil:
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		case accepted:
			resp.Accepted++
		default:
			resp.Discarded++
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
