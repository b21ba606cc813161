package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"

	"synapse/internal/httpsvc"
	"synapse/internal/telemetry"
)

// Error codes carried in structured error responses, beside the admission
// codes httpsvc owns (overloaded, draining). The code, not the message, is
// the contract: HTTPWorker rebuilds the sentinel errors from them.
const (
	CodeInvalid      = "invalid"
	CodeNoSession    = "no_session"
	CodeSeedMismatch = "seed_mismatch"
	CodeInternal     = "internal"
)

// HealthResponse is the /v1/healthz body: the stack's base block plus the
// worker's held sessions.
type HealthResponse struct {
	Status   string `json:"status"` // "ok" or "draining"
	Sessions int    `json:"sessions"`
	httpsvc.Health
}

// ServerConfig tunes a worker server: the generic stack's settings
// (admission, deadline, pprof, metrics, logger) plus the worker's own.
type ServerConfig struct {
	httpsvc.Config
	// Workers bounds the emulation fan-out per execute request
	// (0 = GOMAXPROCS).
	Workers int
	// MaxSessions bounds held compile sessions; the oldest is evicted
	// past the cap (0 = 4). Coordinators recover via no_session.
	MaxSessions int
}

// WorkerServer serves the worker protocol over HTTP on the shared httpsvc
// stack (admission control, RED middleware, /v1/healthz, /v1/metrics,
// structured errors, graceful drain — see docs/service.md):
//
//	POST /v1/compile   compile a session (CompileRequest -> CompileResponse)
//	POST /v1/execute   execute one chunk (ExecuteRequest -> NDJSON StreamChunk lines)
//
// It installs no admission policy: every request queues and sheds alike.
type WorkerServer struct {
	*httpsvc.Server
	local *LocalWorker

	jobsRun   *telemetry.Counter
	chunksRun *telemetry.Counter
	specRun   *telemetry.Counter
}

// NewServer builds a worker server around an in-process worker core.
func NewServer(cfg ServerConfig) *WorkerServer {
	s := &WorkerServer{
		local: &LocalWorker{name: "server", workers: cfg.Workers, sessions: newSessions(cfg.MaxSessions)},
	}
	s.Server = httpsvc.New(cfg.Config, httpsvc.Service{
		Subject: "dist: worker",
		Health: func(status string, base httpsvc.Health) any {
			return HealthResponse{Status: status, Sessions: s.local.sessions.len(), Health: base}
		},
	})
	reg := s.Metrics()
	s.jobsRun = reg.Counter("synapse_dist_worker_jobs_total",
		"Replay jobs this worker executed.")
	s.chunksRun = reg.Counter("synapse_dist_worker_chunks_total",
		"Job chunks (execute requests) this worker ran.")
	s.specRun = reg.Counter("synapse_dist_worker_speculative_total",
		"Chunks this worker ran as speculative straggler re-executions.")
	reg.GaugeFunc("synapse_dist_worker_sessions",
		"Compile sessions currently held.",
		func() float64 { return float64(s.local.sessions.len()) })
	s.Handle("POST /v1/compile", s.handleCompile)
	s.Handle("POST /v1/execute", s.handleExecute)
	return s
}

// maxExecuteJobs bounds the jobs one execute request may carry. Coordinators
// send chunks of a few hundred; the cap only stops a request from asking for
// an unbounded slab of outcomes.
const maxExecuteJobs = 1 << 20

// lineRecords is the number of outcomes one NDJSON line of an execute
// response packs. A whole 256-job chunk on one line measured +5% wall, +7%
// CPU and +10% peak RSS on the dist-eager benchmark workload (60 KB base64
// strings through encoding/json, docs/performance.md), so lines stay small.
const lineRecords = 64

// errTooLarge is the stack's body limit tripping, as a kind of ErrInvalid:
// resending the same oversized request cannot succeed.
var errTooLarge = fmt.Errorf("%w: body exceeds %d bytes", ErrInvalid, httpsvc.MaxBodyBytes)

// wireErrors pairs each sentinel error with its structured code and status:
// one table read by both directions of the wire — the server's error
// statuses and in-band stream lines, and HTTPWorker rebuilding sentinels.
// First match wins, so errTooLarge precedes the ErrInvalid it wraps.
var wireErrors = []struct {
	err    error
	code   string
	status int
}{
	{ErrNoSession, CodeNoSession, http.StatusNotFound},
	{ErrSeedMismatch, CodeSeedMismatch, http.StatusConflict},
	{errTooLarge, httpsvc.CodeTooLarge, http.StatusRequestEntityTooLarge},
	{ErrInvalid, CodeInvalid, http.StatusBadRequest},
}

// codeOf maps a worker error onto its structured code and status.
func codeOf(err error) (code string, status int) {
	for _, we := range wireErrors {
		if errors.Is(err, we.err) {
			return we.code, we.status
		}
	}
	return CodeInternal, http.StatusInternalServerError
}

// writeError maps worker errors onto structured responses.
func writeError(w http.ResponseWriter, err error) {
	code, status := codeOf(err)
	httpsvc.WriteJSON(w, status, httpsvc.ErrorResponse{Error: err.Error(), Code: code})
}

// decodeBody decodes a JSON request body into v, mapping failures onto the
// wire errors: errTooLarge past the stack's body limit, else ErrInvalid.
func decodeBody(r *http.Request, what string, v any) error {
	err := json.NewDecoder(r.Body).Decode(v)
	switch {
	case err == nil:
		return nil
	case httpsvc.BodyTooLarge(err):
		return fmt.Errorf("%w: decode %s", errTooLarge, what)
	}
	return fmt.Errorf("%w: decode %s: %v", ErrInvalid, what, err)
}

func (s *WorkerServer) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req CompileRequest
	if err := decodeBody(r, "compile", &req); err != nil {
		writeError(w, err)
		return
	}
	runner, err := s.local.sessions.compile(r.Context(), &req, s.local.workers)
	if err != nil {
		writeError(w, err)
		return
	}
	s.Logger().Info("session compiled",
		slog.String("session", req.Session),
		slog.Int("workloads", len(req.Spec.Workloads)))
	httpsvc.WriteJSON(w, http.StatusOK, CompileResponse{Session: req.Session, Seed: runner.Seed()})
}

func (s *WorkerServer) handleExecute(w http.ResponseWriter, r *http.Request) {
	var req ExecuteRequest
	if err := decodeBody(r, "execute", &req); err != nil {
		writeError(w, err)
		return
	}
	if len(req.Jobs) > maxExecuteJobs {
		writeError(w, fmt.Errorf("%w: %d jobs in one execute request, limit %d", ErrInvalid, len(req.Jobs), maxExecuteJobs))
		return
	}
	// Validate before computing anything: session and seed failures surface
	// as proper statuses, which is the handshake coordinators act on.
	runner, err := s.local.sessions.lookup(&req)
	if err != nil {
		writeError(w, err)
		return
	}
	s.chunksRun.Inc()
	if req.Speculative {
		s.specRun.Inc()
	}
	// Compute the chunk, then write it — the coordinator commits a chunk
	// whole, so no line is of use to it before the done line: one NDJSON
	// line per lineRecords outcomes (packed into one buffer reused line to
	// line), then the done line, or the in-band error line if executing failed.
	outs, err := runner.ExecuteJobs(r.Context(), req.Jobs)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	if err != nil {
		code, _ := codeOf(err)
		_ = enc.Encode(StreamChunk{Error: err.Error(), Code: code})
		return
	}
	var packed []byte
	for first := 0; first < len(outs); first += lineRecords {
		packed = packOutcomes(packed[:0], outs[first:min(first+lineRecords, len(outs))])
		if err := enc.Encode(StreamChunk{Packed: packed}); err != nil {
			return // the client is gone; it reads a stream without a done line as truncated
		}
	}
	s.jobsRun.Add(int64(len(req.Jobs)))
	_ = enc.Encode(StreamChunk{Done: true, N: len(outs)})
}
