// Package dist distributes one scenario across a fleet of workers: a
// coordinator keeps the discrete-event schedule (placement, queueing and
// virtual time are inherently global) and farms out the expensive part —
// the distinct emulation replays — to workers that compiled the same spec
// against the same profiles.
//
// The unit of work is the chunk: a contiguous run of a dispatch's jobs, in
// job order. Any worker may execute any chunk, so the only thing the two
// sides must agree on is what they compiled — every execute request carries
// the coordinator's scenario seed and a worker whose session compiled a
// different one refuses it (ErrSeedMismatch), so two processes disagreeing
// about (spec, seed) fail loudly instead of folding mismatched partials.
//
// The fold is fixed-order: a chunk's outcomes land at its offset in the
// coordinator's job order before the scenario engine aggregates them in
// deterministic instance order. Fleet size, chunk size, RPC interleaving
// and worker failures are therefore all invisible in the merged report — it
// is byte-identical to a single-process run of the same (spec, seed), the
// contract the differential golden tests pin.
//
// Failures ride internal/retry: each chunk RPC retries transient errors
// with full-jitter backoff, and a worker whose retries exhaust is marked
// dead; its chunks are reassigned to the survivors and recomputed. Because
// outcomes are pure functions of the job, recomputation is exact, not
// approximate.
//
// The wire protocol (WorkerServer, HTTPWorker) is JSON requests and NDJSON
// execute responses over HTTP on the shared internal/httpsvc stack:
// structured error codes, /v1/healthz liveness, /v1/metrics Prometheus
// exposition behind RED middleware, bounded admission with shedding, and
// graceful drain. LocalWorker is the same worker with the transport removed,
// for tests and single-host fan-out.
package dist

import (
	"errors"

	"synapse/internal/profile"
	"synapse/internal/scenario"
)

// Sentinel errors of the worker protocol. HTTPWorker rebuilds them from the
// structured error codes, so coordinator logic is transport-independent.
var (
	// ErrNoSession: the worker does not hold the referenced compile
	// session (it restarted, or evicted it). Recompile and retry.
	ErrNoSession = errors.New("dist: worker has no such session")
	// ErrSeedMismatch: the worker's compiled seed disagrees with the
	// coordinator's — the two sides are not running the same (spec, seed)
	// and no fold must happen. Terminal.
	ErrSeedMismatch = errors.New("dist: seed mismatch")
	// ErrInvalid: a malformed protocol message — the worker rejected the
	// request shape, or a response's packed outcomes are not whole records.
	// Terminal.
	ErrInvalid = errors.New("dist: invalid request")
	// ErrNoWorkers: every worker in the fleet is dead.
	ErrNoWorkers = errors.New("dist: no live workers remain")
)

// CompileRequest ships everything a worker needs to build its JobRunner:
// the spec and the coordinator-resolved profiles. Workers have no store
// access — the profiles they emulate are exactly the ones the coordinator
// resolved, one more thing that cannot drift between the two sides.
type CompileRequest struct {
	// Session names this compilation; Execute requests reference it.
	Session string `json:"session"`
	// Spec is the scenario both sides run.
	Spec *scenario.Spec `json:"spec"`
	// Profiles are the resolved profiles, one per workload in spec order.
	Profiles []*profile.Profile `json:"profiles"`
}

// CompileResponse acknowledges a compile with the worker's view of the
// determinism anchors.
type CompileResponse struct {
	Session string `json:"session"`
	Seed    uint64 `json:"seed"`
}

// ExecuteRequest asks a worker to resolve one chunk of jobs. Any run of jobs
// is a valid request as long as the seed handshake holds.
type ExecuteRequest struct {
	Session string `json:"session"`
	// Seed is the coordinator's scenario seed; it must equal the seed of the
	// spec the worker compiled for Session — the determinism handshake.
	Seed uint64         `json:"seed"`
	Jobs []scenario.Job `json:"jobs"`
	// Speculative marks a straggler re-execution of a chunk already in
	// flight elsewhere. Purely informational — the work is identical — but
	// workers count it, so speculation is observable fleet-side.
	Speculative bool `json:"speculative,omitempty"`
}

// StreamChunk is one NDJSON line of an execute response. Outcome lines
// carry contiguous job-order batches as packed wire records; the
// terminal line has either Done set (with N echoing the total streamed, a
// truncation check) or an in-band structured error — failures can surface
// after the 200 status is already on the wire.
type StreamChunk struct {
	Packed []byte `json:"packed,omitempty"`
	Done   bool   `json:"done,omitempty"`
	N      int    `json:"n,omitempty"`
	Error  string `json:"error,omitempty"`
	Code   string `json:"code,omitempty"`
}
