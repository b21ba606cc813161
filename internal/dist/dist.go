// Package dist distributes one scenario across a fleet of workers: a
// coordinator keeps the discrete-event schedule (placement, queueing and
// virtual time are inherently global) and farms out the expensive part —
// the distinct emulation replays — to workers that compiled the same spec
// against the same profiles.
//
// The partition is deterministic and fleet-size independent. The scenario
// seed derives an indexed family of shard keys, sim.StreamN(seed, "shard",
// 0..S-1), and every replay job lands on the shard that wins rendezvous
// (highest-random-weight) hashing between the job's identity hash and the
// shard keys. Workers verify the key of every shard they are handed
// (ErrShardKey on mismatch), so two processes disagreeing about (spec,
// seed, shards) fail loudly instead of folding mismatched partials.
//
// The fold is fixed-order: outcomes are keyed by job identity and placed
// back in the coordinator's job order before the scenario engine aggregates
// them in deterministic instance order. Fleet size, shard count, RPC
// interleaving and worker failures are therefore all invisible in the
// merged report — it is byte-identical to a single-process run of the same
// (spec, seed), the contract the differential golden tests pin.
//
// Failures ride internal/retry: each shard RPC retries transient errors
// with full-jitter backoff, and a worker whose retries exhaust is marked
// dead; its shards are reassigned to the survivors and recomputed. Because
// outcomes are pure functions of the job, recomputation is exact, not
// approximate.
//
// The wire protocol (WorkerServer, HTTPWorker) is JSON over HTTP on the
// shared internal/httpsvc stack: structured error codes, /v1/healthz
// liveness, /v1/metrics Prometheus exposition behind RED middleware, bounded
// admission with shedding, and graceful drain. LocalWorker is the same
// worker with the transport removed, for tests and single-host fan-out.
package dist

import (
	"encoding/binary"
	"errors"
	"hash/fnv"

	"synapse/internal/profile"
	"synapse/internal/scenario"
	"synapse/internal/sim"
)

// Sentinel errors of the worker protocol. HTTPWorker rebuilds them from the
// structured error codes, so coordinator logic is transport-independent.
var (
	// ErrNoSession: the worker does not hold the referenced compile
	// session (it restarted, or evicted it). Recompile and retry.
	ErrNoSession = errors.New("dist: worker has no such session")
	// ErrShardKey: the worker's derived shard key disagrees with the
	// coordinator's — the two sides are not running the same (spec, seed,
	// shards) and no fold must happen. Terminal.
	ErrShardKey = errors.New("dist: shard key mismatch")
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
	// Shards is the fleet-wide shard count, echoed in health reporting.
	Shards int `json:"shards"`
}

// CompileResponse acknowledges a compile with the worker's view of the
// determinism anchors.
type CompileResponse struct {
	Session string `json:"session"`
	Seed    uint64 `json:"seed"`
}

// ExecuteRequest asks a worker to resolve one chunk of a shard's jobs.
// Chunking is invisible to the worker: any sub-slice of a shard's jobs is a
// valid request as long as the shard-key handshake holds.
type ExecuteRequest struct {
	Session string `json:"session"`
	// Shard is the shard index; ShardKey must equal
	// sim.StreamN(seed, "shard", Shard) as derived by the worker from its
	// own compiled spec — the determinism handshake.
	Shard    int            `json:"shard"`
	ShardKey uint64         `json:"shard_key"`
	Jobs     []scenario.Job `json:"jobs"`
	// Stream asks for a chunked NDJSON response (StreamChunk lines) instead
	// of one ExecuteResponse body, so outcomes flow back as they complete.
	Stream bool `json:"stream,omitempty"`
	// Speculative marks a straggler re-execution of a chunk already in
	// flight elsewhere. Purely informational — the work is identical — but
	// workers count it, so speculation is observable fleet-side.
	Speculative bool `json:"speculative,omitempty"`
}

// ExecuteResponse returns the chunk's outcomes, in job order, as packed
// wire records (codec.go; encoding/json carries the bytes as base64).
type ExecuteResponse struct {
	Packed []byte `json:"packed"`
}

// StreamChunk is one NDJSON line of a streaming execute response. Outcome
// lines carry contiguous job-order batches as packed wire records; the
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

// shardPrefix is the substream family shard keys derive from.
const shardPrefix = "shard"

// ShardKeys derives the shard-key family for (seed, shards). Both sides
// compute it independently; exchanging (seed, shards) is enough to agree on
// the whole partition.
func ShardKeys(seed uint64, shards int) []uint64 {
	return sim.Streams(seed, shardPrefix, shards)
}

// jobHash condenses a job's identity into the hash rendezvous ranks. The
// encoding is canonical (fixed field order, length-unambiguous), so equal
// jobs hash equally on every host.
func jobHash(j scenario.Job) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(int64(j.Workload)))
	h.Write(buf[:])
	h.Write([]byte(j.Machine))
	h.Write([]byte{0})
	binary.LittleEndian.PutUint64(buf[:], j.LoadBits)
	h.Write(buf[:])
	return h.Sum64()
}

// mix64 is the SplitMix64 finalizer: the rendezvous score must decorrelate
// jobHash^key pairs that differ in few bits.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// shardOf assigns a job hash to a shard by highest-random-weight hashing
// over the shard keys: the winner depends only on (hash, keys), never on
// fleet size or call order, and adding shards moves only the jobs whose new
// shard wins — the property that keeps partitions stable as fleets scale.
func shardOf(hash uint64, keys []uint64) int {
	best, bestScore := 0, uint64(0)
	for s, k := range keys {
		if score := mix64(hash ^ k); s == 0 || score > bestScore {
			best, bestScore = s, score
		}
	}
	return best
}
