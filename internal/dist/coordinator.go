package dist

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"synapse/internal/retry"
	"synapse/internal/scenario"
	"synapse/internal/stats"
	"synapse/internal/store"
	"synapse/internal/telemetry"
)

// Dispatch defaults. The chunk is the unit of scheduling, stealing and
// speculation.
const (
	defaultChunkSize = 256

	// The straggler threshold adapts to observed chunk latency, like
	// storeclnt's request hedge: a stats.LatencyRing of recent successful
	// attempt durations, speculation at stealFactor × p95 (never below
	// stealFloor), and a fixed default until the ring is warm.
	stealFactor       = 2
	stealFloor        = 5 * time.Millisecond
	defaultStealAfter = 250 * time.Millisecond
)

// Config tunes a coordinator.
type Config struct {
	// Workers is the fleet. At least one is required.
	Workers []Worker
	// ChunkSize tiles each dispatch's jobs, in job order, into contiguous
	// chunks of at most this size — the unit of dispatch, work stealing and
	// speculative re-execution. Chunking changes only when work runs, never
	// what runs or the fold order. 0 picks 256; negative disables chunking
	// (one chunk per dispatch).
	ChunkSize int
	// StealAfter is the straggler threshold: when the queue is drained and
	// a worker sits idle, an in-flight chunk older than this is
	// speculatively re-executed there, first-complete-wins. 0 adapts the
	// threshold to the fleet's observed p95 chunk latency; negative
	// disables speculation.
	StealAfter time.Duration
	// Retry governs each chunk RPC; nil uses retry.Default. Protocol
	// errors (invalid request, seed mismatch) are always terminal
	// regardless of the policy's own classifier.
	Retry *retry.Policy
	// Logger receives chunk dispatch and failure events. nil discards.
	Logger *slog.Logger

	// now is the scheduler's clock, replaceable in tests. nil is time.Now.
	now func() time.Time
}

// workerState is the coordinator's view of one fleet member.
type workerState struct {
	w   Worker
	idx int // configuration order, the tiebreak of the affinity pick
	// mu serializes the compile RPC so concurrent chunks on one worker do
	// not compile twice.
	mu sync.Mutex
	// compiled: the worker holds the session — set by ensureCompiled,
	// cleared when the worker answers ErrNoSession, and read lock-free by
	// the affinity pick, which prefers such workers.
	compiled atomic.Bool
	dead     atomic.Bool
}

// chunkState is one chunk of the current dispatch: a contiguous run of its
// jobs small enough to schedule, steal and re-execute as a unit.
type chunkState struct {
	first int            // index of jobs[0] in the dispatch
	jobs  []scenario.Job // a sub-slice of the caller's jobs, never a copy
	// attempts counts executions currently in flight (primary plus at most
	// one speculative twin); done flips at the first commit.
	attempts int
	done     bool
	stolen   bool // a speculative twin was dispatched; at most one per chunk
	// digest is the canonical hash of the committed outcomes, kept while a
	// twin is still running so the loser can be asserted byte-equal.
	digest    uint64
	hasDigest bool
	started   time.Time // start of the current primary attempt
	// cancels aborts the in-flight attempts ([0] primary, [1] twin): the
	// first commit cancels its rival, so a stolen straggler chunk stops
	// costing wall clock the moment the speculative copy lands. A loser
	// that completes despite the cancel is still verified byte-equal.
	cancels [2]context.CancelFunc
}

// dispatchScratch is the per-instant dispatch state, pooled across
// scheduling instants: a clustered scenario dispatches once per instant,
// and reallocating the chunk table every time was measurable allocation
// churn on the sim hot path. plan resets and reuses everything; the
// AllocsPerRun regression test pins the steady state at zero.
type dispatchScratch struct {
	// chunks tile the dispatch in job order, which is also dispatch order:
	// the chunk holding the fold watermark is always among the earliest
	// dispatched.
	chunks   []chunkState
	buffered []*scenario.Outcome // indexed by job; nil = not committed, or already folded
	requeue  []*chunkState
	idle     []*workerState
}

// Coordinator tiles replay jobs into contiguous chunks and pull-dispatches
// the chunks across the fleet — one chunk per idle worker, which is what
// bounds the work in flight — with straggler speculation and a streaming
// fold. It implements scenario.StreamingExecutor, so plugging it into
// scenario.RunOptions.Executor distributes any scenario unchanged.
type Coordinator struct {
	creq       *CompileRequest
	policy     retry.Policy
	log        *slog.Logger
	chunkSize  int
	stealAfter time.Duration
	now        func() time.Time

	workers []*workerState

	// execMu serializes dispatches: the scratch below has one owner.
	execMu  sync.Mutex
	scratch dispatchScratch

	// lat is the chunk-latency ring behind the adaptive steal threshold.
	lat stats.LatencyRing

	// counters (exposed via Stats)
	jobs         atomic.Int64
	rpcs         atomic.Int64
	failures     atomic.Int64
	recomputed   atomic.Int64
	chunks       atomic.Int64
	steals       atomic.Int64
	specWins     atomic.Int64
	specDiscards atomic.Int64
	compiles     atomic.Int64
	peakResident atomic.Int64
}

// Stats is a snapshot of the coordinator's counters.
type Stats struct {
	// Jobs counts replay jobs dispatched; RPCs counts chunk executions
	// attempted (retries included); WorkerFailures counts workers marked
	// dead; RecomputedChunks counts chunk reassignments after a failure.
	Jobs             int64 `json:"jobs"`
	RPCs             int64 `json:"rpcs"`
	WorkerFailures   int64 `json:"worker_failures"`
	RecomputedChunks int64 `json:"recomputed_chunks"`
	// Chunks counts chunk dispatches (speculative twins included); Steals
	// counts speculative re-executions dispatched; SpeculativeWins the
	// speculations that committed first; SpeculativeDiscards the race
	// losers whose byte-equal outcomes were dropped.
	Chunks              int64 `json:"chunks"`
	Steals              int64 `json:"steals"`
	SpeculativeWins     int64 `json:"speculative_wins"`
	SpeculativeDiscards int64 `json:"speculative_discards"`
	// Compiles counts compile RPCs issued fleet-wide — affinity keeps it
	// near the number of workers that actually received work.
	Compiles int64 `json:"compiles"`
	// PeakResident is the most jobs simultaneously in flight or buffered
	// ahead of the fold watermark — a measurement, not a limit.
	PeakResident int64 `json:"peak_resident_outcomes"`
	// LiveWorkers is the current live fleet size.
	LiveWorkers int `json:"live_workers"`
}

// NewCoordinator resolves the spec's profiles through st and prepares the
// fleet-wide compile request. Workers compile lazily, on the first chunk
// each receives.
func NewCoordinator(ctx context.Context, spec *scenario.Spec, st store.Store, cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("dist: no workers configured")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	profs, err := scenario.ResolveProfiles(ctx, spec, st)
	if err != nil {
		return nil, err
	}
	chunk := cfg.ChunkSize
	if chunk == 0 {
		chunk = defaultChunkSize
	}
	policy := retry.Default()
	if cfg.Retry != nil {
		policy = *cfg.Retry
	}
	inner := policy.Classify
	policy.Classify = func(err error) retry.Class {
		if errors.Is(err, ErrInvalid) || errors.Is(err, ErrSeedMismatch) {
			return retry.Terminal
		}
		if inner != nil {
			return inner(err)
		}
		return retry.Transient
	}
	log := cfg.Logger
	if log == nil {
		log = telemetry.NopLogger()
	}
	now := cfg.now
	if now == nil {
		now = time.Now
	}
	nonce := make([]byte, 8)
	_, _ = rand.Read(nonce)
	co := &Coordinator{
		creq: &CompileRequest{
			Session:  "sc-" + hex.EncodeToString(nonce),
			Spec:     spec,
			Profiles: profs,
		},
		policy:     policy,
		log:        log,
		chunkSize:  chunk,
		stealAfter: cfg.StealAfter,
		now:        now,
	}
	for i, w := range cfg.Workers {
		co.workers = append(co.workers, &workerState{w: w, idx: i})
	}
	return co, nil
}

// ChunkSize returns the dispatch chunk size (negative: chunking disabled,
// one chunk per dispatch).
func (co *Coordinator) ChunkSize() int { return co.chunkSize }

// Stats snapshots the coordinator's counters.
func (co *Coordinator) Stats() Stats {
	live := 0
	for _, ws := range co.workers {
		if !ws.dead.Load() {
			live++
		}
	}
	return Stats{
		Jobs:                co.jobs.Load(),
		RPCs:                co.rpcs.Load(),
		WorkerFailures:      co.failures.Load(),
		RecomputedChunks:    co.recomputed.Load(),
		Chunks:              co.chunks.Load(),
		Steals:              co.steals.Load(),
		SpeculativeWins:     co.specWins.Load(),
		SpeculativeDiscards: co.specDiscards.Load(),
		Compiles:            co.compiles.Load(),
		PeakResident:        co.peakResident.Load(),
		LiveWorkers:         live,
	}
}

// markDead retires a worker after its retry policy exhausted.
func (co *Coordinator) markDead(ws *workerState, err error) {
	if ws.dead.CompareAndSwap(false, true) {
		co.failures.Add(1)
		co.log.Warn("worker failed; reassigning its chunks",
			slog.String("worker", ws.w.Name()), slog.String("error", err.Error()))
	}
}

// stealThreshold returns the current straggler threshold: the configured
// value when fixed, else stealFactor × the observed p95 chunk latency
// (stealFloor-bounded), or the warmup default while samples are scarce.
func (co *Coordinator) stealThreshold() time.Duration {
	if co.stealAfter > 0 {
		return co.stealAfter
	}
	p95, warm := co.lat.P95()
	if !warm {
		return defaultStealAfter
	}
	return max(stealFactor*p95, stealFloor)
}

// outcomesDigest hashes a chunk's outcomes: FNV-1a over their packed wire
// records, the exact bytes a worker ships. Equal digests mean byte-equal
// results — the check that makes first-complete-wins speculation safe: a
// primary and its twin must be indistinguishable, or the workers are
// nondeterministic and no fold may happen. Every outcome must be non-nil.
func outcomesDigest(outs []*scenario.Outcome) uint64 {
	h := fnv.New64a()
	h.Write(packOutcomes(nil, outs))
	return h.Sum64()
}

// plan tiles jobs into contiguous chunks of at most chunkSize, in job order,
// reusing the pooled scratch. A chunk's payload is a sub-slice of jobs —
// nothing is copied — and its outcomes commit at buffered[first:].
func (co *Coordinator) plan(jobs []scenario.Job) {
	size := co.chunkSize
	if size <= 0 {
		size = len(jobs)
	}
	sc := &co.scratch
	sc.chunks = sc.chunks[:0]
	for first := 0; first < len(jobs); first += size {
		sc.chunks = append(sc.chunks, chunkState{first: first, jobs: jobs[first:min(first+size, len(jobs))]})
	}
}

// attemptResult is one finished chunk execution, success or not.
type attemptResult struct {
	c    *chunkState
	ws   *workerState
	spec bool
	outs []*scenario.Outcome
	err  error
	dur  time.Duration
	// cancelled: the attempt's context was revoked by the coordinator (the
	// rival committed, or the run is failing) while the run itself is live —
	// an abandoned attempt, not a worker failure.
	cancelled bool
}

// ExecuteJobsStream implements scenario.StreamingExecutor: tile the jobs
// into chunks, pull-dispatch the chunks across the live fleet, and fold the
// contiguous job-order prefix out through sink as chunks commit, dropping
// its own references behind the watermark.
//
// Scheduling is a single event loop: idle workers pull the next chunk from
// the queue; when the queue drains and workers idle, the oldest in-flight
// chunk past the straggler threshold is speculatively re-executed on one of
// them, first-complete-wins: the first commit cancels the rival attempt, so
// the straggler stops costing wall clock. A loser that completes despite the
// cancel has its outcomes asserted byte-equal to the winner's — a mismatch
// means a worker is nondeterministic, which voids the fold contract, so it is
// a hard error rather than a coin flip. (The check is opportunistic by
// construction: a cancelled loser that aborts verified nothing, one that
// returns is verified.) Workers whose retries exhaust are marked dead and
// their in-flight chunks requeued, preferring replacement workers that
// already hold a compiled session.
func (co *Coordinator) ExecuteJobsStream(ctx context.Context, jobs []scenario.Job, sink func(first int, outs []*scenario.Outcome) error) error {
	if len(jobs) == 0 {
		return nil
	}
	co.execMu.Lock()
	defer co.execMu.Unlock()
	co.jobs.Add(int64(len(jobs)))
	co.plan(jobs)
	sc := &co.scratch
	if cap(sc.buffered) < len(jobs) {
		sc.buffered = make([]*scenario.Outcome, len(jobs))
	}
	sc.buffered = sc.buffered[:len(jobs)]
	clear(sc.buffered) // a failed dispatch can leave commits behind
	sc.idle = sc.idle[:0]
	for _, ws := range co.workers {
		if !ws.dead.Load() {
			sc.idle = append(sc.idle, ws)
		}
	}
	sc.requeue = sc.requeue[:0]

	done := make(chan attemptResult)
	var (
		inflight   int // attempts in flight
		next       int // next undispatched chunk
		watermark  int // next global job index to fold
		chunksDone int
		failErr    error
	)

	// pick removes and returns the idle worker to dispatch to: compiled
	// (session already held) before cold, configuration order as the
	// tiebreak — the session-affinity rule that keeps reassignment after a
	// death from recompiling on a cold worker while a warm one is free.
	pick := func() *workerState {
		best := -1
		for i, ws := range sc.idle {
			if best < 0 {
				best = i
				continue
			}
			bw := sc.idle[best]
			if warm := ws.compiled.Load(); warm != bw.compiled.Load() {
				if warm {
					best = i
				}
				continue
			}
			if ws.idx < bw.idx {
				best = i
			}
		}
		ws := sc.idle[best]
		sc.idle[best] = sc.idle[len(sc.idle)-1]
		sc.idle = sc.idle[:len(sc.idle)-1]
		return ws
	}

	start := func(c *chunkState, ws *workerState, spec bool) {
		c.attempts++
		slot := 0
		if spec {
			slot = 1
			c.stolen = true
			co.steals.Add(1)
			co.log.Info("speculating straggler chunk",
				slog.Int("first", c.first), slog.Int("jobs", len(c.jobs)),
				slog.String("thief", ws.w.Name()))
		} else {
			c.started = co.now()
		}
		actx, cancel := context.WithCancel(ctx)
		c.cancels[slot] = cancel
		co.chunks.Add(1)
		inflight++
		go func() {
			t0 := co.now()
			outs, err := co.executeChunk(actx, ws, c, spec)
			done <- attemptResult{c: c, ws: ws, spec: spec, outs: outs, err: err,
				dur: co.now().Sub(t0), cancelled: actx.Err() != nil && ctx.Err() == nil}
		}()
	}

	// cancelInflight revokes every live attempt — on a terminal failure the
	// drain should not wait out stragglers whose results are already moot.
	cancelInflight := func() {
		for i := range sc.chunks {
			for _, cancel := range sc.chunks[i].cancels {
				if cancel != nil {
					cancel()
				}
			}
		}
	}

	// oldestEligible scans in-flight chunks for the speculation candidate:
	// the earliest-started chunk past the threshold with no twin yet. When
	// none has crossed it, wait is the time until the earliest will.
	oldestEligible := func(now time.Time) (cand *chunkState, wait time.Duration) {
		wait = -1
		th := co.stealThreshold()
		for i := range sc.chunks {
			c := &sc.chunks[i]
			if c.done || c.attempts != 1 || c.stolen || c.started.IsZero() {
				continue
			}
			el := now.Sub(c.started)
			if el >= th {
				if cand == nil || c.started.Before(cand.started) {
					cand = c
				}
			} else if d := th - el; wait < 0 || d < wait {
				wait = d
			}
		}
		return cand, wait
	}

	// flush folds the contiguous prefix out through sink and releases it.
	flush := func() error {
		first := watermark
		for watermark < len(sc.buffered) && sc.buffered[watermark] != nil {
			watermark++
		}
		if watermark == first {
			return nil
		}
		run := sc.buffered[first:watermark]
		err := sink(first, run)
		clear(run)
		return err
	}

	handle := func(r attemptResult) {
		inflight--
		r.c.attempts--
		slot := 0
		if r.spec {
			slot = 1
		}
		if cancel := r.c.cancels[slot]; cancel != nil {
			cancel() // release the attempt's context
			r.c.cancels[slot] = nil
		}
		if r.err != nil {
			if r.cancelled {
				// An abandoned attempt (rival committed, or the run is
				// failing), not a worker failure: the worker stays live.
				if !r.ws.dead.Load() {
					sc.idle = append(sc.idle, r.ws)
				}
				return
			}
			if failErr == nil {
				if ctx.Err() != nil || errors.Is(r.err, ErrInvalid) || errors.Is(r.err, ErrSeedMismatch) {
					failErr = r.err
				} else {
					co.markDead(r.ws, r.err)
					if !r.c.done && r.c.attempts == 0 {
						co.recomputed.Add(1)
						r.c.started = time.Time{}
						sc.requeue = append(sc.requeue, r.c)
						co.log.Info("requeueing chunk after worker failure",
							slog.Int("first", r.c.first), slog.Int("jobs", len(r.c.jobs)))
					}
				}
			}
			if !r.ws.dead.Load() {
				sc.idle = append(sc.idle, r.ws)
			}
			return
		}
		co.lat.Observe(r.dur)
		if !r.ws.dead.Load() {
			sc.idle = append(sc.idle, r.ws)
		}
		if failErr != nil {
			return // draining; the result is moot
		}
		if len(r.outs) != len(r.c.jobs) {
			failErr = fmt.Errorf("dist: worker %s returned %d outcomes for the %d-job chunk at job %d",
				r.ws.w.Name(), len(r.outs), len(r.c.jobs), r.c.first)
			return
		}
		for k, o := range r.outs {
			if o == nil {
				failErr = fmt.Errorf("dist: worker %s returned a nil outcome for job %d",
					r.ws.w.Name(), r.c.first+k)
				return
			}
		}
		if r.c.done {
			// The race's loser: its outcomes must be byte-equal to what the
			// winner committed, then they are discarded.
			if !r.c.hasDigest || outcomesDigest(r.outs) != r.c.digest {
				failErr = fmt.Errorf("dist: worker %s computed different outcomes for the chunk at job %d — workers are nondeterministic, refusing to fold",
					r.ws.w.Name(), r.c.first)
				return
			}
			co.specDiscards.Add(1)
			return
		}
		if r.c.attempts > 0 {
			// A twin is still out; remember what won so the loser can be
			// verified without retaining the outcomes themselves.
			r.c.digest, r.c.hasDigest = outcomesDigest(r.outs), true
		}
		r.c.done = true
		if cancel := r.c.cancels[1-slot]; cancel != nil {
			cancel() // first-complete-wins: abort the racing rival
		}
		chunksDone++
		if r.spec {
			co.specWins.Add(1)
		}
		copy(sc.buffered[r.c.first:], r.outs)
		if err := flush(); err != nil {
			failErr = err
		}
	}

	for {
		if failErr != nil {
			cancelInflight() // drain fast: moot attempts should not run on
		}
		// Dispatch while workers idle and work is available: requeued
		// chunks first, then the next chunk, then speculation on stragglers.
		for failErr == nil && len(sc.idle) > 0 {
			if n := len(sc.requeue); n > 0 {
				c := sc.requeue[n-1]
				sc.requeue = sc.requeue[:n-1]
				start(c, pick(), false)
				continue
			}
			if next < len(sc.chunks) {
				c := &sc.chunks[next]
				next++
				// Chunks dispatch in job order, so everything below this
				// chunk's end and not yet folded is in flight or buffered.
				if resident := int64(c.first + len(c.jobs) - watermark); resident > co.peakResident.Load() {
					co.peakResident.Store(resident)
				}
				start(c, pick(), false)
				continue
			}
			if co.stealAfter < 0 || inflight == 0 {
				break
			}
			cand, _ := oldestEligible(co.now())
			if cand == nil {
				break
			}
			start(cand, pick(), true)
		}
		if inflight == 0 {
			if failErr != nil {
				return failErr
			}
			if chunksDone == len(sc.chunks) {
				break
			}
			return fmt.Errorf("%w: %d chunks unexecuted", ErrNoWorkers, len(sc.chunks)-chunksDone)
		}
		// Wait for a completion; with spare workers and speculation armed,
		// also wake when the oldest in-flight chunk crosses the threshold.
		var timerC <-chan time.Time
		var timer *time.Timer
		if failErr == nil && co.stealAfter >= 0 && len(sc.idle) > 0 {
			if _, wait := oldestEligible(co.now()); wait >= 0 {
				if wait < time.Millisecond {
					wait = time.Millisecond
				}
				timer = time.NewTimer(wait)
				timerC = timer.C
			}
		}
		select {
		case r := <-done:
			handle(r)
		case <-timerC:
		}
		if timer != nil {
			timer.Stop()
		}
	}
	if watermark != len(jobs) {
		return fmt.Errorf("dist: fold watermark stopped at %d of %d jobs", watermark, len(jobs))
	}
	return nil
}

// ExecuteJobs implements scenario.Executor by collecting the stream — the
// path cluster-mode instants take, where each batch is folded immediately
// by the caller anyway.
func (co *Coordinator) ExecuteJobs(ctx context.Context, jobs []scenario.Job) ([]*scenario.Outcome, error) {
	outs := make([]*scenario.Outcome, len(jobs))
	err := co.ExecuteJobsStream(ctx, jobs, func(first int, batch []*scenario.Outcome) error {
		copy(outs[first:], batch)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// executeChunk runs one chunk attempt on one worker under the retry
// policy, compiling the session on first contact (or after the worker lost
// it). The chunk's result comes back whole because commit is all-or-nothing
// per attempt — the first-complete-wins race and the byte-equality check
// both need it so.
func (co *Coordinator) executeChunk(ctx context.Context, ws *workerState, c *chunkState, speculative bool) ([]*scenario.Outcome, error) {
	req := &ExecuteRequest{
		Session:     co.creq.Session,
		Seed:        co.creq.Spec.Seed,
		Jobs:        c.jobs,
		Speculative: speculative,
	}
	var outs []*scenario.Outcome
	err := co.policy.Do(ctx, func(ctx context.Context) error {
		if err := co.ensureCompiled(ctx, ws); err != nil {
			return err
		}
		co.rpcs.Add(1)
		var err error
		outs, err = ws.w.Execute(ctx, req)
		if errors.Is(err, ErrNoSession) {
			// The worker restarted or evicted us: force a fresh compile;
			// the error is transient, so the policy retries this chunk here.
			ws.compiled.Store(false)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// ensureCompiled compiles the session on the worker exactly once (again
// after a session loss), serialized per worker.
func (co *Coordinator) ensureCompiled(ctx context.Context, ws *workerState) error {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.compiled.Load() {
		return nil
	}
	if err := ws.w.Compile(ctx, co.creq); err != nil {
		return err
	}
	co.compiles.Add(1)
	co.log.Debug("worker compiled session",
		slog.String("worker", ws.w.Name()), slog.String("session", co.creq.Session))
	ws.compiled.Store(true)
	return nil
}
