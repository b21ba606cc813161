package scenario

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"synapse/internal/fan"
	"synapse/internal/perfcount"
	"synapse/internal/profile"
	"synapse/internal/store"
)

// Job identifies one distinct replay in a scenario run: instances of one
// workload with the same effective load on the same machine share a single
// deterministic emulation, and a Job names that equivalence class. Jobs are
// what distributed execution ships — the coordinator sends them to workers in
// chunks, which resolve them against their own compilation of the same spec. Load
// travels as raw float bits so the wire never rounds it: two processes must
// agree bit-for-bit on the job identity or they are not running the same
// scenario.
type Job struct {
	// Workload is the workload's index in the spec.
	Workload int `json:"w"`
	// Machine is the node machine the replay runs on in cluster mode;
	// empty means the workload's own emulation machine (eager mode).
	Machine string `json:"machine,omitempty"`
	// LoadBits is math.Float64bits of the effective background load.
	LoadBits uint64 `json:"load_bits"`
}

// Load returns the job's effective load as a float64.
func (j Job) Load() float64 { return math.Float64frombits(j.LoadBits) }

// Outcome is the fold-relevant product of one replay job: everything the
// report aggregation consumes, nothing else, as one flat fixed-shape record
// — no map, no per-outcome heap object. It is the only representation of a
// replay's result: the executors fill it, the fold reads it, and the
// distributed worker protocol ships its raw bits (internal/dist packs the
// fields in this order), so an outcome computed remotely is bit-identical
// to one computed in process — which is what makes the merged report
// byte-identical to a single-process run.
type Outcome struct {
	// Tx is the instance's emulation (service) time.
	Tx time.Duration
	// Busy is the per-atom busy time, indexed like atomNames.
	Busy [len(atomNames)]time.Duration
	// Consumed aggregates what the atoms consumed replaying the instance.
	Consumed perfcount.Counters
}

// Executor resolves batches of replay jobs. Run calls it once with every
// distinct job in eager (clusterless) mode, and once per scheduling instant
// with that instant's fresh jobs in cluster mode. Outcomes come back in job
// order. Implementations must be pure: the outcome of a job depends only on
// the (spec, seed) pair both sides compiled, never on batching, timing or
// which worker computed it — that invariance is the determinism contract
// distributed execution is gated on. An executor must not retain jobs after
// it returns: cluster mode reuses one batch slice from instant to instant.
type Executor interface {
	ExecuteJobs(ctx context.Context, jobs []Job) ([]*Outcome, error)
}

// StreamingExecutor is the streaming-fold seam: an Executor that can
// deliver outcomes incrementally, in contiguous job-order batches, instead
// of materializing the whole result slice. sink is called with the global
// index of the batch's first outcome; batches arrive in order and
// concatenate to exactly one outcome per job. Ownership of the outcomes
// transfers to the sink — the executor must not touch them after sink
// returns, and drops its own references behind its fold watermark. The
// outcomes themselves are byte-identical to what ExecuteJobs would return,
// so folding them incrementally leaves the report unchanged.
type StreamingExecutor interface {
	Executor
	ExecuteJobsStream(ctx context.Context, jobs []Job, sink func(first int, outs []*Outcome) error) error
}

// ResolveProfiles resolves every workload's profile reference through st,
// in spec order — the same profile Run would pick (the newest match per
// key). Distributed coordinators use it to ship the exact emulation inputs
// to workers that have no store access of their own.
func ResolveProfiles(ctx context.Context, spec *Spec, st store.Store) ([]*profile.Profile, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	profs := make([]*profile.Profile, len(spec.Workloads))
	for i := range spec.Workloads {
		w := &spec.Workloads[i]
		set, err := store.FindCtx(ctx, st, w.Profile.Command, w.Profile.Tags)
		if err != nil {
			return nil, fmt.Errorf("scenario: workload %q: resolve profile: %w", w.Name, err)
		}
		profs[i] = set[len(set)-1]
	}
	return profs, nil
}

// JobRunner resolves jobs against one spec's compiled emulation handles —
// one per machine an instance could land on — fanning each batch across its
// workers. It is Run's default executor and the worker side of distributed
// execution: a runner built from the same (spec, profiles) on any host
// produces bit-identical outcomes, so a coordinator may hand the same job
// to any worker — or to a replacement after a failure — without perturbing
// the merged report.
type JobRunner struct {
	c       *compiled
	workers int
}

// NewJobRunner compiles spec against st (profiles must already be present)
// and returns a runner executing up to workers replays concurrently
// (0 = GOMAXPROCS). It enumerates no instances: a runner costs the same
// whatever instance count the spec declares.
func NewJobRunner(ctx context.Context, spec *Spec, st store.Store, workers int) (*JobRunner, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if st == nil {
		return nil, fmt.Errorf("scenario: no store to resolve profiles from")
	}
	c, err := compile(ctx, spec, st, true)
	if err != nil {
		return nil, err
	}
	return &JobRunner{c: c, workers: workers}, nil
}

// Seed returns the compiled spec's seed, what the worker protocol's
// determinism handshake compares.
func (r *JobRunner) Seed() uint64 { return r.c.spec.Seed }

// ExecuteJobs implements Executor: it resolves the batch into one slab of
// outcomes and hands out pointers into it — one allocation per call, not
// one per job.
func (r *JobRunner) ExecuteJobs(ctx context.Context, jobs []Job) ([]*Outcome, error) {
	workers := r.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	slab := make([]Outcome, len(jobs))
	return fan.Run(workers, len(jobs), nil, func(j int) (*Outcome, error) {
		if err := r.executeJob(ctx, jobs[j], &slab[j]); err != nil {
			return nil, err
		}
		return &slab[j], nil
	})
}

// executeJob resolves one job against the compiled run handles into o.
func (r *JobRunner) executeJob(ctx context.Context, job Job, o *Outcome) error {
	if job.Workload < 0 || job.Workload >= len(r.c.wls) {
		return fmt.Errorf("scenario: job references workload %d of %d", job.Workload, len(r.c.wls))
	}
	ws := r.c.wls[job.Workload]
	run := ws.run
	if job.Machine != "" {
		run = ws.runs[job.Machine]
	}
	if run == nil {
		return fmt.Errorf("scenario: workload %q has no emulation handle for machine %q",
			ws.spec.Name, job.Machine)
	}
	rep, err := run.EmulateWithLoad(ctx, job.Load())
	if err != nil {
		return err
	}
	// Condense the report into its fold-relevant outcome.
	o.Tx, o.Busy, o.Consumed = rep.Tx, rep.BusyTimes(), rep.Consumed
	return nil
}
