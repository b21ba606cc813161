package emulator

import (
	"context"
	"fmt"
	"sync"
	"time"

	"synapse/internal/atoms"
	"synapse/internal/machine"
	"synapse/internal/perfcount"
	"synapse/internal/profile"
)

// Run is a reusable emulation handle: one profile plus one normalized set of
// options, replayable many times. NewRun performs the per-profile work once —
// validation, option normalization, the modeled startup cost — so callers
// that replay the same profile repeatedly (the scenario engine's workload
// instances, benchmark loops) skip it on every subsequent replay.
//
// A Run is safe for concurrent use: every replay works on its own atom set.
type Run struct {
	p    *profile.Profile
	opts Options
	// startup and overhead are the normalized driver costs (defaults
	// applied, parallel worker-pool setup folded into startup).
	startup  time.Duration
	overhead time.Duration
	// pool recycles replayScratch values across simulated replays (see
	// emulate). Per-Run, so every pooled scratch shares the handle's
	// machine, kernel and filesystem — only the per-replay load varies.
	pool sync.Pool
}

// NewRun validates the profile and options and returns a reusable handle.
// The validation and normalization errors are exactly those Emulate returns.
func NewRun(p *profile.Profile, opts Options) (*Run, error) {
	if p == nil {
		return nil, fmt.Errorf("emulator: nil profile")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opts.Atoms.Machine == nil {
		return nil, fmt.Errorf("emulator: options need a machine model")
	}

	startup := opts.StartupDelay
	switch {
	case startup < 0:
		startup = 0
	case startup == 0:
		startup = DefaultStartupDelay
	}
	overhead := opts.SampleOverhead
	switch {
	case overhead < 0:
		overhead = 0
	case overhead == 0:
		overhead = DefaultSampleOverhead
	}
	// Parallel runs pay the one-time worker-pool setup cost as part of
	// the startup (threads spawned / MPI ranks launched once per run).
	if opts.Atoms.Workers > 1 && opts.Atoms.Mode != machine.ModeSerial {
		startup += opts.Atoms.Machine.Threading.SetupOverhead(opts.Atoms.Workers, opts.Atoms.Mode)
	}
	return &Run{p: p, opts: opts, startup: startup, overhead: overhead}, nil
}

// Emulate replays the profile once and returns the run report.
func (r *Run) Emulate(ctx context.Context) (*Report, error) {
	return r.emulate(ctx, r.opts.Atoms)
}

// EmulateWithLoad replays the profile with the artificial background CPU
// load overridden for this replay only — the scenario engine's per-instance
// load jitter. The handle itself is not mutated.
func (r *Run) EmulateWithLoad(ctx context.Context, load float64) (*Report, error) {
	cfg := r.opts.Atoms
	cfg.Load = load
	return r.emulate(ctx, cfg)
}

// replayScratch is one simulated replay's working set: the atom set (built
// against the scratch's own config copy) and the batched loop's staging
// buffers. Recycling it turns the per-replay cost — four atoms, three
// slices — into a pool hit.
type replayScratch struct {
	cfg   atoms.Config
	set   []atoms.Atom
	names []string
	// Staging for one batch: the gathered requests, one run of durations
	// per atom (atom ai's at durs[ai*bs:]), and each sample's consumption
	// destination. dst is refilled by every replay; between replays it
	// still points into the previous report, which pins at most that one
	// report until the scratch is reused or the pool drops it.
	reqs []atoms.Request
	durs []time.Duration
	dst  []*perfcount.Counters
}

// newScratch builds the simulated atom set for cfg, with the run's disable
// switches applied.
func (r *Run) newScratch(cfg atoms.Config) (*replayScratch, error) {
	sc := &replayScratch{cfg: cfg}
	set, err := atoms.NewSimSet(&sc.cfg)
	if err != nil {
		return nil, err
	}
	sc.set = filterAtoms(set, r.opts)
	sc.names = make([]string, len(sc.set))
	for i, a := range sc.set {
		sc.names[i] = a.Name()
	}
	return sc, nil
}

// stage returns staging buffers for batches of bs samples, grown on first
// use and whenever a longer profile needs them.
func (sc *replayScratch) stage(bs int) ([]atoms.Request, []time.Duration, []*perfcount.Counters) {
	if cap(sc.reqs) < bs {
		sc.reqs = make([]atoms.Request, bs)
		sc.durs = make([]time.Duration, len(sc.set)*bs)
		sc.dst = make([]*perfcount.Counters, bs)
	}
	return sc.reqs[:bs], sc.durs[:len(sc.set)*bs], sc.dst[:bs]
}

// acquire returns a replay-ready scratch for cfg: recycled from the pool
// when one is free (atoms reset, the new per-replay config written through
// the pointer the atoms hold), freshly built otherwise.
func (r *Run) acquire(cfg atoms.Config) (*replayScratch, error) {
	if sc, _ := r.pool.Get().(*replayScratch); sc != nil {
		// The atoms read *&sc.cfg at consume time and their precomputed
		// kernel/filesystem tables depend only on fields the per-Run pool
		// keeps constant, so overwriting the config in place retargets
		// them to this replay's load.
		sc.cfg = cfg
		atoms.ResetSim(sc.set)
		return sc, nil
	}
	return r.newScratch(cfg)
}

// newReport starts the report of one replay under cfg.
func (r *Run) newReport(cfg *atoms.Config) *Report {
	rep := &Report{
		Machine: cfg.Machine.Name,
		Kernel:  cfg.Kernel,
		Startup: r.startup,
	}
	if rep.Kernel == "" {
		rep.Kernel = machine.KernelASM
	}
	return rep
}

// emulate is one replay: real mode against the host, otherwise simulated.
// Nothing about a simulated replay is observable outside the report (Tx is
// assembled from modeled parts), so its whole working set comes from the
// per-Run pool and the steady state allocates only the report itself.
func (r *Run) emulate(ctx context.Context, cfg atoms.Config) (*Report, error) {
	if r.opts.Real {
		return r.emulateReal(ctx, cfg)
	}
	sc, err := r.acquire(cfg)
	if err != nil {
		return nil, err
	}
	defer r.pool.Put(sc)
	rep := r.newReport(&sc.cfg)
	total, err := replayBatched(ctx, r.p, r.opts.TraceLevel, r.overhead, rep, sc)
	if err != nil {
		return nil, err
	}
	// Start-up (locate and load the profile, spawn atom threads) plus the
	// replayed samples.
	rep.Tx = r.startup + total
	return rep, nil
}

// emulateReal is one replay against the host. Constructing the real atoms
// already costs real time, so no modeled start-up delay is slept.
func (r *Run) emulateReal(ctx context.Context, cfg atoms.Config) (*Report, error) {
	set, err := atoms.NewRealSet(&cfg, r.opts.ScratchDir)
	if err != nil {
		return nil, err
	}
	set = filterAtoms(set, r.opts)
	start := time.Now()
	rep := r.newReport(&cfg)
	if _, err := replayReal(ctx, set, r.p, &cfg, r.opts.TraceLevel, r.overhead, rep); err != nil {
		return nil, err
	}
	rep.Tx = time.Since(start)
	return rep, nil
}
