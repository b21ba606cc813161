// Package synapse is a Go implementation of Synapse, the SYNthetic
// Application Profiler and Emulator (Merzky, Ha, Turilli, Jha — IPPS 2016,
// arXiv:1808.00684).
//
// Synapse acts as a proxy application: it profiles a real or synthetic
// application's resource consumption (CPU cycles and instructions, memory,
// storage and network traffic) with a sampling, black-box profiler, stores
// the profile indexed by command line and tags, and later emulates the
// application by consuming the same resources in the same order on an
// arbitrary target resource — "profile once, emulate anywhere".
//
// The API mirrors the paper's Python module:
//
//	p, err := synapse.Profile(ctx, "mdsim", map[string]string{"steps": "50000"},
//	        synapse.OnMachine("thinkie"), synapse.AtRate(10))
//	rep, err := synapse.Emulate(ctx, "mdsim", map[string]string{"steps": "50000"},
//	        synapse.OnMachine("stampede"))
//
// Execution is simulated by default: commands resolve to synthetic workload
// models running on calibrated machine models (docs/architecture.md maps
// the substituting packages), which makes every experiment deterministic and
// laptop-fast. WithRealExecution switches to actually spawning processes and
// consuming host resources.
//
// Beyond single replays, RunWorkflow executes DAGs of profiled tasks
// (Application-Skeleton style, paper §7) and RunScenario schedules
// declarative workload mixes — profiles arriving over time on shared,
// capacity-limited resources — returning deterministic aggregate reports
// (docs/scenarios.md).
package synapse

import (
	"context"
	"sync"
	"time"

	"synapse/internal/core"
	"synapse/internal/emulator"
	"synapse/internal/machine"
	"synapse/internal/profile"
	"synapse/internal/store"
	"synapse/internal/storeclnt"
)

// ProfileData is a finished application profile: sample time series,
// integrated totals, and the identity used to store and retrieve it.
type ProfileData = profile.Profile

// Report is the outcome of an emulation run.
type Report = emulator.Report

// Store persists profiles; see NewMemStore and NewFileStore.
type Store = store.Store

// Set is a collection of repeated profiles of one command/tags combination.
type Set = profile.Set

// Mode selects thread- or process-based parallel emulation.
type Mode = machine.Mode

// Parallelism modes for WithWorkers.
const (
	Serial = machine.ModeSerial
	OpenMP = machine.ModeOpenMP
	MPI    = machine.ModeMPI
)

// Catalog machine names accepted by OnMachine. "host" selects the real host.
const (
	Thinkie  = machine.Thinkie
	Stampede = machine.Stampede
	Archer   = machine.Archer
	Supermic = machine.Supermic
	Comet    = machine.Comet
	Titan    = machine.Titan
	Host     = machine.HostName
)

// Option configures Profile and Emulate calls.
type Option func(*options)

type options struct {
	prof core.ProfileOptions
	emul core.EmulateOptions
	st   store.Store
	// scenWorkers bounds RunScenario's emulation fan-out (0 = all cores).
	scenWorkers int
}

// OnMachine selects the machine (catalog name or "host") to profile or
// emulate on.
func OnMachine(name string) Option {
	return func(o *options) {
		o.prof.Machine = name
		o.emul.Machine = name
	}
}

// AtRate sets the profiler sampling rate in Hz (clamped to 10 Hz, the
// paper's perf-stat limit).
func AtRate(hz float64) Option {
	return func(o *options) { o.prof.SampleRate = hz }
}

// WithAdaptiveSampling enables the adaptive schedule proposed in the paper's
// future work: 10 Hz during the startup window, the configured rate after.
func WithAdaptiveSampling(window time.Duration) Option {
	return func(o *options) {
		o.prof.Adaptive = true
		o.prof.AdaptiveWindow = window
	}
}

// WithStore routes profiles through the given store instead of the
// process-wide default store.
func WithStore(s Store) Option {
	return func(o *options) { o.st = s }
}

// WithRealExecution spawns real processes (Profile) and consumes real host
// resources (Emulate) instead of simulating.
func WithRealExecution() Option {
	return func(o *options) {
		o.prof.Real = true
		o.emul.Real = true
		if o.prof.Machine == "" {
			o.prof.Machine = machine.HostName
		}
		if o.emul.Machine == "" {
			o.emul.Machine = machine.HostName
		}
	}
}

// WithConcurrentWatchers runs one goroutine per watcher with its own,
// unsynchronized timestamps — the paper's threading model (§4.1). Applies to
// real-clock profiling runs.
func WithConcurrentWatchers() Option {
	return func(o *options) { o.prof.Concurrent = true }
}

// WithSeed seeds the simulated execution's reproducible noise.
func WithSeed(seed uint64) Option {
	return func(o *options) { o.prof.Seed = seed }
}

// WithJitter enables run-to-run noise in simulated executions (error bars).
func WithJitter() Option {
	return func(o *options) {
		o.prof.Jitter = true
		o.prof.CounterNoise = 0.001
	}
}

// WithLoad emulates execution on an artificially stressed system: load is
// the fraction of CPU capacity consumed by background activity.
func WithLoad(load float64) Option {
	return func(o *options) {
		o.prof.Load = load
		o.emul.Load = load
	}
}

// WithStress forces artificial CPU, disk and memory background load onto
// the emulation — the paper's full stress capability (§4.3, the Linux
// `stress` analogue). Each fraction is in [0, 1).
func WithStress(cpu, disk, mem float64) Option {
	return func(o *options) {
		o.emul.Load = cpu
		o.emul.DiskLoad = disk
		o.emul.MemLoad = mem
	}
}

// WithKernel selects the emulation compute kernel: "asm" (default, the
// paper's cache-resident assembly kernel), "c" (out-of-cache), or a user
// kernel registered with internal/kernels.
func WithKernel(name string) Option {
	return func(o *options) { o.emul.Kernel = name }
}

// WithWorkers injects parallelism into the emulation: n OpenMP-style threads
// or MPI-style processes (paper experiment E.4).
func WithWorkers(n int, mode Mode) Option {
	return func(o *options) {
		o.emul.Workers = n
		o.emul.Mode = mode
	}
}

// WithIOBlocks tunes the emulation's I/O granularity in bytes (paper E.5).
func WithIOBlocks(read, write int64) Option {
	return func(o *options) {
		o.emul.ReadBlock = read
		o.emul.WriteBlock = write
	}
}

// WithProfiledBlocks derives I/O granularity from the profiled operation
// counts instead of static blocks (the blktrace-informed future-work mode).
func WithProfiledBlocks() Option {
	return func(o *options) { o.emul.UseProfiledBlocks = true }
}

// WithFilesystem targets a specific filesystem of the emulation machine
// ("local", "lustre", "nfs").
func WithFilesystem(fs string) Option {
	return func(o *options) { o.emul.Filesystem = fs }
}

// WithScratchDir sets where real-mode storage emulation writes its files.
func WithScratchDir(dir string) Option {
	return func(o *options) { o.emul.ScratchDir = dir }
}

// WithoutAtoms disables the named atoms ("storage", "memory", "network") —
// the paper disables memory and storage emulation in experiments E.3/E.4.
func WithoutAtoms(names ...string) Option {
	return func(o *options) {
		for _, n := range names {
			switch n {
			case "storage":
				o.emul.DisableStorage = true
			case "memory":
				o.emul.DisableMemory = true
			case "network":
				o.emul.DisableNetwork = true
			}
		}
	}
}

// WithStartupDelay overrides the emulator's modeled startup cost (negative
// disables it).
func WithStartupDelay(d time.Duration) Option {
	return func(o *options) { o.emul.StartupDelay = d }
}

// defaultStore is the process-wide profile store used when no WithStore
// option is given, mirroring the paper's implicit MongoDB connection. Guarded
// by defaultStoreMu: Profile/Emulate calls race with SetDefaultStore in
// concurrent experiment drivers.
var (
	defaultStoreMu sync.RWMutex
	defaultStore   Store = store.NewMem()
)

// SetDefaultStore replaces the process-wide store and returns the previous
// one. Safe for concurrent use with Profile/Emulate.
func SetDefaultStore(s Store) Store {
	defaultStoreMu.Lock()
	defer defaultStoreMu.Unlock()
	prev := defaultStore
	defaultStore = s
	return prev
}

// DefaultStore returns the process-wide store.
func DefaultStore() Store {
	defaultStoreMu.RLock()
	defer defaultStoreMu.RUnlock()
	return defaultStore
}

// NewMemStore returns an in-memory MongoDB-like store (16 MB per-document
// limit, ≈250k samples — paper §4.5).
func NewMemStore() Store { return store.NewMem() }

// NewFileStore returns a directory-backed store with no sample limit.
func NewFileStore(dir string) (Store, error) { return store.NewFile(dir) }

// NewShardedStore returns an in-memory store partitioned across n
// lock-striped shards (n <= 0 selects a default), so concurrent Put/Find do
// not serialize on one mutex. Semantics (document limit, ordering) match
// NewMemStore; it is the backend synapsed runs by default.
func NewShardedStore(n int) Store { return store.NewSharded(n) }

// NewRemoteStore returns a client for a synapsed profile service (e.g.
// "http://stampede:8181"): a drop-in Store whose backend is shared between
// processes and machines — the paper's "profile once, emulate anywhere"
// workflow (§4). The client reuses connections, retries idempotent requests,
// and caches hot profile reads, revalidating them against the server's
// per-key generation counter.
func NewRemoteStore(url string) Store { return storeclnt.New(url) }

func buildOptions(opts []Option) *options {
	o := &options{}
	for _, fn := range opts {
		fn(o)
	}
	if o.st == nil {
		o.st = DefaultStore()
	}
	o.prof.Store = o.st
	return o
}

// Profile profiles one execution of command (identified together with tags)
// and stores the resulting profile. Simulated by default; see
// WithRealExecution.
func Profile(ctx context.Context, command string, tags map[string]string, opts ...Option) (*ProfileData, error) {
	o := buildOptions(opts)
	return core.ProfileCommandString(ctx, command, tags, o.prof)
}

// Emulate retrieves the stored profile for command/tags and replays it on
// the configured machine, returning the run report.
func Emulate(ctx context.Context, command string, tags map[string]string, opts ...Option) (*Report, error) {
	o := buildOptions(opts)
	return core.Emulate(ctx, o.st, command, tags, o.emul)
}

// EmulateProfile replays an explicit profile (bypassing the store lookup).
func EmulateProfile(ctx context.Context, p *ProfileData, opts ...Option) (*Report, error) {
	o := buildOptions(opts)
	return core.EmulateProfile(ctx, p, o.emul)
}

// Profiles returns every stored profile for command/tags.
func Profiles(command string, tags map[string]string, opts ...Option) (Set, error) {
	o := buildOptions(opts)
	return core.Lookup(context.Background(), o.st, command, tags)
}

// Machines lists the built-in machine models (the paper's six testbeds).
func Machines() []string { return machine.Names() }

// MetricsTable renders the supported-metrics table (paper Table 1).
func MetricsTable() string { return profile.Table1() }
