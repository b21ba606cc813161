// Package core orchestrates Synapse's two halves — profiling and emulation —
// into the `profile once, emulate anywhere` operations of the paper's §4:
//
//	radical.synapse.profile(command, tags) -> core.Profile
//	radical.synapse.emulate(command, tags) -> core.Emulate
//
// Commands are either synthetic workloads executed on simulated machines
// (every experiment in this repository) or real argv vectors spawned on the
// host and watched through /proc (internal/procfs). Profiles land in a
// store (internal/store) keyed by command and tags; emulation looks them up
// there, aggregates repeated runs, and replays them through the atoms.
package core

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"synapse/internal/app"
	"synapse/internal/atoms"
	"synapse/internal/clock"
	"synapse/internal/emulator"
	"synapse/internal/machine"
	"synapse/internal/proc"
	"synapse/internal/profile"
	"synapse/internal/store"
	"synapse/internal/watcher"
)

// ProfileOptions configure a profiling run.
type ProfileOptions struct {
	// Machine names the catalog machine to simulate on, or "host" for a
	// real run. Empty selects "host" for real commands and an error for
	// simulated workloads.
	Machine string
	// SampleRate in Hz (clamped to 10 Hz).
	SampleRate float64
	// Adaptive enables the adaptive sampling-rate schedule (paper §6):
	// 10 Hz for the first AdaptiveWindow, then SampleRate.
	Adaptive       bool
	AdaptiveWindow time.Duration
	// Store, when set, receives the finished profile (truncating to the
	// backend's document limit if necessary).
	Store store.Store
	// Seed/Jitter/Load/CounterNoise configure the simulated execution.
	Seed         uint64
	Jitter       bool
	Load         float64
	CounterNoise float64
	// Real selects host execution of an argv command.
	Real bool
	// Concurrent runs one goroutine per watcher with unsynchronized
	// timestamps — the paper's threading model (§4.1). Only meaningful
	// with a real clock (real runs, or simulated targets replayed in
	// real time).
	Concurrent bool
	// Clock overrides the pacing clock (tests); defaults to AutoSim for
	// simulated runs and the wall clock for real ones.
	Clock clock.Clock
}

// EmulateOptions configure an emulation run.
type EmulateOptions struct {
	// Machine names the emulation resource (catalog machine or "host").
	Machine string
	// Kernel selects the compute kernel ("asm" when empty).
	Kernel string
	// Workers/Mode inject OpenMP- or MPI-style parallelism (paper E.4).
	Workers int
	Mode    machine.Mode
	// ReadBlock/WriteBlock/Filesystem tune I/O emulation (paper E.5).
	ReadBlock, WriteBlock int64
	Filesystem            string
	// UseProfiledBlocks derives I/O granularity from the profile.
	UseProfiledBlocks bool
	// Load/DiskLoad/MemLoad add artificial background CPU, storage and
	// memory load (paper §4.3's stress capability).
	Load     float64
	DiskLoad float64
	MemLoad  float64
	// Real consumes actual host resources instead of modeling them.
	Real       bool
	ScratchDir string
	// StartupDelay / SampleOverhead override the emulator's modeled
	// driver costs (negative disables).
	StartupDelay   time.Duration
	SampleOverhead time.Duration
	// Disable switches (paper E.3/E.4 disable memory and storage).
	DisableStorage, DisableMemory, DisableNetwork bool
	// TraceLevel tunes how much per-sample detail the report keeps
	// (emulator.TraceFull default; experiments that only read aggregates
	// use emulator.TraceNone to keep the replay loop allocation-free).
	TraceLevel emulator.TraceLevel
}

// WorkloadFromCommand maps a command line plus tags to a synthetic workload
// model, the inverse of the workload's own Command/Tags identity. It
// recognises the applications shipped with this repository.
func WorkloadFromCommand(command string, tags map[string]string) (app.Workload, error) {
	atoi := func(key string, def int) int {
		if v, ok := tags[key]; ok {
			if n, err := strconv.Atoi(v); err == nil {
				return n
			}
		}
		return def
	}
	atof := func(key string, def float64) float64 {
		if v, ok := tags[key]; ok {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				return f
			}
		}
		return def
	}
	switch command {
	case "mdsim", "gromacs", "gmx mdrun":
		return app.MDSim(atoi("steps", 10000)), nil
	case "synapse-iobench":
		return app.IOBench(int64(atoi("bytes", 1<<28)), int64(atoi("block", 1<<20)), tags["fs"]), nil
	case "sleep":
		return app.Sleeper(atof("seconds", 1)), nil
	case "synapse-memramp":
		return app.MemRamp(int64(atoi("bytes", 1<<28))), nil
	case "synapse-netecho":
		return app.NetEcho(int64(atoi("bytes", 1<<20)), int64(atoi("block", 64<<10))), nil
	default:
		return app.Workload{}, fmt.Errorf("core: no workload model for command %q", command)
	}
}

// ProfileWorkload profiles a synthetic workload on a simulated machine.
func ProfileWorkload(ctx context.Context, w app.Workload, opts ProfileOptions) (*profile.Profile, error) {
	if opts.Machine == "" {
		return nil, fmt.Errorf("core: simulated profiling needs a machine name")
	}
	m, err := machine.Get(opts.Machine)
	if err != nil {
		return nil, err
	}
	sp, err := proc.Execute(w, m, proc.Options{
		Seed:         opts.Seed,
		Jitter:       opts.Jitter,
		Load:         opts.Load,
		CounterNoise: opts.CounterNoise,
	})
	if err != nil {
		return nil, err
	}
	clk := opts.Clock
	if clk == nil {
		clk = clock.NewAutoSim(time.Unix(0, 0).UTC())
	}
	pr := &watcher.Profiler{
		Rate:    opts.SampleRate,
		Clock:   clk,
		Machine: m,
	}
	if opts.Adaptive {
		win := opts.AdaptiveWindow
		if win <= 0 {
			win = 3 * time.Second
		}
		pr.Schedule = watcher.AdaptiveSchedule(watcher.MaxRate, opts.SampleRate, win)
	}
	p, err := pr.Run(ctx, watcher.NewSimTarget(sp))
	if err != nil {
		return nil, err
	}
	return p, storeProfile(opts.Store, p)
}

// ProfileCommandString profiles the named synthetic command (resolved via
// WorkloadFromCommand) on a simulated machine, or — with opts.Real — spawns
// the argv on the host and profiles it through /proc.
func ProfileCommandString(ctx context.Context, command string, tags map[string]string, opts ProfileOptions) (*profile.Profile, error) {
	if opts.Real {
		return ProfileExec(ctx, command, tags, opts)
	}
	w, err := WorkloadFromCommand(command, tags)
	if err != nil {
		return nil, err
	}
	// Tags given by the caller extend/override the workload's defaults.
	for k, v := range tags {
		w.Tags[k] = v
	}
	return ProfileWorkload(ctx, w, opts)
}

// storeProfile writes p to s if a store is configured, degrading to
// truncation under the Mongo-like backend's document limit.
func storeProfile(s store.Store, p *profile.Profile) error {
	if s == nil {
		return nil
	}
	if tr, ok := s.(store.Truncator); ok {
		_, err := tr.PutTruncated(p)
		return err
	}
	return s.Put(p)
}

// Lookup fetches all stored profiles for command/tags and returns the set.
// ctx bounds the query when the store is remote (see store.FindCtx).
func Lookup(ctx context.Context, s store.Store, command string, tags map[string]string) (profile.Set, error) {
	if s == nil {
		return nil, fmt.Errorf("core: no store configured")
	}
	return store.FindCtx(ctx, s, command, tags)
}

// NewEmulation resolves the machine name and option mapping once and returns
// a reusable emulator run handle for the profile, for callers that replay
// the same profile many times.
func NewEmulation(p *profile.Profile, opts EmulateOptions) (*emulator.Run, error) {
	eopts, err := emulatorOptions(opts)
	if err != nil {
		return nil, err
	}
	return emulator.NewRun(p, eopts)
}

// emulatorOptions maps the flat EmulateOptions onto the emulator's Options,
// resolving the machine name against the catalog.
func emulatorOptions(opts EmulateOptions) (emulator.Options, error) {
	if opts.Machine == "" {
		return emulator.Options{}, fmt.Errorf("core: emulation needs a machine name")
	}
	m, err := machine.Get(opts.Machine)
	if err != nil {
		return emulator.Options{}, err
	}
	return emulator.Options{
		Atoms: atoms.Config{
			Machine:           m,
			Kernel:            opts.Kernel,
			ReadBlock:         opts.ReadBlock,
			WriteBlock:        opts.WriteBlock,
			UseProfiledBlocks: opts.UseProfiledBlocks,
			Filesystem:        opts.Filesystem,
			Workers:           opts.Workers,
			Mode:              opts.Mode,
			Load:              opts.Load,
			DiskLoad:          opts.DiskLoad,
			MemLoad:           opts.MemLoad,
		},
		Real:           opts.Real,
		ScratchDir:     opts.ScratchDir,
		StartupDelay:   opts.StartupDelay,
		SampleOverhead: opts.SampleOverhead,
		DisableStorage: opts.DisableStorage,
		DisableMemory:  opts.DisableMemory,
		DisableNetwork: opts.DisableNetwork,
		TraceLevel:     opts.TraceLevel,
	}, nil
}

// EmulateProfile replays one profile with the given options.
func EmulateProfile(ctx context.Context, p *profile.Profile, opts EmulateOptions) (*emulator.Report, error) {
	eopts, err := emulatorOptions(opts)
	if err != nil {
		return nil, err
	}
	return emulator.Emulate(ctx, p, eopts)
}

// Emulate looks up the stored profiles for command/tags, replays the most
// recent one (statistics across the set inform only the report), mirroring
// the paper's emulate(command, tags) call.
func Emulate(ctx context.Context, s store.Store, command string, tags map[string]string, opts EmulateOptions) (*emulator.Report, error) {
	set, err := Lookup(ctx, s, command, tags)
	if err != nil {
		return nil, err
	}
	p := set[len(set)-1]
	return EmulateProfile(ctx, p, opts)
}
