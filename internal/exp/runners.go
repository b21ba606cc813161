package exp

import (
	"context"
	"time"

	"synapse/internal/app"
	"synapse/internal/core"
	"synapse/internal/emulator"
	"synapse/internal/fan"
	"synapse/internal/machine"
	"synapse/internal/proc"
	"synapse/internal/profile"
)

// runCells fans fn over a dense index space [0, n) across the configured
// worker count, collecting results in input order. Workers pull the next
// index from a shared atomic cursor (work stealing): a worker that drew a
// cheap cell immediately steals the next one instead of idling behind a
// slow sibling, so the wall clock tracks total work / workers rather than
// the slowest static partition.
//
// When the Config carries a suite-wide budget (set by All), each cell
// additionally holds one budget token while it executes, so the total
// number of concurrently-executing cells across every figure is bounded by
// Config.Workers no matter how many figures fan out at once. Cell
// functions must therefore never call runCells or leafCell themselves —
// holding a token while waiting for more tokens would deadlock the suite.
//
// Every experiment cell is deterministic given (Config, cell index), and
// results land at their own index, so the output — and therefore every
// figure table — is identical to a serial run regardless of scheduling.
// The first error by index wins, which is also the error a serial run
// would have returned.
func runCells[R any](cfg Config, n int, fn func(i int) (R, error)) ([]R, error) {
	return fan.Run(cfg.workers(), n, cfg.budget, fn)
}

// leafCell runs one unit of leaf compute under the suite's concurrency
// budget, for figure work that happens outside a runCells fan-out (e.g. a
// shared profile built before the cells replay it). Like runCells cells,
// fn must not fan out further.
func leafCell[R any](cfg Config, fn func() (R, error)) (R, error) {
	if cfg.budget != nil {
		cfg.budget <- struct{}{}
		defer func() { <-cfg.budget }()
	}
	return fn()
}

// nativeTx executes the workload natively (simulated) and returns its Tx.
func nativeTx(machineName string, w app.Workload, seed uint64) (time.Duration, error) {
	m, err := machine.Get(machineName)
	if err != nil {
		return 0, err
	}
	sp, err := proc.Execute(w, m, proc.Options{Seed: seed, Jitter: true})
	if err != nil {
		return 0, err
	}
	return sp.Duration(), nil
}

// profileWorkload profiles a workload on the named machine.
func profileWorkload(machineName string, w app.Workload, rate float64, seed uint64) (*profile.Profile, error) {
	return core.ProfileWorkload(context.Background(), w, core.ProfileOptions{
		Machine:      machineName,
		SampleRate:   rate,
		Seed:         seed,
		Jitter:       true,
		CounterNoise: 0.0008,
		Clock:        simClock(),
	})
}

// emulate replays a profile on the named machine with optional overrides.
// Experiments read aggregates (Tx, Consumed, BusyTime) unless the override
// asks for more, so the per-sample trace is skipped by default.
func emulate(p *profile.Profile, machineName string, mod func(*core.EmulateOptions)) (*emulator.Report, error) {
	opts := core.EmulateOptions{
		Machine:    machineName,
		TraceLevel: emulator.TraceNone,
	}
	if mod != nil {
		mod(&opts)
	}
	return core.EmulateProfile(context.Background(), p, opts)
}

// mdsimSizes returns the paper's E.1/E.2 problem sizes (iteration steps).
func mdsimSizes(cfg Config) []int {
	if cfg.Quick {
		return []int{10_000, 100_000, 1_000_000}
	}
	return []int{10_000, 50_000, 100_000, 500_000, 1_000_000, 5_000_000, 10_000_000}
}

// sampleRates returns the paper's E.1 sampling-rate sweep in Hz.
func sampleRates(cfg Config) []float64 {
	if cfg.Quick {
		return []float64{0.1, 1, 10}
	}
	return []float64{0.1, 0.2, 0.5, 1, 2, 5, 10}
}

// e3Sizes returns the paper's E.3 iteration counts.
func e3Sizes(cfg Config) []int {
	if cfg.Quick {
		return []int{1000, 10_000, 100_000}
	}
	return []int{1000, 5000, 10_000, 25_000, 50_000, 75_000, 100_000}
}
