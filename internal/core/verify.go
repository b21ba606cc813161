package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"synapse/internal/clock"
	"synapse/internal/emulator"
	"synapse/internal/machine"
	"synapse/internal/profile"
	"synapse/internal/watcher"
)

// VerifyRow compares one consumption metric between the application profile
// and a re-profiled emulation of it.
type VerifyRow struct {
	Metric   string
	App      float64
	Emulated float64
	// Ratio is Emulated/App (1.0 = perfect agreement; compute metrics
	// carry the kernel calibration bias by design).
	Ratio float64
}

// VerifyEmulation reproduces the paper's E.2 sanity check as a reusable
// operation: it profiles the emulation run itself (through the same watcher
// stack, against the report's reconstructed counters) and compares the
// observed consumption against the source profile, metric by metric.
func VerifyEmulation(ctx context.Context, p *profile.Profile, rep *emulator.Report, machineName string, rate float64) ([]VerifyRow, error) {
	m, err := machine.Get(machineName)
	if err != nil {
		return nil, err
	}
	pr := &watcher.Profiler{
		Rate:    rate,
		Clock:   clock.NewAutoSim(time.Unix(0, 0).UTC()),
		Machine: m,
	}
	reprofiled, err := pr.Run(ctx, NewReportTarget(rep, p.Command, p.Tags))
	if err != nil {
		return nil, fmt.Errorf("core: re-profiling emulation: %w", err)
	}

	metrics := []string{
		profile.MetricCPUCycles,
		profile.MetricCPUInstructions,
		profile.MetricCPUFLOPs,
		profile.MetricIOReadBytes,
		profile.MetricIOWriteBytes,
		profile.MetricMemAlloc,
		profile.MetricMemFree,
		profile.MetricNetReadBytes,
		profile.MetricNetWriteBytes,
	}
	var rows []VerifyRow
	for _, metric := range metrics {
		app := p.Total(metric)
		emu := reprofiled.Total(metric)
		if app == 0 && emu == 0 {
			continue
		}
		row := VerifyRow{Metric: metric, App: app, Emulated: emu}
		if app != 0 {
			row.Ratio = emu / app
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Metric < rows[j].Metric })
	rows = append(rows, VerifyRow{
		Metric:   "runtime (s)",
		App:      p.Duration.Seconds(),
		Emulated: rep.Tx.Seconds(),
		Ratio:    rep.Tx.Seconds() / p.Duration.Seconds(),
	})
	return rows, nil
}
