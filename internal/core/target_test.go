package core

import (
	"context"
	"math"
	"testing"
	"time"

	"synapse/internal/app"
	"synapse/internal/clock"
	"synapse/internal/emulator"
	"synapse/internal/machine"
	"synapse/internal/profile"
	"synapse/internal/watcher"
)

// profileAndEmulate profiles an MDSim run on machineName in simulation and
// replays it there with the full trace the report target reads.
func profileAndEmulate(t *testing.T, steps int, machineName, kernel string) (*profile.Profile, *emulator.Report) {
	t.Helper()
	ctx := context.Background()
	p, err := ProfileWorkload(ctx, app.MDSim(steps), ProfileOptions{Machine: machineName, SampleRate: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := EmulateProfile(ctx, p, EmulateOptions{Machine: machineName, Kernel: kernel})
	if err != nil {
		t.Fatal(err)
	}
	return p, rep
}

// The paper's E.2 sanity check: profiling the emulation reports the same
// resource consumption the emulation performed, and agrees with the original
// application's profile up to the kernel calibration bias.
func TestReprofilingTheEmulation(t *testing.T) {
	p, rep := profileAndEmulate(t, 500_000, machine.Comet, machine.KernelC)

	m := machine.MustGet(machine.Comet)
	pr := &watcher.Profiler{Rate: 2, Clock: clock.NewAutoSim(time.Unix(0, 0).UTC()), Machine: m}
	reprofiled, err := pr.Run(context.Background(),
		NewReportTarget(rep, p.Command, p.Tags))
	if err != nil {
		t.Fatal(err)
	}
	if err := reprofiled.Validate(); err != nil {
		t.Fatal(err)
	}
	// The re-profile sees exactly what the emulation consumed.
	if got, want := reprofiled.Total(profile.MetricCPUCycles), rep.Consumed.Cycles; math.Abs(got-want) > 1e-6*want {
		t.Errorf("re-profiled cycles = %v, emulation consumed %v", got, want)
	}
	if got, want := reprofiled.Duration, rep.Tx; got != want {
		t.Errorf("re-profiled Tx = %v, emulation Tx = %v", got, want)
	}
	// And agrees with the original application profile up to the bias.
	kp, _ := m.Kernel(machine.KernelC)
	ratio := reprofiled.Total(profile.MetricCPUCycles) / p.Total(profile.MetricCPUCycles)
	if math.Abs(ratio-kp.CalibBias) > 0.02 {
		t.Errorf("re-profile/application cycle ratio = %v, want ≈%v", ratio, kp.CalibBias)
	}
	// Storage totals replay exactly.
	if got, want := reprofiled.Total(profile.MetricIOWriteBytes), p.Total(profile.MetricIOWriteBytes); math.Abs(got-want) > 1 {
		t.Errorf("re-profiled writes = %v, want %v", got, want)
	}
}

func TestReportTargetVisibility(t *testing.T) {
	_, rep := profileAndEmulate(t, 10_000, machine.Thinkie, "")
	tgt := NewReportTarget(rep, "x", nil)

	// During startup nothing has been consumed.
	c, ok := tgt.Counters(rep.Startup / 2)
	if !ok || c.Cycles != 0 {
		t.Errorf("counters during startup = %+v, %v", c, ok)
	}
	// Mid-run counters are between zero and the totals.
	mid, ok := tgt.Counters(rep.Startup + (rep.Tx-rep.Startup)/2)
	if !ok {
		t.Fatal("mid-run counters unavailable")
	}
	if mid.Cycles <= 0 || mid.Cycles >= rep.Consumed.Cycles {
		t.Errorf("mid-run cycles = %v, total %v", mid.Cycles, rep.Consumed.Cycles)
	}
	// After exit only finals are available.
	if _, ok := tgt.Counters(rep.Tx); ok {
		t.Error("counters should vanish at exit")
	}
	fin, ok := tgt.Final(rep.Tx)
	if !ok || fin.Cycles != rep.Consumed.Cycles {
		t.Errorf("finals = %+v, %v", fin, ok)
	}
}
