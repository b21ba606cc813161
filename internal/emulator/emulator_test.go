package emulator

import (
	"context"
	"math"
	"testing"
	"time"

	"synapse/internal/app"
	"synapse/internal/atoms"
	"synapse/internal/clock"
	"synapse/internal/machine"
	"synapse/internal/proc"
	"synapse/internal/profile"
	"synapse/internal/watcher"
)

var t0 = time.Date(2016, 5, 23, 0, 0, 0, 0, time.UTC)

// profileOn profiles an MDSim run on the named machine in simulation.
func profileOn(t *testing.T, steps int, machineName string, rate float64) *profile.Profile {
	t.Helper()
	m := machine.MustGet(machineName)
	sp, err := proc.Execute(app.MDSim(steps), m, proc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pr := &watcher.Profiler{Rate: rate, Clock: clock.NewAutoSim(t0), Machine: m}
	p, err := pr.Run(context.Background(), watcher.NewSimTarget(sp))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func emulateOn(t *testing.T, p *profile.Profile, machineName string, mod func(*Options)) *Report {
	t.Helper()
	opts := Options{Atoms: atoms.Config{Machine: machine.MustGet(machineName)}}
	if mod != nil {
		mod(&opts)
	}
	rep, err := Emulate(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// E.2 (Fig 5): emulating on the profiling resource reproduces Tx within a
// few percent once runs are much longer than the startup delay.
func TestSameResourceFidelity(t *testing.T) {
	p := profileOn(t, 1_000_000, machine.Thinkie, 1) // Tx ≈ 53 s
	rep := emulateOn(t, p, machine.Thinkie, nil)
	appTx := p.Duration.Seconds()
	emuTx := rep.Tx.Seconds()
	diff := (emuTx - appTx) / appTx * 100
	// Thinkie's asm kernel bias is +2%, plus 1s startup over ~53s ≈ +2%.
	if diff < 0 || diff > 10 {
		t.Errorf("same-resource diff = %.1f%%, want small positive (startup+bias)", diff)
	}
}

// E.2 (Fig 5): the ~1s emulator startup dominates short runs.
func TestStartupDominatesShortRuns(t *testing.T) {
	p := profileOn(t, 10_000, machine.Thinkie, 10) // Tx ≈ 0.9 s
	rep := emulateOn(t, p, machine.Thinkie, nil)
	appTx := p.Duration.Seconds()
	diff := (rep.Tx.Seconds() - appTx) / appTx * 100
	if diff < 50 {
		t.Errorf("short-run diff = %.1f%%, want startup-dominated (>50%%)", diff)
	}
}

// E.2 (Fig 7): emulation ≈40% faster than the application on Stampede,
// ≈33% slower on Archer, for long runs.
func TestCrossResourcePortability(t *testing.T) {
	p := profileOn(t, 5_000_000, machine.Thinkie, 1)

	check := func(target string, steps int, wantDiff, tol float64) {
		m := machine.MustGet(target)
		sp, err := proc.Execute(app.MDSim(steps), m, proc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rep := emulateOn(t, p, target, nil)
		appTx := sp.Duration().Seconds()
		diff := (rep.Tx.Seconds() - appTx) / appTx * 100
		if math.Abs(diff-wantDiff) > tol {
			t.Errorf("%s: emulation diff = %.1f%%, want %.0f%%±%.0f", target, diff, wantDiff, tol)
		}
	}
	check(machine.Stampede, 5_000_000, -40, 5)
	check(machine.Archer, 5_000_000, +33, 5)
}

// Sample order is preserved and every sample is replayed exactly once.
func TestAllSamplesReplayed(t *testing.T) {
	p := profileOn(t, 200_000, machine.Thinkie, 2)
	rep := emulateOn(t, p, machine.Thinkie, nil)
	if rep.Samples != len(p.Samples) {
		t.Errorf("replayed %d samples, profile has %d", rep.Samples, len(p.Samples))
	}
	if len(rep.SampleDurations()) != rep.Samples {
		t.Error("per-sample durations incomplete")
	}
}

// The consumption totals match the profile's totals (modulo kernel bias).
func TestConsumptionMatchesProfile(t *testing.T) {
	p := profileOn(t, 500_000, machine.Comet, 1)
	rep := emulateOn(t, p, machine.Comet, func(o *Options) {
		o.Atoms.Kernel = machine.KernelC
	})
	kp, _ := machine.MustGet(machine.Comet).Kernel(machine.KernelC)
	wantCycles := p.Total(profile.MetricCPUCycles) * kp.CalibBias
	if rel := math.Abs(rep.Consumed.Cycles-wantCycles) / wantCycles; rel > 0.02 {
		t.Errorf("consumed cycles = %v, want ≈%v (bias applied)", rep.Consumed.Cycles, wantCycles)
	}
	if got, want := rep.Consumed.WriteBytes, p.Total(profile.MetricIOWriteBytes); math.Abs(got-want) > 1 {
		t.Errorf("write bytes = %v, want %v", got, want)
	}
}

// E.3: C kernel reproduces cycles better than ASM on Comet and Supermic.
func TestKernelFidelityOrdering(t *testing.T) {
	for _, mn := range []string{machine.Comet, machine.Supermic} {
		p := profileOn(t, 100_000, mn, 10)
		target := p.Total(profile.MetricCPUCycles)
		var errs = map[string]float64{}
		for _, k := range []string{machine.KernelC, machine.KernelASM} {
			rep := emulateOn(t, p, mn, func(o *Options) {
				o.Atoms.Kernel = k
				o.DisableStorage = true
				o.DisableMemory = true
			})
			errs[k] = math.Abs(rep.Consumed.Cycles-target) / target
		}
		if errs[machine.KernelC] >= errs[machine.KernelASM] {
			t.Errorf("%s: C kernel error (%.3f) should beat ASM (%.3f)",
				mn, errs[machine.KernelC], errs[machine.KernelASM])
		}
	}
}

// E.3: emulation IPC ordering app < C < ASM.
func TestEmulationIPCOrdering(t *testing.T) {
	p := profileOn(t, 100_000, machine.Comet, 10)
	appIPC := p.Total(profile.MetricCPUInstructions) / p.Total(profile.MetricCPUCycles)
	var ipc = map[string]float64{}
	for _, k := range []string{machine.KernelC, machine.KernelASM} {
		rep := emulateOn(t, p, machine.Comet, func(o *Options) {
			o.Atoms.Kernel = k
		})
		ipc[k] = rep.IPC()
	}
	if !(appIPC < ipc[machine.KernelC] && ipc[machine.KernelC] < ipc[machine.KernelASM]) {
		t.Errorf("IPC ordering violated: app %.2f, C %.2f, ASM %.2f",
			appIPC, ipc[machine.KernelC], ipc[machine.KernelASM])
	}
}

// E.4 (Fig 12): parallel emulation scales, with the OpenMP/MPI crossover
// between Titan and Supermic.
func TestParallelEmulationCrossover(t *testing.T) {
	p := profileOn(t, 1_000_000, machine.Thinkie, 1)
	run := func(mn string, n int, mode machine.Mode) time.Duration {
		rep := emulateOn(t, p, mn, func(o *Options) {
			o.Atoms.Workers = n
			o.Atoms.Mode = mode
			o.DisableStorage = true
			o.DisableMemory = true
		})
		return rep.Tx
	}
	titanSerial := run(machine.Titan, 1, machine.ModeSerial)
	titanOMP := run(machine.Titan, 16, machine.ModeOpenMP)
	titanMPI := run(machine.Titan, 16, machine.ModeMPI)
	if titanOMP >= titanSerial/2 {
		t.Errorf("titan OpenMP x16 (%v) should be much faster than serial (%v)", titanOMP, titanSerial)
	}
	if titanOMP >= titanMPI {
		t.Errorf("titan: OpenMP (%v) should beat MPI (%v)", titanOMP, titanMPI)
	}
	smOMP := run(machine.Supermic, 20, machine.ModeOpenMP)
	smMPI := run(machine.Supermic, 20, machine.ModeMPI)
	if smMPI >= smOMP {
		t.Errorf("supermic: MPI (%v) should beat OpenMP (%v)", smMPI, smOMP)
	}
}

// MPI duplicates non-compute resource usage; OpenMP shares it.
func TestMPIDuplicatesIO(t *testing.T) {
	p := profileOn(t, 500_000, machine.Thinkie, 1)
	omp := emulateOn(t, p, machine.Supermic, func(o *Options) {
		o.Atoms.Workers = 4
		o.Atoms.Mode = machine.ModeOpenMP
	})
	mpi := emulateOn(t, p, machine.Supermic, func(o *Options) {
		o.Atoms.Workers = 4
		o.Atoms.Mode = machine.ModeMPI
	})
	if mpi.Consumed.WriteBytes < 3.9*omp.Consumed.WriteBytes {
		t.Errorf("MPI should duplicate writes: %v vs %v", mpi.Consumed.WriteBytes, omp.Consumed.WriteBytes)
	}
}

// Sampling effects (Fig 2): replaying a coarser profile of a workload whose
// compute and I/O alternate allows more intra-sample concurrency, so the
// emulated Tx can only shrink or stay equal.
func TestCoarserSamplingIncreasesConcurrency(t *testing.T) {
	mkProfile := func() *profile.Profile {
		p := profile.New("alternating", nil)
		p.SampleRate = 2
		for i := 0; i < 20; i++ {
			v := map[string]float64{}
			if i%2 == 0 {
				v[profile.MetricCPUCycles] = 3e9
			} else {
				v[profile.MetricIOWriteBytes] = 64 << 20
			}
			_ = p.Append(profile.Sample{T: time.Duration(i+1) * 500 * time.Millisecond, Values: v})
		}
		p.Finalize(10 * time.Second)
		return p
	}
	fine := mkProfile()
	coarse, err := profile.Resample(fine, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	repFine := emulateOn(t, fine, machine.Thinkie, nil)
	repCoarse := emulateOn(t, coarse, machine.Thinkie, nil)
	if repCoarse.Tx > repFine.Tx {
		t.Errorf("coarser replay (%v) should not exceed finer (%v)", repCoarse.Tx, repFine.Tx)
	}
	// Consumption is identical either way.
	if math.Abs(repCoarse.Consumed.WriteBytes-repFine.Consumed.WriteBytes) > 1 {
		t.Error("resampling must conserve replayed writes")
	}
}

// The per-sample barrier: a sample's duration is the max of its atom
// durations, so mixed samples cost no more than the sum and no less than
// the slowest atom.
func TestBarrierSemantics(t *testing.T) {
	m := machine.MustGet(machine.Thinkie)
	p := profile.New("mixed", nil)
	cycles, bytes := 2.66e9, float64(64<<20) // ~1s compute, ~0.22s write
	_ = p.Append(profile.Sample{T: time.Second, Values: map[string]float64{
		profile.MetricCPUCycles:    cycles,
		profile.MetricIOWriteBytes: bytes,
	}})
	p.Finalize(time.Second)
	rep := emulateOn(t, p, machine.Thinkie, func(o *Options) {
		o.StartupDelay = -1
		o.SampleOverhead = -1
	})
	kp, _ := m.Kernel(machine.KernelASM)
	computeDur := m.ComputeTime(math.Ceil(cycles/kp.Chunk()) * kp.Chunk() * kp.CalibBias)
	fs, _ := m.Filesystem("")
	ioDur := fs.WriteTime(int64(bytes), atoms.DefaultIOBlock)
	want := computeDur
	if ioDur > want {
		want = ioDur
	}
	if d := rep.SampleDurations()[0]; d != want {
		t.Errorf("sample duration = %v, want max(compute %v, io %v)", d, computeDur, ioDur)
	}
}

func TestDisableSwitches(t *testing.T) {
	p := profileOn(t, 100_000, machine.Thinkie, 1)
	rep := emulateOn(t, p, machine.Thinkie, func(o *Options) {
		o.DisableStorage = true
		o.DisableMemory = true
		o.DisableNetwork = true
	})
	if rep.Consumed.WriteBytes != 0 || rep.Consumed.AllocBytes != 0 {
		t.Error("disabled atoms should consume nothing")
	}
	if rep.Consumed.Cycles == 0 {
		t.Error("compute should still run")
	}
}

func TestEmptyProfileJustStartsUp(t *testing.T) {
	p := profile.New("empty", nil)
	p.Finalize(0)
	rep := emulateOn(t, p, machine.Thinkie, nil)
	if rep.Samples != 0 {
		t.Error("no samples to replay")
	}
	if rep.Tx != DefaultStartupDelay {
		t.Errorf("Tx = %v, want just the startup delay", rep.Tx)
	}
}

func TestEmulateValidation(t *testing.T) {
	if _, err := Emulate(context.Background(), nil, Options{}); err == nil {
		t.Error("nil profile should fail")
	}
	p := profileOn(t, 1000, machine.Thinkie, 1)
	if _, err := Emulate(context.Background(), p, Options{}); err == nil {
		t.Error("missing machine should fail")
	}
}

func TestEmulateCancellation(t *testing.T) {
	p := profileOn(t, 1_000_000, machine.Thinkie, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Emulate(ctx, p, Options{Atoms: atoms.Config{Machine: machine.MustGet(machine.Thinkie)}})
	if err == nil {
		t.Error("cancelled context should abort")
	}
}

// Real-mode smoke test with a tiny profile.
func TestRealEmulationSmoke(t *testing.T) {
	p := profile.New("tiny", nil)
	_ = p.Append(profile.Sample{T: 100 * time.Millisecond, Values: map[string]float64{
		profile.MetricCPUCycles:    5e6, // ~2ms on any host
		profile.MetricIOWriteBytes: 64 << 10,
		profile.MetricMemAlloc:     1 << 20,
	}})
	p.Finalize(100 * time.Millisecond)
	rep, err := Emulate(context.Background(), p, Options{
		Atoms:      atoms.Config{Machine: machine.Host(), WriteBlock: 16 << 10},
		Real:       true,
		ScratchDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tx <= 0 {
		t.Error("real emulation took no time")
	}
	if rep.Consumed.WriteBytes != 64<<10 {
		t.Errorf("real write bytes = %v", rep.Consumed.WriteBytes)
	}
}

// The startup delay can be customized or disabled.
func TestStartupOverride(t *testing.T) {
	p := profile.New("empty", nil)
	p.Finalize(0)
	rep := emulateOn(t, p, machine.Thinkie, func(o *Options) { o.StartupDelay = 2 * time.Second })
	if rep.Tx != 2*time.Second {
		t.Errorf("custom startup: Tx = %v", rep.Tx)
	}
	rep = emulateOn(t, p, machine.Thinkie, func(o *Options) { o.StartupDelay = -1 })
	if rep.Tx != 0 {
		t.Errorf("disabled startup: Tx = %v", rep.Tx)
	}
}

// BusyTime reads the flat per-atom record a replay fills; a report assembled
// by hand has none and is answered from its trace.
func TestBusyTimeRecordAndTraceFallback(t *testing.T) {
	p := profileOn(t, 100_000, machine.Thinkie, 2)
	rep := emulateOn(t, p, machine.Stampede, func(o *Options) { o.DisableStorage = true })
	var fromTrace time.Duration
	for _, st := range rep.Trace {
		for _, sp := range st.Spans {
			if sp.Atom == "compute" {
				fromTrace += sp.Dur
			}
		}
	}
	if got := rep.BusyTime("compute"); got == 0 || got != fromTrace {
		t.Errorf("compute busy %v, trace spans sum to %v", got, fromTrace)
	}
	if got := rep.BusyTime("storage"); got != 0 {
		t.Errorf("disabled storage atom busy %v", got)
	}
	if got := rep.BusyTime("no-such-atom"); got != 0 {
		t.Errorf("unknown atom busy %v", got)
	}

	byHand := &Report{Trace: []SampleTrace{
		{Spans: []AtomSpan{{Atom: "compute", Dur: 2 * time.Second}, {Atom: "memory", Dur: time.Second}}},
		{Spans: []AtomSpan{{Atom: "compute", Dur: 3 * time.Second}}},
	}}
	if got := byHand.BusyTime("compute"); got != 5*time.Second {
		t.Errorf("hand-assembled report: compute busy %v, want 5s", got)
	}
	if got := byHand.BusyTime("memory"); got != time.Second {
		t.Errorf("hand-assembled report: memory busy %v, want 1s", got)
	}

	// BusyTimes is the same record read at once, in AtomNames order.
	for _, r := range []*Report{rep, byHand} {
		all := r.BusyTimes()
		for i, a := range AtomNames {
			if all[i] != r.BusyTime(a) {
				t.Errorf("BusyTimes()[%d] = %v, BusyTime(%q) = %v", i, all[i], a, r.BusyTime(a))
			}
		}
	}
}
