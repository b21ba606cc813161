package synapse

// Ablation benchmarks for the design choices docs/profiling.md calls out: the
// per-sample barrier, sampling-rate versus replay fidelity, kernel chunk
// granularity, and profile-derived versus static I/O block sizes.

import (
	"context"
	"testing"
	"time"

	"synapse/internal/app"
	"synapse/internal/atoms"
	"synapse/internal/core"
	"synapse/internal/emulator"
	"synapse/internal/machine"
	"synapse/internal/proc"
	"synapse/internal/profile"
)

// ablationProfile profiles MDSim at the given rate on Thinkie.
func ablationProfile(b *testing.B, steps int, rate float64) *profile.Profile {
	b.Helper()
	p, err := core.ProfileWorkload(context.Background(), app.MDSim(steps), core.ProfileOptions{
		Machine:    machine.Thinkie,
		SampleRate: rate,
	})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func ablationEmulate(b *testing.B, p *profile.Profile, mod func(*core.EmulateOptions)) *emulator.Report {
	b.Helper()
	opts := core.EmulateOptions{Machine: machine.Thinkie}
	if mod != nil {
		mod(&opts)
	}
	rep, err := core.EmulateProfile(context.Background(), p, opts)
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// BenchmarkAblationSamplingRate measures how the profiling rate feeds
// through to replay fidelity: the emulated Tx is nearly rate-independent for
// a blended workload (consumption totals are conserved at any rate), which
// is why the paper can profile at 0.1 Hz without losing emulation fidelity.
func BenchmarkAblationSamplingRate(b *testing.B) {
	var tx01, tx10 float64
	for i := 0; i < b.N; i++ {
		appTx := 0.0
		for _, rate := range []float64{0.1, 10} {
			p := ablationProfile(b, 500_000, rate)
			rep := ablationEmulate(b, p, nil)
			if rate == 0.1 {
				tx01 = rep.Tx.Seconds()
			} else {
				tx10 = rep.Tx.Seconds()
			}
			appTx = p.Duration.Seconds()
		}
		_ = appTx
	}
	b.ReportMetric(tx01/tx10, "tx_0.1Hz_over_10Hz")
}

// barrierProfile alternates compute-heavy, storage-heavy and mixed samples,
// the workload class where the per-sample barrier matters.
func barrierProfile() *profile.Profile {
	p := profile.New("barrier-ablation", nil)
	p.SampleRate = 1
	for i := 0; i < 12; i++ {
		v := map[string]float64{}
		switch i % 3 {
		case 0:
			v[profile.MetricCPUCycles] = 2.66e9
		case 1:
			v[profile.MetricIOWriteBytes] = 256 << 20
		default:
			v[profile.MetricCPUCycles] = 1.33e9
			v[profile.MetricIOWriteBytes] = 128 << 20
		}
		_ = p.Append(profile.Sample{T: time.Duration(i+1) * time.Second, Values: v})
	}
	p.Finalize(12 * time.Second)
	return p
}

// BenchmarkAblationBarrier quantifies the per-sample barrier (paper §4.4):
// emulated Tx sits strictly between the full-overlap lower bound (slowest
// resource's total busy time) and the fully-serialized upper bound (sum of
// all busy times). Removing the barrier would collapse to the lower bound
// and lose the captured cross-resource ordering.
func BenchmarkAblationBarrier(b *testing.B) {
	var barrier, overlap, serial float64
	for i := 0; i < b.N; i++ {
		rep := ablationEmulate(b, barrierProfile(), func(o *core.EmulateOptions) {
			o.StartupDelay = -1
			o.SampleOverhead = -1
		})
		barrier = rep.Tx.Seconds()
		var busies []time.Duration
		for _, atom := range []string{"compute", "storage", "memory", "network"} {
			busies = append(busies, rep.BusyTime(atom))
		}
		var max, sum time.Duration
		for _, d := range busies {
			if d > max {
				max = d
			}
			sum += d
		}
		overlap, serial = max.Seconds(), sum.Seconds()
		if barrier < overlap-1e-9 || barrier > serial+1e-9 {
			b.Fatalf("barrier Tx %v outside [overlap %v, serial %v]", barrier, overlap, serial)
		}
	}
	b.ReportMetric(barrier/overlap, "barrier_over_overlap")
	b.ReportMetric(barrier/serial, "barrier_over_serial")
}

// BenchmarkAblationChunkGranularity quantifies the kernel dispatch
// granularity's contribution to small-target cycle error (the decaying head
// of the paper's Fig 8 curves).
func BenchmarkAblationChunkGranularity(b *testing.B) {
	m := machine.MustGet(machine.Comet)
	kp, _ := m.Kernel(machine.KernelC)
	var smallErr, largeErr float64
	for i := 0; i < b.N; i++ {
		for _, target := range []float64{kp.Chunk() * 1.5, kp.Chunk() * 1000} {
			cfg := &atoms.Config{Machine: m, Kernel: machine.KernelC}
			a, err := atoms.NewSimCompute(cfg)
			if err != nil {
				b.Fatal(err)
			}
			res, err := a.Consume(context.Background(), atoms.Request{Cycles: target})
			if err != nil {
				b.Fatal(err)
			}
			errPct := (res.Consumed.Cycles/target - 1) * 100
			if target < kp.Chunk()*2 {
				smallErr = errPct
			} else {
				largeErr = errPct
			}
		}
	}
	b.ReportMetric(smallErr, "small_target_err_%")
	b.ReportMetric(largeErr, "large_target_err_%")
}

// BenchmarkAblationProfiledBlocks compares static 1 MB I/O emulation against
// the blktrace-inspired profile-derived granularity (paper §6 future work):
// for an I/O-bound workload that wrote 4 KB frames, the profiled-blocks
// replay is slower and truer to the application.
func BenchmarkAblationProfiledBlocks(b *testing.B) {
	var static, profiled float64
	for i := 0; i < b.N; i++ {
		// An I/O-bound profile: 64 MB written as 4 KB operations.
		p := profile.New("blocks-ablation", nil)
		p.SampleRate = 1
		_ = p.Append(profile.Sample{T: time.Second, Values: map[string]float64{
			profile.MetricIOWriteBytes: 64 << 20,
			profile.MetricIOWriteOps:   16384, // 4 KB each
		}})
		p.Finalize(time.Second)
		repS := ablationEmulate(b, p, func(o *core.EmulateOptions) {
			o.Machine = machine.Supermic // shared FS amplifies latency
			o.StartupDelay = -1
		})
		repP := ablationEmulate(b, p, func(o *core.EmulateOptions) {
			o.Machine = machine.Supermic
			o.UseProfiledBlocks = true
			o.StartupDelay = -1
		})
		static, profiled = repS.Tx.Seconds(), repP.Tx.Seconds()
	}
	b.ReportMetric(profiled/static, "profiled_over_static_tx")
}

// BenchmarkAblationStartupDelay isolates the modeled emulator startup
// against run length (the Fig 5 short-run effect).
func BenchmarkAblationStartupDelay(b *testing.B) {
	var short, long float64
	for i := 0; i < b.N; i++ {
		pShort := ablationProfile(b, 10_000, 10)
		pLong := ablationProfile(b, 1_000_000, 1)
		rs := ablationEmulate(b, pShort, nil)
		rl := ablationEmulate(b, pLong, nil)
		short = rs.Startup.Seconds() / rs.Tx.Seconds()
		long = rl.Startup.Seconds() / rl.Tx.Seconds()
	}
	b.ReportMetric(short*100, "startup_share_short_%")
	b.ReportMetric(long*100, "startup_share_long_%")
}

// BenchmarkSimulationThroughput reports how much simulated application time
// one wall second of simulation covers — the speedup that makes full-scale
// paper reproduction feasible on a laptop.
func BenchmarkSimulationThroughput(b *testing.B) {
	m := machine.MustGet(machine.Thinkie)
	w := app.MDSim(10_000_000)
	var simSeconds float64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		sp, err := proc.Execute(w, m, proc.Options{})
		if err != nil {
			b.Fatal(err)
		}
		simSeconds += sp.Duration().Seconds()
	}
	wall := time.Since(start).Seconds()
	if wall > 0 {
		b.ReportMetric(simSeconds/wall, "sim_s_per_wall_s")
	}
}
