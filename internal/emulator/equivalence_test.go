package emulator

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"synapse/internal/atoms"
	"synapse/internal/machine"
	"synapse/internal/profile"
	"synapse/internal/testutil"
)

// emulateBoth replays p twice — through the per-sample reference loop
// (oracle_test.go) and the batched columnar path — under otherwise identical
// options.
func emulateBoth(t *testing.T, p *profile.Profile, mod func(*Options)) (*Report, *Report) {
	t.Helper()
	opts := Options{Atoms: atoms.Config{Machine: machine.MustGet(machine.Comet)}}
	if mod != nil {
		mod(&opts)
	}
	serial, err := emulateOracle(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := Emulate(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return serial, batched
}

// reportsIdentical asserts bit-for-bit equality of everything the serial and
// batched paths must agree on.
func reportsIdentical(t *testing.T, serial, batched *Report) bool {
	t.Helper()
	ok := true
	fail := func(format string, args ...interface{}) {
		t.Errorf(format, args...)
		ok = false
	}
	if serial.Samples != batched.Samples {
		fail("samples: serial %d, batched %d", serial.Samples, batched.Samples)
	}
	if serial.Tx != batched.Tx {
		fail("Tx: serial %v, batched %v", serial.Tx, batched.Tx)
	}
	if serial.Startup != batched.Startup {
		fail("startup: serial %v, batched %v", serial.Startup, batched.Startup)
	}
	if !testutil.SameBits(&serial.Consumed, &batched.Consumed) {
		fail("consumed: serial %+v, batched %+v", serial.Consumed, batched.Consumed)
	}
	for _, atom := range AtomNames {
		if s, b := serial.BusyTime(atom), batched.BusyTime(atom); s != b {
			fail("busy %s: serial %v, batched %v", atom, s, b)
		}
	}
	sd, bd := serial.SampleDurations(), batched.SampleDurations()
	if len(sd) != len(bd) {
		fail("durations: serial %d, batched %d", len(sd), len(bd))
		return ok
	}
	for i := range sd {
		if sd[i] != bd[i] {
			fail("duration %d: serial %v, batched %v", i, sd[i], bd[i])
		}
	}
	if len(serial.Trace) != len(batched.Trace) {
		fail("trace: serial %d, batched %d", len(serial.Trace), len(batched.Trace))
		return ok
	}
	for i := range serial.Trace {
		s, b := serial.Trace[i], batched.Trace[i]
		if s.Index != b.Index || s.Start != b.Start || s.Dur != b.Dur || !testutil.SameBits(&s.Consumed, &b.Consumed) {
			fail("trace %d: serial %+v, batched %+v", i, s, b)
		}
		if len(s.Spans) != len(b.Spans) {
			fail("trace %d spans: serial %v, batched %v", i, s.Spans, b.Spans)
			continue
		}
		for j := range s.Spans {
			if s.Spans[j] != b.Spans[j] {
				fail("trace %d span %d: serial %+v, batched %+v", i, j, s.Spans[j], b.Spans[j])
			}
		}
	}
	return ok
}

// The batched path must reproduce the serial reference bit-for-bit across
// the property-test profile space.
func TestBatchedMatchesSerialProperty(t *testing.T) {
	f := func(cycles, rw, mem []uint32) bool {
		p := randomProfile(cycles, rw, mem)
		serial, batched := emulateBoth(t, p, nil)
		return reportsIdentical(t, serial, batched)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Equivalence must hold under every configuration knob that feeds the
// request split: MPI duplication, disabled atoms, profiled blocks, loads.
func TestBatchedMatchesSerialConfigs(t *testing.T) {
	p := randomProfile(
		[]uint32{5_000_000, 0, 1_000_000, 3_000_000, 0, 800_000},
		[]uint32{1 << 22, 1 << 20, 0, 1 << 24, 1 << 18, 0},
		[]uint32{1 << 20, 0, 1 << 22, 0, 1 << 19, 1 << 21},
	)
	mods := map[string]func(*Options){
		"default": nil,
		"mpi-duplication": func(o *Options) {
			o.Atoms.Workers = 4
			o.Atoms.Mode = machine.ModeMPI
		},
		"openmp": func(o *Options) {
			o.Atoms.Workers = 8
			o.Atoms.Mode = machine.ModeOpenMP
		},
		"disabled-atoms": func(o *Options) {
			o.DisableStorage = true
			o.DisableNetwork = true
		},
		"profiled-blocks": func(o *Options) {
			o.Atoms.UseProfiledBlocks = true
		},
		"loads": func(o *Options) {
			o.Atoms.Load = 0.3
			o.Atoms.DiskLoad = 0.2
			o.Atoms.MemLoad = 0.1
		},
		"no-driver-costs": func(o *Options) {
			o.StartupDelay = -1
			o.SampleOverhead = -1
		},
		"c-kernel": func(o *Options) {
			o.Atoms.Kernel = machine.KernelC
		},
	}
	for name, mod := range mods {
		t.Run(name, func(t *testing.T) {
			serial, batched := emulateBoth(t, p, mod)
			reportsIdentical(t, serial, batched)
		})
	}
}

// Equivalence of aggregates must hold at every trace level, and each level
// must retain exactly the detail it promises.
func TestTraceLevels(t *testing.T) {
	p := randomProfile(
		[]uint32{2_000_000, 1_000_000, 0, 500_000},
		[]uint32{1 << 20, 0, 1 << 22, 1 << 18},
		[]uint32{0, 1 << 20, 1 << 19, 0},
	)
	full, _ := emulateBoth(t, p, func(o *Options) { o.TraceLevel = TraceFull })
	for _, serial := range []bool{true, false} {
		for _, level := range []TraceLevel{TraceFull, TraceDurations, TraceNone} {
			opts := Options{
				Atoms:      atoms.Config{Machine: machine.MustGet(machine.Comet)},
				TraceLevel: level,
			}
			rep, err := replayVia(serial)(context.Background(), p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Tx != full.Tx || rep.Consumed != full.Consumed {
				t.Errorf("serial=%v level=%v: aggregates diverge (Tx %v vs %v)",
					serial, level, rep.Tx, full.Tx)
			}
			if got := rep.BusyTime("compute"); got != full.BusyTime("compute") {
				t.Errorf("serial=%v level=%v: busy time diverges", serial, level)
			}
			switch level {
			case TraceFull:
				if len(rep.Trace) != len(p.Samples) {
					t.Errorf("serial=%v: full trace has %d of %d samples", serial, len(rep.Trace), len(p.Samples))
				}
			case TraceDurations:
				if len(rep.Trace) != 0 || len(rep.SampleDurations()) != len(p.Samples) {
					t.Errorf("serial=%v: durations level kept trace=%d durs=%d",
						serial, len(rep.Trace), len(rep.SampleDurations()))
				}
			case TraceNone:
				if len(rep.Trace) != 0 || rep.SampleDurations() != nil {
					t.Errorf("serial=%v: none level kept detail", serial)
				}
			}
		}
	}
}

// The batched fast path must be allocation-free per sample: a whole replay
// costs a fixed number of allocations (buffers, report, atom set), so the
// per-sample rate vanishes as profiles grow, where the serial loop paid a
// handful of allocations on every sample. The acceptance bar is ≥10× fewer
// allocs/sample; assert a large margin over it. Each path also has an
// absolute ceiling, 1.2× the count measured when it was set, so a replay
// that gains a few fixed allocations fails too.
func TestBatchedReplayAllocCeiling(t *testing.T) {
	const n = 4096
	p := benchReplayProfile(n)
	m := machine.MustGet(machine.Thinkie)
	run := func(serial bool, level TraceLevel) float64 {
		return testing.AllocsPerRun(5, func() {
			_, err := replayVia(serial)(context.Background(), p, Options{
				Atoms:      atoms.Config{Machine: m},
				TraceLevel: level,
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	serialFull := run(true, TraceFull)
	batchedFull := run(false, TraceFull)
	batchedNone := run(false, TraceNone)

	if perSample := batchedNone / n; perSample > 0.1 {
		t.Errorf("batched TraceNone replay: %.3f allocs/sample, want < 0.1 (total %.0f)", perSample, batchedNone)
	}
	if batchedFull*10 > serialFull {
		t.Errorf("batched full-trace replay allocates %.0f, serial %.0f: want ≥10× reduction", batchedFull, serialFull)
	}
	for _, c := range []struct {
		path          string
		got, measured float64
	}{
		{"serial", serialFull, 6170},
		{"batched full-trace", batchedFull, 16},
		{"batched TraceNone", batchedNone, 13},
	} {
		if c.got > 1.2*c.measured {
			t.Errorf("%s replay allocates %.0f, ceiling %.0f", c.path, c.got, 1.2*c.measured)
		}
	}
	t.Logf("allocs per replay of %d samples: serial=%.0f batched(full)=%.0f batched(none)=%.0f",
		n, serialFull, batchedFull, batchedNone)
}

// mixedProfile builds a seeded n-sample profile in which every atom has
// demand on some samples and none on others, with magnitudes spread over
// several orders so float sums are order- and grouping-sensitive.
func mixedProfile(n int, seed int64) *profile.Profile {
	rng := rand.New(rand.NewSource(seed))
	p := profile.New("matrix", nil)
	p.SampleRate = 1
	mag := func(hi float64) float64 { return math.Floor(hi * math.Pow(rng.Float64(), 4)) }
	for i := 0; i < n; i++ {
		v := map[string]float64{}
		if rng.Intn(4) > 0 {
			v[profile.MetricCPUCycles] = mag(5e9)
			v[profile.MetricCPUFLOPs] = mag(1e8)
		}
		if rng.Intn(3) == 0 {
			v[profile.MetricIOReadBytes] = mag(1 << 28)
			v[profile.MetricIOReadOps] = mag(64)
		}
		if rng.Intn(3) == 0 {
			v[profile.MetricIOWriteBytes] = mag(1 << 28)
			v[profile.MetricIOWriteOps] = mag(64)
		}
		if rng.Intn(2) == 0 {
			v[profile.MetricMemAlloc] = mag(1 << 26)
			v[profile.MetricMemFree] = mag(1 << 25)
		}
		if rng.Intn(5) == 0 {
			v[profile.MetricNetReadBytes] = mag(1 << 22)
			v[profile.MetricNetWriteBytes] = mag(1 << 23)
		}
		_ = p.Append(profile.Sample{T: time.Duration(i+1) * time.Second, Values: v})
	}
	p.Finalize(time.Duration(n+1) * time.Second)
	return p
}

// The narrow batch contract (atoms add only their own counter fields, into
// the run total or the sample's own trace record) must reproduce the
// reference loop bit-for-bit wherever its destination rule or its staging
// changes shape: every trace level, the pooled Run path (first use and a
// recycled scratch, with a per-replay load override) and the one-shot
// Emulate entry point, and profiles that end before, on and after a batch boundary.
func TestBatchedMatchesSerialMatrix(t *testing.T) {
	ctx := context.Background()
	cfgs := map[string]atoms.Config{
		"loads": {Load: 0.3, DiskLoad: 0.2, MemLoad: 0.1},
		"mpi-dup-loads": {
			Workers: 4, Mode: machine.ModeMPI,
			Load: 0.15, DiskLoad: 0.4, MemLoad: 0.25, UseProfiledBlocks: true,
		},
	}
	levels := map[string]TraceLevel{"full": TraceFull, "durations": TraceDurations, "none": TraceNone}
	for _, n := range []int{0, 1, replayBatchSize - 1, replayBatchSize, replayBatchSize + 1, 2*replayBatchSize + 1} {
		p := mixedProfile(n, int64(n)+1)
		for cfgName, cfg := range cfgs {
			cfg.Machine = machine.MustGet(machine.Stampede)
			for levelName, level := range levels {
				t.Run(fmt.Sprintf("n=%d/%s/%s", n, cfgName, levelName), func(t *testing.T) {
					opts := Options{Atoms: cfg, TraceLevel: level}
					want, err := emulateOracle(ctx, p, opts)
					if err != nil {
						t.Fatal(err)
					}

					run, err := NewRun(p, opts)
					if err != nil {
						t.Fatal(err)
					}
					// A replay at another load first, so the replay under
					// test runs on a recycled scratch (surplus reset,
					// config rewritten, destinations refilled).
					if _, err := run.EmulateWithLoad(ctx, 0.6); err != nil {
						t.Fatal(err)
					}
					pooled, err := run.Emulate(ctx)
					if err != nil {
						t.Fatal(err)
					}
					reportsIdentical(t, want, pooled)

					oneShot, err := Emulate(ctx, p, opts)
					if err != nil {
						t.Fatal(err)
					}
					reportsIdentical(t, want, oneShot)
				})
			}
		}
	}
}

// A pooled TraceNone replay allocates the report and nothing else: the atom
// set and the staging buffers come from the Run's pool, and the
// busy record is an array inside the report.
func TestPooledReplayAllocatesOnlyTheReport(t *testing.T) {
	// The race detector makes sync.Pool drop a quarter of its Puts at
	// random, so a replay there rebuilds its scratch now and then.
	var probe sync.Pool
	for i := 0; i < 64; i++ {
		probe.Put(new(int))
		if probe.Get() == nil {
			t.Skip("sync.Pool is not recycling (race detector?); the pin needs a pool hit per replay")
		}
	}
	p := benchReplayProfile(2*replayBatchSize + 1)
	run, err := NewRun(p, Options{
		Atoms:      atoms.Config{Machine: machine.MustGet(machine.Thinkie)},
		TraceLevel: TraceNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	got := testing.AllocsPerRun(50, func() {
		if _, err := run.EmulateWithLoad(ctx, 0.2); err != nil {
			t.Fatal(err)
		}
	})
	if got > 1 {
		t.Errorf("pooled TraceNone replay: %.1f allocs, want <= 1 (the report)", got)
	}
}

// benchReplayProfile builds a deterministic mixed-demand profile of n
// samples: the workload shape of the paper's Fig 2 (alternating and
// overlapping compute/storage/memory/network demand).
func benchReplayProfile(n int) *profile.Profile {
	p := profile.New("replay-bench", nil)
	p.SampleRate = 1
	for i := 0; i < n; i++ {
		v := map[string]float64{}
		switch i % 4 {
		case 0:
			v[profile.MetricCPUCycles] = 2.5e9
			v[profile.MetricCPUFLOPs] = 1e8
		case 1:
			v[profile.MetricIOWriteBytes] = 64 << 20
			v[profile.MetricIOReadBytes] = 16 << 20
		case 2:
			v[profile.MetricCPUCycles] = 1.2e9
			v[profile.MetricMemAlloc] = 32 << 20
			v[profile.MetricMemFree] = 16 << 20
		case 3:
			v[profile.MetricNetReadBytes] = 4 << 20
			v[profile.MetricNetWriteBytes] = 8 << 20
			v[profile.MetricCPUCycles] = 6e8
		}
		_ = p.Append(profile.Sample{T: time.Duration(i+1) * time.Second, Values: v})
	}
	p.Finalize(time.Duration(n+1) * time.Second)
	return p
}
