package emulator

import (
	"context"
	"testing"

	"synapse/internal/atoms"
	"synapse/internal/machine"
	"synapse/internal/profile"
)

// benchReplaySamples is sized so one replay is long enough to swamp the
// per-run setup (atom construction) that both paths share.
const benchReplaySamples = 8192

// benchReplay measures one replay configuration, reporting throughput in
// samples/sec — the headline number the ISSUE's ≥5× target refers to.
func benchReplay(b *testing.B, p *profile.Profile, serial bool, level TraceLevel) {
	b.Helper()
	m := machine.MustGet(machine.Thinkie)
	opts := Options{
		Atoms:      atoms.Config{Machine: m},
		TraceLevel: level,
	}
	emulate := replayVia(serial)
	// Warm the columnar cache so steady-state replay is measured (the
	// paper's experiments replay each profile many times).
	p.Columns()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := emulate(context.Background(), p, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(len(p.Samples))*float64(b.N)/secs, "samples/s")
	}
}

// BenchmarkReplaySimulated is the per-sample reference loop (the test
// oracle): per-sample metric-map lookups, four interface-dispatched Consume
// calls and fresh span slices on every sample.
func BenchmarkReplaySimulated(b *testing.B) {
	benchReplay(b, benchReplayProfile(benchReplaySamples), true, TraceFull)
}

// BenchmarkReplayBatched is the columnar batched path at full trace detail.
func BenchmarkReplayBatched(b *testing.B) {
	benchReplay(b, benchReplayProfile(benchReplaySamples), false, TraceFull)
}

// BenchmarkReplayBatchedNoTrace is the batched path as experiments run it:
// aggregates only, no per-sample detail retained.
func BenchmarkReplayBatchedNoTrace(b *testing.B) {
	benchReplay(b, benchReplayProfile(benchReplaySamples), false, TraceNone)
}

// BenchmarkReplayRealPool exercises the persistent worker pool with a tiny
// real-mode profile (actual host consumption, so kept very small).
func BenchmarkReplayRealPool(b *testing.B) {
	p := profile.New("real-bench", nil)
	for i := 0; i < 8; i++ {
		_ = p.Append(profile.Sample{
			T: profile.Sample{}.T, // offsets are irrelevant to replay
			Values: map[string]float64{
				profile.MetricCPUCycles: 2e6,
				profile.MetricMemAlloc:  1 << 16,
			},
		})
	}
	p.Finalize(0)
	opts := Options{
		Atoms:      atoms.Config{Machine: machine.Host()},
		Real:       true,
		ScratchDir: b.TempDir(),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Emulate(context.Background(), p, opts); err != nil {
			b.Fatal(err)
		}
	}
}
