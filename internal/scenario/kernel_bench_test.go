package scenario

import (
	"testing"
	"time"

	"synapse/internal/stats"
)

// foldSample builds a deterministic 1024-value latency sample.
func foldSample() []float64 {
	rng := stats.NewRNG(7)
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = rng.Float64() * float64(time.Second)
	}
	return xs
}

// BenchmarkKernelReportFold is the report-fold micro: one summarize over a
// 1024-value sample per op — the mean/max pass, the single in-place sort,
// and the three sorted-percentile reads. The copy back from the pristine
// sample is part of the op (summarize sorts in place), mirroring how
// assemble refills its scratch between workloads.
func BenchmarkKernelReportFold(b *testing.B) {
	base := foldSample()
	buf := make([]float64, len(base))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, base)
		if s := summarize(buf); s.Mean == 0 {
			b.Fatal("degenerate summary")
		}
	}
}

// TestReportFoldAllocFree pins the fold path's allocation-free steady
// state: summarize works entirely in place, and the reporter sink's
// Observe accumulates without boxing.
func TestReportFoldAllocFree(t *testing.T) {
	base := foldSample()
	buf := make([]float64, len(base))
	fold := func() {
		copy(buf, base)
		summarize(buf)
	}
	fold() // warm-up
	if allocs := testing.AllocsPerRun(100, fold); allocs != 0 {
		t.Fatalf("summarize allocated %.1f objects per fold, want 0", allocs)
	}

	rp := newReporter(2)
	done := evCompleted{w: 1, node: 0, cores: 2, id: 7}
	kill := evKilled{w: 0, node: 0, cores: 2, id: 3}
	observe := func() {
		rp.Observe(time.Second, &done)
		rp.Observe(2*time.Second, &kill)
	}
	observe()
	if allocs := testing.AllocsPerRun(100, observe); allocs != 0 {
		t.Fatalf("reporter.Observe allocated %.1f objects per call, want 0", allocs)
	}
}
