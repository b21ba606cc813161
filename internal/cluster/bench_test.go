package cluster

import (
	"testing"

	"synapse/internal/stats"
)

// BenchmarkKernelPlacement is the placement micro: one random-policy
// Place/Release pair per op on a warm cluster — the feasible-set scan
// (scratch-buffer backed), the batched RNG draw, and the occupancy
// bookkeeping. Steady state must not allocate.
func BenchmarkKernelPlacement(b *testing.B) {
	spec := &Spec{
		Policy: PolicyRandom,
		Nodes: []NodeSpec{
			{Name: "small", Machine: "thinkie", Count: 4},
			{Name: "big", Machine: "stampede", Count: 4},
		},
	}
	c, err := New(spec, stats.NewRNG(42))
	if err != nil {
		b.Fatal(err)
	}
	req := Request{Cores: 2, MemBytes: 1 << 30}
	// Warm-up fills the feasible-set scratch.
	if idx, _, ok := c.Place(req); ok {
		c.Release(idx, req)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx, _, ok := c.Place(req)
		if !ok {
			b.Fatal("placement rejected on an empty cluster")
		}
		c.Release(idx, req)
	}
}

// TestPlaceAllocFree pins the random policy's allocation-free steady
// state: after the first Place sized the feasible-set scratch, repeated
// Place/Release pairs must not allocate.
func TestPlaceAllocFree(t *testing.T) {
	c := mustNew(t, &Spec{
		Policy: PolicyRandom,
		Nodes: []NodeSpec{
			{Name: "small", Machine: "thinkie", Count: 4},
			{Name: "big", Machine: "stampede", Count: 4},
		},
	})
	req := Request{Cores: 2, MemBytes: 1 << 30}
	pair := func() {
		idx, _, ok := c.Place(req)
		if !ok {
			t.Fatal("placement rejected on an empty cluster")
		}
		c.Release(idx, req)
	}
	pair() // warm-up: sizes the scratch
	if allocs := testing.AllocsPerRun(100, pair); allocs != 0 {
		t.Fatalf("Place/Release allocated %.1f objects per pair, want 0", allocs)
	}
}
