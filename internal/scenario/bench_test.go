package scenario

import (
	"context"
	"sync"
	"testing"
	"time"

	"synapse/internal/cluster"
)

// benchSpec is the benchmark mix: one closed-loop workload producing n
// emulations of a small profile per scenario run, on the batched replay
// path. Load jitter makes every instance a distinct replay, so the
// emulations/s metric measures real replay work, not the shared-report
// dedup path.
func benchSpec(clients, iterations int) *Spec {
	return &Spec{
		Version: SpecVersion,
		Name:    "bench",
		Seed:    1,
		Workloads: []Workload{{
			Name:      "md",
			Profile:   ProfileRef{Command: "mdsim", Tags: mdTags},
			Arrival:   Arrival{Process: ArrivalClosed, Clients: clients, Iterations: iterations},
			Emulation: Emulation{Machine: "stampede", Load: 0.2, LoadJitter: 0.15},
		}},
	}
}

// BenchmarkScenarioThroughput is the acceptance number for the scenario
// engine: aggregate completed emulations per wall-clock second, all cores.
// The custom metric is emulations/s.
func BenchmarkScenarioThroughput(b *testing.B) {
	st := seedStore(b, "mdsim")
	spec := benchSpec(4, 64) // 256 emulations per scenario run
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		rep, err := Run(context.Background(), spec, st, RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Replays != rep.Emulations {
			b.Fatalf("dedup kicked in (%d replays for %d emulations); the metric would lie", rep.Replays, rep.Emulations)
		}
		total += rep.Emulations
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "emulations/s")
}

// BenchmarkScenarioSerial pins the single-worker baseline the parallel
// fan-out is measured against.
func BenchmarkScenarioSerial(b *testing.B) {
	st := seedStore(b, "mdsim")
	spec := benchSpec(4, 64)
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		rep, err := Run(context.Background(), spec, st, RunOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		total += rep.Emulations
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "emulations/s")
}

// placementBenchSpec is the clustered benchmark mix: jittered bursts and a
// closed loop placed onto a finite four-node pool, so the metric covers
// policy decisions, contention-derived loads and the demand-driven memoized
// replay path.
func placementBenchSpec(policy string) *Spec {
	contention := 0.4
	return &Spec{
		Version: SpecVersion,
		Name:    "bench-placement",
		Seed:    1,
		Cluster: &cluster.Spec{
			Policy:     policy,
			Contention: &contention,
			Nodes: []cluster.NodeSpec{
				{Name: "stamp", Machine: "stampede", Count: 2, Cores: 8},
				{Name: "comet", Machine: "comet", Count: 2, Cores: 4},
			},
		},
		Workloads: []Workload{
			{
				Name:      "md-closed",
				Profile:   ProfileRef{Command: "mdsim", Tags: mdTags},
				Arrival:   Arrival{Process: ArrivalClosed, Clients: 8, Iterations: 8},
				Resources: &Resources{Cores: 2},
				Emulation: Emulation{Load: 0.1, LoadJitter: 0.08},
			},
			{
				Name:      "md-bursts",
				Profile:   ProfileRef{Command: "mdsim", Tags: mdTags},
				Arrival:   Arrival{Process: ArrivalBurst, Burst: 16, Every: Duration(2 * time.Second), Bursts: 4},
				Resources: &Resources{Cores: 1},
				Emulation: Emulation{Load: 0.2, LoadJitter: 0.15},
			},
		},
	}
}

// BenchmarkPlacement is the acceptance number for the cluster engine:
// completed emulations per wall-clock second through placement, contention
// and the demand-driven replay path, per policy.
func BenchmarkPlacement(b *testing.B) {
	for _, policy := range []string{
		cluster.PolicyFirstFit, cluster.PolicyBestFit,
		cluster.PolicyLeastLoaded, cluster.PolicyRandom,
	} {
		b.Run(policy, func(b *testing.B) {
			st := seedStore(b, "mdsim")
			spec := placementBenchSpec(policy)
			b.ReportAllocs()
			b.ResetTimer()
			total := 0
			for i := 0; i < b.N; i++ {
				rep, err := Run(context.Background(), spec, st, RunOptions{})
				if err != nil {
					b.Fatal(err)
				}
				total += rep.Emulations
			}
			b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "emulations/s")
		})
	}
}

// BenchmarkPlacementSerial pins the single-worker baseline for the
// demand-driven batch path.
func BenchmarkPlacementSerial(b *testing.B) {
	st := seedStore(b, "mdsim")
	spec := placementBenchSpec(cluster.PolicyLeastLoaded)
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		rep, err := Run(context.Background(), spec, st, RunOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		total += rep.Emulations
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "emulations/s")
}

// TestScenarioRunAllocCeiling pins the allocations of one whole scenario run
// for each benchmark spec, default fan-out and single worker. Each ceiling
// is 1.2× the count measured when the test was written, so an engine change
// that starts allocating per instance fails here on any host.
func TestScenarioRunAllocCeiling(t *testing.T) {
	// The race detector makes sync.Pool drop a quarter of its Puts at
	// random, so replays there rebuild their scratch now and then.
	var probe sync.Pool
	for i := 0; i < 64; i++ {
		probe.Put(new(int))
		if probe.Get() == nil {
			t.Skip("sync.Pool is not recycling (race detector?); the ceilings assume pool hits")
		}
	}
	st := seedStore(t, "mdsim", "sleep")
	for _, tc := range []struct {
		name     string
		spec     *Spec
		workers  int
		measured float64
	}{
		{"throughput", benchSpec(4, 64), 0, 370},
		{"serial", benchSpec(4, 64), 1, 369},
		{"mix", mixSpec(), 0, 148},
		{"placement/" + cluster.PolicyFirstFit, placementBenchSpec(cluster.PolicyFirstFit), 0, 676},
		{"placement/" + cluster.PolicyBestFit, placementBenchSpec(cluster.PolicyBestFit), 0, 682},
		{"placement/" + cluster.PolicyLeastLoaded, placementBenchSpec(cluster.PolicyLeastLoaded), 0, 682},
		{"placement/" + cluster.PolicyRandom, placementBenchSpec(cluster.PolicyRandom), 0, 682},
		{"placement-serial", placementBenchSpec(cluster.PolicyLeastLoaded), 1, 682},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			got := testing.AllocsPerRun(10, func() {
				if _, err := Run(ctx, tc.spec, st, RunOptions{Workers: tc.workers}); err != nil {
					t.Fatal(err)
				}
			})
			if ceiling := 1.2 * tc.measured; got > ceiling {
				t.Errorf("one run allocates %.0f objects, ceiling %.0f", got, ceiling)
			}
		})
	}
}

// BenchmarkScenarioMix exercises the full scheduler: two workloads, open
// and closed arrivals, concurrency caps and jitter.
func BenchmarkScenarioMix(b *testing.B) {
	st := seedStore(b, "mdsim", "sleep")
	spec := mixSpec()
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		rep, err := Run(context.Background(), spec, st, RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		total += rep.Emulations
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "emulations/s")
}
