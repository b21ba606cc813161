package dist

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"synapse/internal/scenario"
	"synapse/internal/store"
)

// BenchmarkDist measures distributed scenario throughput over in-process
// fleets — the protocol and fold overhead without wire latency. The custom
// metric is emulated instances per second of wall time; benchguard tracks
// it via BENCH_dist.json.
func BenchmarkDist(b *testing.B) {
	st := seedStore(b, "mdsim", "sleep")
	for _, fleet := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", fleet), func(b *testing.B) {
			spec := bigJitteredSpec()
			ctx := context.Background()
			co, err := NewCoordinator(ctx, spec, st, Config{Workers: localFleet(fleet)})
			if err != nil {
				b.Fatal(err)
			}
			emulations := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := scenario.Run(ctx, spec, st, scenario.RunOptions{Executor: co})
				if err != nil {
					b.Fatal(err)
				}
				emulations += rep.Emulations
			}
			b.StopTimer()
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(emulations)/sec, "emulations/s")
			}
		})
	}
}

// delayedWorker serializes its executes behind a mutex and adds a fixed
// delay to each — a worker an order of magnitude slower than its siblings,
// the benchmark's injected straggler. It honors cancellation, like a real
// remote worker.
type delayedWorker struct {
	Worker
	mu    sync.Mutex
	delay time.Duration
}

func (d *delayedWorker) Execute(ctx context.Context, req *ExecuteRequest) ([]*scenario.Outcome, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	select {
	case <-time.After(d.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return d.Worker.Execute(ctx, req)
}

// barrierExecutor is the pre-chunking dispatch discipline, kept as the
// straggler benchmark's baseline: the jobs split statically into equal
// contiguous parts round-robined over the fleet, one RPC per part, and a
// full barrier before any folding.
type barrierExecutor struct {
	creq  *CompileRequest
	fleet []Worker
	parts int
}

func newBarrierExecutor(ctx context.Context, spec *scenario.Spec, st store.Store, fleet []Worker, parts int) (*barrierExecutor, error) {
	profs, err := scenario.ResolveProfiles(ctx, spec, st)
	if err != nil {
		return nil, err
	}
	e := &barrierExecutor{
		creq:  &CompileRequest{Session: "bench-barrier", Spec: spec, Profiles: profs},
		fleet: fleet,
		parts: parts,
	}
	for _, w := range fleet {
		if err := w.Compile(ctx, e.creq); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func (e *barrierExecutor) ExecuteJobs(ctx context.Context, jobs []scenario.Job) ([]*scenario.Outcome, error) {
	outs := make([]*scenario.Outcome, len(jobs))
	errs := make([]error, e.parts)
	per := (len(jobs) + e.parts - 1) / e.parts
	var wg sync.WaitGroup
	for p := 0; p*per < len(jobs); p++ {
		lo, hi := p*per, min((p+1)*per, len(jobs))
		wg.Add(1)
		go func(p int, w Worker) {
			defer wg.Done()
			res, err := w.Execute(ctx, &ExecuteRequest{
				Session: e.creq.Session, Seed: e.creq.Spec.Seed, Jobs: jobs[lo:hi],
			})
			if err == nil && len(res) != hi-lo {
				err = fmt.Errorf("part %d: %d outcomes for %d jobs", p, len(res), hi-lo)
			}
			errs[p] = err
			copy(outs[lo:hi], res)
		}(p, e.fleet[p%len(e.fleet)])
	}
	wg.Wait() // the barrier: nothing folds until the slowest part lands
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// stragglerSpec is an eager spec with enough distinct jobs that a fleet of
// four sees many chunks per worker in one dispatch.
func stragglerSpec() *scenario.Spec {
	spec := jitteredSpec()
	spec.Name = "dist-straggler"
	spec.Workloads[0].Arrival = scenario.Arrival{Process: scenario.ArrivalClosed, Clients: 12, Iterations: 8}
	return spec
}

// BenchmarkDistStraggler measures end-to-end wall clock with one of four
// workers dramatically slow, across dispatch disciplines: barrier (static
// equal splits, full barrier — what chunked dispatch replaced), pull
// (chunked pull dispatch, speculation off), and steal (chunked pull plus
// speculative re-execution of stragglers). The straggler-ms metric is wall
// milliseconds per scenario run, lower is better; benchguard gates it via
// -latency-metric so the steal path's win over the barrier is pinned.
func BenchmarkDistStraggler(b *testing.B) {
	st := seedStore(b, "mdsim", "sleep")
	spec := stragglerSpec()
	ctx := context.Background()
	const delay = 40 * time.Millisecond
	mkFleet := func() []Worker {
		fleet := localFleet(4)
		fleet[0] = &delayedWorker{Worker: fleet[0], delay: delay}
		return fleet
	}
	run := func(b *testing.B, exec scenario.Executor) {
		b.Helper()
		// One untimed warmup run compiles every session and fills caches, so
		// the modes compare dispatch discipline, not setup.
		if _, err := scenario.Run(ctx, spec, st, scenario.RunOptions{Executor: exec}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := scenario.Run(ctx, spec, st, scenario.RunOptions{Executor: exec}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "straggler-ms")
	}
	b.Run("mode=barrier", func(b *testing.B) {
		exec, err := newBarrierExecutor(ctx, spec, st, mkFleet(), 16)
		if err != nil {
			b.Fatal(err)
		}
		run(b, exec)
	})
	b.Run("mode=pull", func(b *testing.B) {
		co, err := NewCoordinator(ctx, spec, st, Config{
			Workers: mkFleet(), ChunkSize: 8, StealAfter: -1,
		})
		if err != nil {
			b.Fatal(err)
		}
		run(b, co)
	})
	b.Run("mode=steal", func(b *testing.B) {
		co, err := NewCoordinator(ctx, spec, st, Config{
			Workers: mkFleet(), ChunkSize: 8, StealAfter: 5 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		run(b, co)
	})
}
