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
// metric is emulated instances per second of wall time.
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
// the straggler test's injected straggler. It honors cancellation, like a real
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
// straggler test's baseline: the jobs split statically into equal
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

// TestDistStragglerRescued pins what speculative re-execution buys with one
// of four workers 40 ms slow per execute: the barrier baseline waits for
// every part the straggler holds in turn (≈160 ms), while the stealing
// coordinator re-runs the straggler's chunks on the fast workers and
// finishes in a few milliseconds. A change that reintroduces head-of-line
// blocking pushes steal mode past a quarter of the barrier's wall time.
func TestDistStragglerRescued(t *testing.T) {
	if testing.Short() {
		t.Skip("times two dispatch disciplines against a 40 ms straggler")
	}
	st := seedStore(t, "mdsim", "sleep")
	spec := stragglerSpec()
	ctx := context.Background()
	mkFleet := func() []Worker {
		fleet := localFleet(4)
		fleet[0] = &delayedWorker{Worker: fleet[0], delay: 40 * time.Millisecond}
		return fleet
	}
	// wall times one run after an untimed warm-up that compiles every
	// session, so the modes compare dispatch discipline, not setup.
	wall := func(exec scenario.Executor) time.Duration {
		t.Helper()
		if _, err := scenario.Run(ctx, spec, st, scenario.RunOptions{Executor: exec}); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if _, err := scenario.Run(ctx, spec, st, scenario.RunOptions{Executor: exec}); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	barrier, err := newBarrierExecutor(ctx, spec, st, mkFleet(), 16)
	if err != nil {
		t.Fatal(err)
	}
	co, err := NewCoordinator(ctx, spec, st, Config{
		Workers: mkFleet(), ChunkSize: 8, StealAfter: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	barrierWall, stealWall := wall(barrier), wall(co)
	t.Logf("barrier %v, steal %v", barrierWall, stealWall)
	if stealWall*4 >= barrierWall {
		t.Errorf("steal mode took %v, want under a quarter of barrier mode's %v", stealWall, barrierWall)
	}
	if s := co.Stats(); s.Steals < 1 {
		t.Errorf("no chunk was stolen from the straggler: %+v", s)
	}
}
