package dist

import (
	"bytes"
	"context"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"synapse/internal/scenario"
)

// slowWorker delays every Execute by a fixed amount and ignores
// cancellation — a straggler that always delivers, so the coordinator's
// late-loser verification path actually runs.
type slowWorker struct {
	Worker
	delay time.Duration
}

func (s *slowWorker) Execute(ctx context.Context, req *ExecuteRequest) ([]*scenario.Outcome, error) {
	time.Sleep(s.delay)
	return s.Worker.Execute(context.WithoutCancel(ctx), req)
}

// obedientSlowWorker is a straggler that honors cancellation — the normal
// remote worker shape, whose stolen chunks abort the moment the speculative
// twin commits.
type obedientSlowWorker struct {
	Worker
	delay time.Duration
}

func (s *obedientSlowWorker) Execute(ctx context.Context, req *ExecuteRequest) ([]*scenario.Outcome, error) {
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return s.Worker.Execute(ctx, req)
}

// evilWorker is a slowWorker that additionally perturbs its first outcome —
// a nondeterministic worker, which the speculation race must detect rather
// than silently fold.
type evilWorker struct {
	slowWorker
}

func (e *evilWorker) Execute(ctx context.Context, req *ExecuteRequest) ([]*scenario.Outcome, error) {
	outs, err := e.slowWorker.Execute(ctx, req)
	if err != nil || len(outs) == 0 {
		return outs, err
	}
	perturbed := *outs[0]
	perturbed.Tx += time.Nanosecond
	outs[0] = &perturbed
	return outs, nil
}

// countingWorker counts compile RPCs, for the session-affinity regression.
type countingWorker struct {
	Worker
	compiles atomic.Int64
}

func (c *countingWorker) Compile(ctx context.Context, req *CompileRequest) error {
	c.compiles.Add(1)
	return c.Worker.Compile(ctx, req)
}

// twoChunks is the chunk size that tiles an eager spec's one dispatch into
// exactly two chunks: half the distinct jobs (local.Replays), rounded up.
func twoChunks(local *scenario.Report) int { return (local.Replays + 1) / 2 }

// slowFailWorker compiles fine but fails every Execute after a delay — a
// worker that accepts a session and then takes its chunks down with it.
type slowFailWorker struct {
	Worker
	delay time.Duration
}

func (s *slowFailWorker) Execute(ctx context.Context, req *ExecuteRequest) ([]*scenario.Outcome, error) {
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return nil, context.DeadlineExceeded // transient-looking, exhausts the policy
}

// TestDistStealRaceFirstCompleteWins is the speculation property test: with
// one straggling worker and one fast one, the straggler's chunk is stolen
// after the threshold, the speculative copy wins, the straggler's late
// result is verified byte-equal and discarded — and the report is still
// byte-identical to the local run.
func TestDistStealRaceFirstCompleteWins(t *testing.T) {
	st := seedStore(t, "mdsim", "sleep")
	spec := jitteredSpec()
	local, err := scenario.Run(context.Background(), spec, st, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := marshalReport(t, local)

	slow := &slowWorker{Worker: NewLocalWorker("slow", 2), delay: 400 * time.Millisecond}
	fleet := []Worker{slow, NewLocalWorker("fast", 2)}
	rep, co := runDist(t, spec, st, Config{
		Workers:    fleet,
		ChunkSize:  twoChunks(local), // at most one chunk per worker
		StealAfter: 30 * time.Millisecond,
	})
	if got := marshalReport(t, rep); !bytes.Equal(got, want) {
		t.Errorf("report with speculation diverged from local run\ngot:\n%s\nwant:\n%s", got, want)
	}
	s := co.Stats()
	if s.Steals != 1 || s.SpeculativeWins != 1 {
		t.Errorf("steals = %d, speculative wins = %d, want 1 and 1: %+v", s.Steals, s.SpeculativeWins, s)
	}
	if s.SpeculativeDiscards != 1 {
		t.Errorf("speculative discards = %d, want 1 (straggler's late result verified and dropped): %+v",
			s.SpeculativeDiscards, s)
	}
	if s.WorkerFailures != 0 {
		t.Errorf("speculation marked a worker dead: %+v", s)
	}
}

// TestDistStealCancelsLoser pins the wall-clock half of speculation: when
// the straggler honors cancellation, the run finishes as soon as the
// speculative copy commits instead of waiting out the straggler — and the
// loser's abort is not mistaken for a worker failure.
func TestDistStealCancelsLoser(t *testing.T) {
	st := seedStore(t, "mdsim", "sleep")
	spec := jitteredSpec()
	local, err := scenario.Run(context.Background(), spec, st, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := marshalReport(t, local)

	slow := &obedientSlowWorker{Worker: NewLocalWorker("slow", 2), delay: 5 * time.Second}
	fleet := []Worker{slow, NewLocalWorker("fast", 2)}
	t0 := time.Now()
	rep, co := runDist(t, spec, st, Config{
		Workers:    fleet,
		ChunkSize:  twoChunks(local),
		StealAfter: 30 * time.Millisecond,
	})
	if elapsed := time.Since(t0); elapsed >= slow.delay {
		t.Errorf("run took %v, at least the straggler's full %v delay: the loser was never cancelled",
			elapsed, slow.delay)
	}
	if got := marshalReport(t, rep); !bytes.Equal(got, want) {
		t.Errorf("report after loser cancellation diverged from local run\ngot:\n%s\nwant:\n%s", got, want)
	}
	s := co.Stats()
	if s.Steals != 1 || s.SpeculativeWins != 1 {
		t.Errorf("steals = %d, speculative wins = %d, want 1 and 1: %+v", s.Steals, s.SpeculativeWins, s)
	}
	if s.SpeculativeDiscards != 0 {
		t.Errorf("speculative discards = %d, want 0 (cancelled loser returned nothing to verify): %+v",
			s.SpeculativeDiscards, s)
	}
	if s.WorkerFailures != 0 {
		t.Errorf("cancelled loser was marked a worker failure: %+v", s)
	}
}

// TestDistStealNondeterminismDetected: when the two copies of a raced chunk
// disagree, the coordinator must refuse to fold — a hard error, not a coin
// flip on which copy wins.
func TestDistStealNondeterminismDetected(t *testing.T) {
	st := seedStore(t, "mdsim", "sleep")
	spec := jitteredSpec()
	local, err := scenario.Run(context.Background(), spec, st, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	evil := &evilWorker{slowWorker{Worker: NewLocalWorker("evil", 2), delay: 400 * time.Millisecond}}
	fleet := []Worker{evil, NewLocalWorker("fast", 2)}
	ctx := context.Background()
	co, err := NewCoordinator(ctx, spec, st, Config{
		Workers:    fleet,
		ChunkSize:  twoChunks(local),
		StealAfter: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = scenario.Run(ctx, spec, st, scenario.RunOptions{Executor: co})
	if err == nil || !strings.Contains(err.Error(), "nondeterministic") {
		t.Fatalf("divergent speculation outcome folded silently: err = %v", err)
	}
}

// TestDistAffinityPrefersWarmWorker pins the session-affinity rule: when a
// worker dies and its chunk is requeued, it goes to an idle worker that
// already compiled the session, not to a cold one — so a death costs zero
// extra compile RPCs while a warm worker is free.
func TestDistAffinityPrefersWarmWorker(t *testing.T) {
	st := seedStore(t, "mdsim", "sleep")
	spec := jitteredSpec()
	local, err := scenario.Run(context.Background(), spec, st, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := marshalReport(t, local)

	// w0 takes a chunk and dies slowly; w1 finishes its chunk fast and is
	// warm when the requeue happens; w2 must stay cold and uncompiled.
	dying := &slowFailWorker{Worker: NewLocalWorker("dying", 2), delay: 120 * time.Millisecond}
	cold := &countingWorker{Worker: NewLocalWorker("cold", 2)}
	fleet := []Worker{dying, NewLocalWorker("warm", 2), cold}
	rep, co := runDist(t, spec, st, Config{
		Workers:    fleet,
		ChunkSize:  twoChunks(local), // exactly two chunks: w2 gets no initial work
		StealAfter: -1,               // isolate reassignment from speculation
		Retry:      fastRetry(),
	})
	if got := marshalReport(t, rep); !bytes.Equal(got, want) {
		t.Errorf("report after warm reassignment diverged from local run\ngot:\n%s\nwant:\n%s", got, want)
	}
	if n := cold.compiles.Load(); n != 0 {
		t.Errorf("cold worker compiled %d times; the warm worker should have taken the requeued chunk", n)
	}
	s := co.Stats()
	if s.Compiles != 2 {
		t.Errorf("compiles = %d, want 2 (dying + warm, never cold): %+v", s.Compiles, s)
	}
	if s.WorkerFailures != 1 || s.RecomputedChunks == 0 {
		t.Errorf("death not observed as one failure + requeue: %+v", s)
	}
}

// plainExecutor hides the coordinator's streaming face, forcing the scenario
// engine down the collect-everything ExecuteJobs path.
type plainExecutor struct{ scenario.Executor }

// TestDistPlainAndStreamingFacesAgree: the same coordinator behind a plain
// Executor (streaming face hidden) produces, through the collect path, the
// report its streaming face and the local run produce — byte for byte.
func TestDistPlainAndStreamingFacesAgree(t *testing.T) {
	st := seedStore(t, "mdsim", "sleep")
	spec := bigJitteredSpec() // 36 jobs: nine chunks across two workers
	local, err := scenario.Run(context.Background(), spec, st, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := marshalReport(t, local)

	cfg := Config{Workers: localFleet(2), ChunkSize: 4, StealAfter: -1}
	rep, _ := runDist(t, spec, st, cfg)
	if got := marshalReport(t, rep); !bytes.Equal(got, want) {
		t.Errorf("streaming report diverged from local run\ngot:\n%s\nwant:\n%s", got, want)
	}

	co2 := mustCoordinator(t, spec, st, cfg)
	rep2, err := scenario.Run(context.Background(), spec, st, scenario.RunOptions{Executor: plainExecutor{co2}})
	if err != nil {
		t.Fatal(err)
	}
	if got := marshalReport(t, rep2); !bytes.Equal(got, want) {
		t.Errorf("non-streaming executor path diverged from local run\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestDistPlanAllocFree pins the pooled dispatch scratch: after warmup,
// re-planning the same dispatch allocates nothing, so a clustered scenario's
// per-instant dispatches do not churn the heap.
func TestDistPlanAllocFree(t *testing.T) {
	st := seedStore(t, "mdsim", "sleep")
	co := mustCoordinator(t, jitteredSpec(), st, Config{Workers: localFleet(2), ChunkSize: 3})
	jobs := make([]scenario.Job, 100)
	for i := range jobs {
		jobs[i] = scenario.Job{
			Workload: i % 2,
			LoadBits: math.Float64bits(0.001 * float64(i+1)),
		}
	}
	co.plan(jobs) // warm the scratch
	if allocs := testing.AllocsPerRun(100, func() { co.plan(jobs) }); allocs != 0 {
		t.Errorf("plan allocates %.1f objects per dispatch after warmup, want 0", allocs)
	}
}
