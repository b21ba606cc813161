package dist

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"synapse/internal/core"
	"synapse/internal/profile"
	"synapse/internal/retry"
	"synapse/internal/scenario"
	"synapse/internal/store"
)

// seedStore profiles the named commands into a fresh in-memory store, with
// the same profiling parameters the scenario package's tests use — the
// goldens under ../scenario/testdata were captured against these profiles.
func seedStore(tb testing.TB, cmds ...string) store.Store {
	tb.Helper()
	st := store.NewMem()
	for _, cmd := range cmds {
		_, err := core.ProfileCommandString(context.Background(), cmd, nil, core.ProfileOptions{
			Machine:    "thinkie",
			SampleRate: 1,
			Store:      st,
			Seed:       7,
		})
		if err != nil {
			tb.Fatalf("profiling %q: %v", cmd, err)
		}
	}
	return st
}

// loadSpec loads one of the scenario package's golden specs by base name.
func loadSpec(tb testing.TB, name string) *scenario.Spec {
	tb.Helper()
	spec, err := scenario.Load(filepath.Join("..", "scenario", "testdata", name+".spec.json"))
	if err != nil {
		tb.Fatal(err)
	}
	return spec
}

// localFleet builds n in-process workers.
func localFleet(n int) []Worker {
	fleet := make([]Worker, n)
	for i := range fleet {
		fleet[i] = NewLocalWorker(fmt.Sprintf("local-%d", i), 2)
	}
	return fleet
}

// fastRetry is a retry policy tight enough for failure-injection tests.
func fastRetry() *retry.Policy {
	p := retry.Default()
	p.Attempts = 2
	p.BaseDelay = time.Millisecond
	p.MaxDelay = 5 * time.Millisecond
	return &p
}

// jitteredSpec is an eager (clusterless) spec whose per-instance loads are
// arbitrary float64 draws — the adversarial input for the load-bits wire
// encoding.
func jitteredSpec() *scenario.Spec {
	return &scenario.Spec{
		Version:       scenario.SpecVersion,
		Name:          "dist-jitter",
		Seed:          421,
		MaxConcurrent: 4,
		Workloads: []scenario.Workload{
			{
				Name:    "md",
				Profile: scenario.ProfileRef{Command: "mdsim", Tags: map[string]string{"steps": "10000"}},
				Arrival: scenario.Arrival{Process: scenario.ArrivalClosed, Clients: 3, Iterations: 4},
				Emulation: scenario.Emulation{
					Machine:    "stampede",
					Load:       0.3,
					LoadJitter: 0.25,
				},
			},
			{
				Name:    "nap",
				Profile: scenario.ProfileRef{Command: "sleep", Tags: map[string]string{"seconds": "1"}},
				Arrival: scenario.Arrival{Process: scenario.ArrivalConstant, Rate: 2, Count: 6},
				Emulation: scenario.Emulation{
					Machine:    "comet",
					Load:       0.1,
					LoadJitter: 0.05,
				},
			},
		},
	}
}

// TestPlanTilesJobsInOrder pins the dispatch plan: for any job count and
// chunk size the chunks tile [0,n) exactly once in ascending order, none
// exceeds the chunk size, and each payload is a window onto the caller's
// slice — no copy.
func TestPlanTilesJobsInOrder(t *testing.T) {
	st := seedStore(t, "mdsim", "sleep")
	co := mustCoordinator(t, jitteredSpec(), st, Config{Workers: localFleet(1)})
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(5001)
		if trial < 10 {
			n = trial / 5 // every chunk-size case at n = 0 and n = 1
		}
		jobs := make([]scenario.Job, n)
		size := []int{1, max(n, 1), n + 1, -1, 1 + rng.Intn(300)}[trial%5]
		co.chunkSize = size
		co.plan(jobs)
		limit := size
		if size < 0 {
			limit = n // one chunk per dispatch
		}
		next := 0
		for i := range co.scratch.chunks {
			c := &co.scratch.chunks[i]
			if c.first != next {
				t.Fatalf("n %d, chunk size %d: chunk %d starts at %d, want %d", n, size, i, c.first, next)
			}
			if len(c.jobs) == 0 || len(c.jobs) > limit {
				t.Fatalf("n %d, chunk size %d: chunk %d holds %d jobs", n, size, i, len(c.jobs))
			}
			if &c.jobs[0] != &jobs[c.first] {
				t.Fatalf("n %d, chunk size %d: chunk %d's payload is a copy", n, size, i)
			}
			next += len(c.jobs)
		}
		if next != n {
			t.Fatalf("n %d, chunk size %d: chunks cover [0,%d)", n, size, next)
		}
	}
}

func TestSessionsEviction(t *testing.T) {
	st := seedStore(t, "mdsim", "sleep")
	spec := jitteredSpec()
	profs, err := scenario.ResolveProfiles(context.Background(), spec, st)
	if err != nil {
		t.Fatal(err)
	}
	ss := newSessions(2)
	ctx := context.Background()
	for _, id := range []string{"s1", "s2", "s3"} {
		if _, err := ss.compile(ctx, &CompileRequest{Session: id, Spec: spec, Profiles: profs}, 1); err != nil {
			t.Fatalf("compile %s: %v", id, err)
		}
	}
	if n := ss.len(); n != 2 {
		t.Fatalf("sessions held = %d, want 2 (cap)", n)
	}
	if _, err := ss.get("s1"); !errors.Is(err, ErrNoSession) {
		t.Fatalf("oldest session survived eviction: %v", err)
	}
	for _, id := range []string{"s2", "s3"} {
		if _, err := ss.get(id); err != nil {
			t.Fatalf("session %s evicted early: %v", id, err)
		}
	}
	// Recompiling a held session must not count as a new insertion.
	if _, err := ss.compile(ctx, &CompileRequest{Session: "s3", Spec: spec, Profiles: profs}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.get("s2"); err != nil {
		t.Fatalf("recompile of s3 evicted s2: %v", err)
	}
}

func TestSessionsExecuteValidation(t *testing.T) {
	st := seedStore(t, "mdsim", "sleep")
	spec := jitteredSpec()
	profs, err := scenario.ResolveProfiles(context.Background(), spec, st)
	if err != nil {
		t.Fatal(err)
	}
	ss := newSessions(0)
	ctx := context.Background()
	if _, err := ss.execute(ctx, &ExecuteRequest{Session: "nope"}); !errors.Is(err, ErrNoSession) {
		t.Fatalf("unknown session: %v, want ErrNoSession", err)
	}
	if _, err := ss.compile(ctx, &CompileRequest{Session: "s", Spec: spec, Profiles: profs}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.execute(ctx, &ExecuteRequest{Session: "s", Seed: spec.Seed + 1}); !errors.Is(err, ErrSeedMismatch) {
		t.Fatalf("mismatched seed: %v, want ErrSeedMismatch", err)
	}
	if _, err := ss.execute(ctx, &ExecuteRequest{Session: "s", Seed: spec.Seed}); err != nil {
		t.Fatalf("well-formed empty chunk: %v", err)
	}
}

func TestSessionsCompileValidation(t *testing.T) {
	st := seedStore(t, "mdsim", "sleep")
	spec := jitteredSpec()
	profs, err := scenario.ResolveProfiles(context.Background(), spec, st)
	if err != nil {
		t.Fatal(err)
	}
	ss := newSessions(0)
	ctx := context.Background()
	cases := []struct {
		name string
		req  *CompileRequest
	}{
		{"empty session id", &CompileRequest{Spec: spec, Profiles: profs}},
		{"no spec", &CompileRequest{Session: "s"}},
		{"profile count mismatch", &CompileRequest{Session: "s", Spec: spec, Profiles: profs[:1]}},
		{"nil profile", &CompileRequest{Session: "s", Spec: spec, Profiles: []*profile.Profile{nil, nil}}},
	}
	for _, tc := range cases {
		if _, err := ss.compile(ctx, tc.req, 1); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: %v, want ErrInvalid", tc.name, err)
		}
	}
}

func TestCoordinatorValidation(t *testing.T) {
	st := seedStore(t, "mdsim", "sleep")
	ctx := context.Background()
	if _, err := NewCoordinator(ctx, jitteredSpec(), st, Config{}); err == nil {
		t.Fatal("empty fleet accepted")
	}
	bad := jitteredSpec()
	bad.Workloads = nil
	if _, err := NewCoordinator(ctx, bad, st, Config{Workers: localFleet(1)}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	co, err := NewCoordinator(ctx, jitteredSpec(), st, Config{Workers: localFleet(3)})
	if err != nil {
		t.Fatal(err)
	}
	if got := co.ChunkSize(); got != defaultChunkSize {
		t.Fatalf("default chunk size = %d, want %d", got, defaultChunkSize)
	}
	if s := co.Stats(); s.LiveWorkers != 3 || s.Jobs != 0 {
		t.Fatalf("fresh stats = %+v", s)
	}
}

// skewedWorker compiles the coordinator's session under a different seed —
// the two sides disagreeing about (spec, seed) — and passes executes through.
type skewedWorker struct {
	Worker
	executes atomic.Int64
}

func (w *skewedWorker) Compile(ctx context.Context, req *CompileRequest) error {
	skewed := *req
	spec := *req.Spec
	spec.Seed++
	skewed.Spec = &spec
	return w.Worker.Compile(ctx, &skewed)
}

func (w *skewedWorker) Execute(ctx context.Context, req *ExecuteRequest) ([]*scenario.Outcome, error) {
	w.executes.Add(1)
	return w.Worker.Execute(ctx, req)
}

// assertSeedMismatchTerminal runs a coordinator against a worker whose
// session compiled a different seed: the handshake must refuse the first
// chunk, and the refusal is terminal — no retry, the worker is not marked
// dead, and nothing reaches the fold.
func assertSeedMismatchTerminal(t *testing.T, inner Worker) {
	t.Helper()
	st := seedStore(t, "mdsim", "sleep")
	spec := jitteredSpec()
	w := &skewedWorker{Worker: inner}
	co := mustCoordinator(t, spec, st, Config{Workers: []Worker{w}, Retry: fastRetry()})
	folded := 0
	err := co.ExecuteJobsStream(context.Background(), make([]scenario.Job, 5), func(_ int, outs []*scenario.Outcome) error {
		folded += len(outs)
		return nil
	})
	if !errors.Is(err, ErrSeedMismatch) {
		t.Fatalf("err = %v, want ErrSeedMismatch", err)
	}
	if n := w.executes.Load(); n != 1 {
		t.Errorf("worker saw %d execute calls, want 1 (a seed mismatch is not retried)", n)
	}
	if folded != 0 {
		t.Errorf("%d outcomes folded past a seed mismatch", folded)
	}
	if s := co.Stats(); s.WorkerFailures != 0 || s.LiveWorkers != 1 {
		t.Errorf("seed mismatch marked the worker dead: %+v", s)
	}
}

// TestSeedMismatchTerminal is the handshake through LocalWorker, the
// protocol with the transport removed; TestHTTPSeedMismatch is the wire's.
func TestSeedMismatchTerminal(t *testing.T) {
	assertSeedMismatchTerminal(t, NewLocalWorker("local", 1))
}
