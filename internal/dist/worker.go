package dist

import (
	"context"
	"fmt"
	"sync"

	"synapse/internal/scenario"
	"synapse/internal/store"
)

// Worker is one fleet member as the coordinator sees it: compile a session,
// execute chunks against it. Implementations: LocalWorker (in-process),
// HTTPWorker (a synapse-worker daemon). The contract is purity — Execute's
// outcomes depend only on the compiled (spec, profiles) and the jobs, so
// the coordinator may send any chunk to any worker, in any order, any
// number of times.
type Worker interface {
	// Name identifies the worker in logs and errors.
	Name() string
	// Compile builds (or rebuilds — it is idempotent) the session.
	Compile(ctx context.Context, req *CompileRequest) error
	// Execute resolves one chunk's jobs, returning outcomes in job order.
	// ErrNoSession means the worker lost the session (restart/eviction);
	// the coordinator recompiles and retries.
	Execute(ctx context.Context, req *ExecuteRequest) ([]*scenario.Outcome, error)
}

// sessions is the bounded session table shared by LocalWorker and
// WorkerServer: compile registers, execute looks up, and the oldest session
// is evicted past the cap (coordinators recover from eviction via
// ErrNoSession, so the cap bounds memory, not correctness).
type sessions struct {
	mu    sync.Mutex
	max   int
	byID  map[string]*scenario.JobRunner // one compiled scenario per session
	order []string                       // insertion order, for eviction
}

func newSessions(max int) *sessions {
	if max <= 0 {
		max = 4
	}
	return &sessions{max: max, byID: make(map[string]*scenario.JobRunner)}
}

// compile validates req, builds the runner, and registers the session.
func (ss *sessions) compile(ctx context.Context, req *CompileRequest, workers int) (*scenario.JobRunner, error) {
	if req.Session == "" {
		return nil, fmt.Errorf("%w: empty session id", ErrInvalid)
	}
	if req.Spec == nil {
		return nil, fmt.Errorf("%w: no spec", ErrInvalid)
	}
	if len(req.Profiles) != len(req.Spec.Workloads) {
		return nil, fmt.Errorf("%w: %d profiles for %d workloads",
			ErrInvalid, len(req.Profiles), len(req.Spec.Workloads))
	}
	// Seed a private store with the shipped profiles: the runner resolves
	// exactly what the coordinator resolved, via the normal compile path.
	st := store.NewMem()
	for i, p := range req.Profiles {
		if p == nil {
			return nil, fmt.Errorf("%w: nil profile for workload %d", ErrInvalid, i)
		}
		if err := st.Put(p); err != nil {
			return nil, fmt.Errorf("%w: profile for workload %d: %v", ErrInvalid, i, err)
		}
	}
	runner, err := scenario.NewJobRunner(ctx, req.Spec, st, workers)
	if err != nil {
		return nil, fmt.Errorf("%w: compile: %v", ErrInvalid, err)
	}
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if _, ok := ss.byID[req.Session]; !ok {
		ss.order = append(ss.order, req.Session)
		for len(ss.order) > ss.max {
			delete(ss.byID, ss.order[0])
			ss.order = ss.order[1:]
		}
	}
	ss.byID[req.Session] = runner
	return runner, nil
}

// get returns the session or ErrNoSession.
func (ss *sessions) get(id string) (*scenario.JobRunner, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if r, ok := ss.byID[id]; ok {
		return r, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrNoSession, id)
}

// len reports the number of live sessions.
func (ss *sessions) len() int {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return len(ss.byID)
}

// lookup resolves an execute request to its session's runner, enforcing the
// determinism handshake: the coordinator's seed must be the one this worker
// compiled. Validation happens here, before any outcome is produced, so the
// server can still fail with a proper pre-stream status.
func (ss *sessions) lookup(req *ExecuteRequest) (*scenario.JobRunner, error) {
	r, err := ss.get(req.Session)
	if err != nil {
		return nil, err
	}
	if seed := r.Seed(); req.Seed != seed {
		return nil, fmt.Errorf("%w: request carries seed %d, this worker compiled %d (differing spec or seed)",
			ErrSeedMismatch, req.Seed, seed)
	}
	return r, nil
}

// execute runs one chunk against a held session.
func (ss *sessions) execute(ctx context.Context, req *ExecuteRequest) ([]*scenario.Outcome, error) {
	r, err := ss.lookup(req)
	if err != nil {
		return nil, err
	}
	return r.ExecuteJobs(ctx, req.Jobs)
}

// LocalWorker executes chunks in process: the worker protocol with the
// transport removed. Tests and single-host fan-out use it directly; it is
// also the execution core WorkerServer serves over HTTP.
type LocalWorker struct {
	name     string
	workers  int
	sessions *sessions
}

// NewLocalWorker returns an in-process worker. workers bounds its emulation
// fan-out (0 = GOMAXPROCS).
func NewLocalWorker(name string, workers int) *LocalWorker {
	return &LocalWorker{name: name, workers: workers, sessions: newSessions(0)}
}

// Name implements Worker.
func (w *LocalWorker) Name() string { return w.name }

// Compile implements Worker.
func (w *LocalWorker) Compile(ctx context.Context, req *CompileRequest) error {
	_, err := w.sessions.compile(ctx, req, w.workers)
	return err
}

// Execute implements Worker.
func (w *LocalWorker) Execute(ctx context.Context, req *ExecuteRequest) ([]*scenario.Outcome, error) {
	return w.sessions.execute(ctx, req)
}
