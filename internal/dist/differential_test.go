package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"synapse/internal/scenario"
	"synapse/internal/store"
)

// marshalReport renders a report exactly as the scenario golden fixtures
// were written: indented JSON plus a trailing newline.
func marshalReport(tb testing.TB, rep *scenario.Report) []byte {
	tb.Helper()
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		tb.Fatal(err)
	}
	return append(b, '\n')
}

// timelineCSV renders the report's timeline, or nil when it has none.
func timelineCSV(tb testing.TB, rep *scenario.Report) []byte {
	tb.Helper()
	if rep.Timeline == nil {
		return nil
	}
	var buf bytes.Buffer
	if err := rep.TimelineCSV(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// runDist executes spec through a coordinator over the given fleet and
// returns the report plus the coordinator for stats assertions.
func runDist(tb testing.TB, spec *scenario.Spec, st store.Store, cfg Config) (*scenario.Report, *Coordinator) {
	tb.Helper()
	ctx := context.Background()
	co, err := NewCoordinator(ctx, spec, st, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	rep, err := scenario.Run(ctx, spec, st, scenario.RunOptions{Executor: co})
	if err != nil {
		tb.Fatal(err)
	}
	return rep, co
}

// TestDistGoldenByteIdentity is the differential gate this package exists
// to pass: every golden scenario, distributed over in-process fleets of 1,
// 2, 4 and 8 workers, must reproduce the committed single-process golden
// report — and timeline CSV, where the spec has one — byte for byte. A diff
// here means chunking, the wire encoding, or the fold changed observable
// semantics, not just internals.
func TestDistGoldenByteIdentity(t *testing.T) {
	specs, err := filepath.Glob(filepath.Join("..", "scenario", "testdata", "*.spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) < 3 {
		t.Fatalf("expected at least 3 golden specs, found %d", len(specs))
	}
	st := seedStore(t, "mdsim", "sleep")
	for _, specPath := range specs {
		name := strings.TrimSuffix(filepath.Base(specPath), ".spec.json")
		t.Run(name, func(t *testing.T) {
			spec, err := scenario.Load(specPath)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("..", "scenario", "testdata", name+".golden.json"))
			if err != nil {
				t.Fatalf("missing scenario golden: %v", err)
			}
			var wantCSV []byte
			csvPath := filepath.Join("..", "scenario", "testdata", name+".timeline.golden.csv")
			if b, err := os.ReadFile(csvPath); err == nil {
				wantCSV = b
			}
			for _, fleet := range []int{1, 2, 4, 8} {
				// Defaults, then aggressive chunking + speculation:
				// scheduling config must never reach the report.
				for _, variant := range []struct {
					name string
					cfg  Config
				}{
					{"defaults", Config{Workers: localFleet(fleet)}},
					{"chunked", Config{Workers: localFleet(fleet), ChunkSize: 2,
						StealAfter: 20 * time.Millisecond}},
				} {
					rep, co := runDist(t, spec, st, variant.cfg)
					if got := marshalReport(t, rep); !bytes.Equal(got, want) {
						t.Errorf("fleet %d (%s): report diverged from single-process golden\ngot:\n%s\nwant:\n%s",
							fleet, variant.name, got, want)
					}
					gotCSV := timelineCSV(t, rep)
					if (gotCSV == nil) != (wantCSV == nil) {
						t.Fatalf("fleet %d (%s): timeline presence mismatch (got %v, golden %v)",
							fleet, variant.name, gotCSV != nil, wantCSV != nil)
					}
					if gotCSV != nil && !bytes.Equal(gotCSV, wantCSV) {
						t.Errorf("fleet %d (%s): timeline CSV diverged from golden\ngot:\n%s\nwant:\n%s",
							fleet, variant.name, gotCSV, wantCSV)
					}
					if s := co.Stats(); s.Jobs == 0 || s.RPCs == 0 {
						t.Errorf("fleet %d (%s): coordinator did no work: %+v", fleet, variant.name, s)
					} else if s.WorkerFailures != 0 {
						t.Errorf("fleet %d (%s): unexpected worker failures: %+v", fleet, variant.name, s)
					}
				}
			}
		})
	}
}

// TestDistMatchesLocalRun extends byte-identity to a jittered eager spec:
// per-instance float64 loads exercise the load-bits job encoding, and odd
// chunk sizes put the chunk boundaries everywhere in the job order — with
// and without a worker dying mid-run.
func TestDistMatchesLocalRun(t *testing.T) {
	st := seedStore(t, "mdsim", "sleep")
	spec := jitteredSpec()
	local, err := scenario.Run(context.Background(), spec, st, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := marshalReport(t, local)
	for _, fleet := range []int{1, 2, 4, 8} {
		for _, chunk := range []int{1, 2, 7, 0} {
			for _, death := range []bool{false, true} {
				if death && fleet == 1 {
					continue // nobody would survive to finish the run
				}
				cfg := Config{Workers: localFleet(fleet), ChunkSize: chunk, Retry: fastRetry()}
				if chunk != 0 {
					cfg.StealAfter = 20 * time.Millisecond
				}
				if death {
					cfg.Workers[fleet-1] = &dyingWorker{Worker: cfg.Workers[fleet-1], dieAfter: 1}
				}
				rep, _ := runDist(t, spec, st, cfg)
				if got := marshalReport(t, rep); !bytes.Equal(got, want) {
					t.Errorf("fleet %d, chunk %d, death %v: distributed report != local run\ngot:\n%s\nwant:\n%s",
						fleet, chunk, death, got, want)
				}
			}
		}
	}
}

// dyingWorker passes through to its inner worker for the first dieAfter
// Execute calls, then fails every one — a worker crash as the coordinator
// observes it. killed, when set, is closed at the first failing call.
type dyingWorker struct {
	Worker
	mu       sync.Mutex
	calls    int
	dieAfter int
	killed   chan struct{}
}

func (d *dyingWorker) Execute(ctx context.Context, req *ExecuteRequest) ([]*scenario.Outcome, error) {
	d.mu.Lock()
	d.calls++
	n := d.calls
	if n == d.dieAfter+1 && d.killed != nil {
		close(d.killed)
	}
	d.mu.Unlock()
	if n > d.dieAfter {
		return nil, fmt.Errorf("injected worker crash (call %d)", n)
	}
	return d.Worker.Execute(ctx, req)
}

func (d *dyingWorker) executeCalls() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.calls
}

// latchedWorker holds every Execute until latch closes. The pull scheduler
// hands chunks to whoever is idle, so an unlatched healthy fleet can drain
// a short queue before the dying worker returns for the chunk that kills
// it; latching the healthy workers on the kill makes it happen every run.
type latchedWorker struct {
	Worker
	latch <-chan struct{}
}

func (l *latchedWorker) Execute(ctx context.Context, req *ExecuteRequest) ([]*scenario.Outcome, error) {
	select {
	case <-l.latch:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return l.Worker.Execute(ctx, req)
}

// bigJitteredSpec has enough distinct jobs that every worker in a fleet of
// four receives several small chunks in one ExecuteJobs round.
func bigJitteredSpec() *scenario.Spec {
	spec := jitteredSpec()
	spec.Name = "dist-jitter-big"
	spec.Workloads[0].Arrival = scenario.Arrival{Process: scenario.ArrivalClosed, Clients: 4, Iterations: 5}
	spec.Workloads[1].Arrival = scenario.Arrival{Process: scenario.ArrivalConstant, Rate: 2, Count: 8}
	return spec
}

// TestDistWorkerKillReassignment is the failure half of the differential
// contract: a worker that dies mid-run loses its chunks to the survivors,
// the chunks are recomputed, and the merged report is still byte-identical
// to the no-failure run.
func TestDistWorkerKillReassignment(t *testing.T) {
	st := seedStore(t, "mdsim", "sleep")
	spec := bigJitteredSpec()
	local, err := scenario.Run(context.Background(), spec, st, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := marshalReport(t, local)

	for _, variant := range []struct {
		name string
		cfg  Config
	}{
		// The spec's one dispatch is smaller than the default chunk, so even
		// "defaults" (adaptive speculation) picks a chunk size that gives
		// the dying worker a second chunk to die on.
		{"defaults", Config{Retry: fastRetry(), ChunkSize: 3}},
		{"chunked", Config{Retry: fastRetry(), ChunkSize: 2,
			StealAfter: 20 * time.Millisecond}},
	} {
		t.Run(variant.name, func(t *testing.T) {
			dying := &dyingWorker{Worker: NewLocalWorker("dying", 2), dieAfter: 1, killed: make(chan struct{})}
			cfg := variant.cfg
			cfg.Workers = []Worker{dying}
			for _, w := range localFleet(3) {
				cfg.Workers = append(cfg.Workers, &latchedWorker{Worker: w, latch: dying.killed})
			}
			rep, co := runDist(t, spec, st, cfg)
			if got := marshalReport(t, rep); !bytes.Equal(got, want) {
				t.Errorf("report after worker kill diverged from clean run\ngot:\n%s\nwant:\n%s", got, want)
			}
			if n := dying.executeCalls(); n <= dying.dieAfter {
				t.Fatalf("dying worker saw %d execute calls; the kill never triggered", n)
			}
			s := co.Stats()
			if s.WorkerFailures != 1 {
				t.Errorf("worker failures = %d, want 1: %+v", s.WorkerFailures, s)
			}
			if s.RecomputedChunks == 0 {
				t.Errorf("no chunks recomputed after the kill: %+v", s)
			}
			if s.LiveWorkers != 3 {
				t.Errorf("live workers = %d, want 3: %+v", s.LiveWorkers, s)
			}
		})
	}
}

// TestDistAllWorkersDead: when the whole fleet dies the run fails with
// ErrNoWorkers instead of hanging or folding a partial report.
func TestDistAllWorkersDead(t *testing.T) {
	st := seedStore(t, "mdsim", "sleep")
	spec := jitteredSpec()
	fleet := []Worker{
		&dyingWorker{Worker: NewLocalWorker("d0", 1)},
		&dyingWorker{Worker: NewLocalWorker("d1", 1)},
	}
	ctx := context.Background()
	co, err := NewCoordinator(ctx, spec, st, Config{Workers: fleet, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	_, err = scenario.Run(ctx, spec, st, scenario.RunOptions{Executor: co})
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
	if s := co.Stats(); s.LiveWorkers != 0 || s.WorkerFailures != 2 {
		t.Errorf("stats after total fleet loss = %+v", s)
	}
}
