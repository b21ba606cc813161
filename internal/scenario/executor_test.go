package scenario

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"testing"
	"time"

	"synapse/internal/cluster"
)

// TestJobRunnerCompileIgnoresInstanceCount: a worker compiles whatever spec
// a coordinator sends, so a JobRunner's cost must follow the spec's text,
// not the instance count it declares. A 10⁹-instance spec compiles as fast
// and as small as a 16-instance one — it would take minutes and gigabytes
// if the runner enumerated instances — and still executes a job bit-equal.
func TestJobRunnerCompileIgnoresInstanceCount(t *testing.T) {
	st := seedStore(t, "mdsim", "sleep")
	ctx := context.Background()
	huge := mixSpec()
	huge.Workloads[0].Arrival = Arrival{Process: ArrivalClosed, Clients: 1_000_000, Iterations: 1000}

	compile := func(spec *Spec) (*JobRunner, uint64, time.Duration) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		r, err := NewJobRunner(ctx, spec, st, 1)
		elapsed := time.Since(t0)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return r, after.TotalAlloc - before.TotalAlloc, elapsed
	}
	small, smallBytes, _ := compile(mixSpec())
	big, bigBytes, elapsed := compile(huge)
	if elapsed > time.Second {
		t.Errorf("compiling a 10⁹-instance spec took %v, want well under a second", elapsed)
	}
	if bigBytes > smallBytes+1<<20 {
		t.Errorf("compiling a 10⁹-instance spec allocated %d bytes, the 16-instance one %d: more than 1 MB beyond its profiles",
			bigBytes, smallBytes)
	}

	jobs := []Job{{Workload: 1, LoadBits: math.Float64bits(0.25)}}
	want, err := small.ExecuteJobs(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := big.ExecuteJobs(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if *got[0] != *want[0] {
		t.Errorf("huge-spec runner's outcome %+v differs from the small-spec runner's %+v", *got[0], *want[0])
	}
}

// TestJobTable pins the table's numbering: positions follow first sight, a
// repeated job adds nothing to the batch, and filling the table all at once
// (eager mode) or instant by instant (cluster mode) numbers one job sequence
// identically.
func TestJobTable(t *testing.T) {
	job := func(w int, load float64) Job { return Job{Workload: w, LoadBits: math.Float64bits(load)} }
	a, b, c := job(0, 0.1), job(1, 0.1), Job{Workload: 0, Machine: "comet", LoadBits: math.Float64bits(0.1)}
	seq := []Job{a, b, a, c, b, c, a}
	want := []int{0, 1, 0, 2, 1, 2, 0}

	eager := jobTable{index: map[Job]int{}}
	var all []Job
	for i, j := range seq {
		if pos := eager.add(j, &all); pos != want[i] {
			t.Errorf("eager: seq[%d] numbered %d, want %d", i, pos, want[i])
		}
	}
	if len(all) != 3 || all[0] != a || all[1] != b || all[2] != c {
		t.Errorf("eager batch = %v, want the three distinct jobs in first-seen order", all)
	}

	// Per-instant filling: the batch restarts every instant and carries only
	// the jobs no earlier instant numbered — the new tail of the table.
	instants := [][]Job{seq[:3], seq[3:5], seq[5:]}
	tails := [][]Job{{a, b}, {c}, nil}
	lazy := jobTable{index: map[Job]int{}}
	var batch []Job
	i := 0
	for n, inst := range instants {
		batch = batch[:0]
		for _, j := range inst {
			if pos := lazy.add(j, &batch); pos != want[i] {
				t.Errorf("per-instant: seq[%d] numbered %d, want %d", i, pos, want[i])
			}
			i++
		}
		if len(batch) != len(tails[n]) {
			t.Fatalf("instant %d batch = %v, want %v", n, batch, tails[n])
		}
		for k := range batch {
			if batch[k] != tails[n][k] {
				t.Errorf("instant %d batch = %v, want %v", n, batch, tails[n])
			}
		}
	}
}

// recordingExecutor counts how often each job is asked for and checks the
// batches Run hands it against the table contract: no job twice, ever.
type recordingExecutor struct {
	Executor
	seen  map[Job]int
	calls int
}

func (r *recordingExecutor) ExecuteJobs(ctx context.Context, jobs []Job) ([]*Outcome, error) {
	r.calls++
	for _, j := range jobs {
		r.seen[j]++
	}
	return r.Executor.ExecuteJobs(ctx, jobs)
}

// TestClusterResolvesEachJobOnce: in cluster mode the executor sees every
// distinct job exactly once across all instants — kill-and-retry placements
// that land on a (workload, machine, load) an earlier instant resolved reuse
// its outcome — and Report.Replays is that count.
func TestClusterResolvesEachJobOnce(t *testing.T) {
	st := seedStore(t, "mdsim", "sleep")
	spec := clusterSpec(cluster.PolicyLeastLoaded)
	spec.Cluster.Nodes[0].Count = 3
	spec.Events = &Events{
		Version: EventsVersion,
		Timeline: []ClusterEvent{
			{At: Duration(500 * time.Millisecond), Kind: EventNodeDown, Node: "node-0"},
			{At: Duration(3 * time.Second), Kind: EventNodeUp, Node: "node-0"},
		},
	}
	ctx := context.Background()
	runner, err := NewJobRunner(ctx, spec, st, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingExecutor{Executor: runner, seen: map[Job]int{}}
	rep, err := Run(ctx, spec, st, RunOptions{Executor: rec})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Killed == 0 {
		t.Fatal("the node failure killed nothing: the spec no longer exercises kill-and-retry")
	}
	if rec.calls < 2 || len(rec.seen) < 2 {
		t.Fatalf("executor saw %d jobs over %d calls: the spec no longer spans instants", len(rec.seen), rec.calls)
	}
	for j, n := range rec.seen {
		if n != 1 {
			t.Errorf("job %+v executed %d times, want once", j, n)
		}
	}
	if rep.Replays != len(rec.seen) {
		t.Errorf("Report.Replays = %d, the executor resolved %d distinct jobs", rep.Replays, len(rec.seen))
	}
	if placed := rep.Cluster.Placements; placed <= rep.Replays {
		t.Errorf("%d placements for %d replays: no placement shared a job, the dedupe was never exercised", placed, rep.Replays)
	}
	if got, want := marshal(t, rep), marshal(t, runReport(t, spec, 0)); !bytes.Equal(got, want) {
		t.Errorf("report through the recording executor diverged from the default run\ngot:\n%s\nwant:\n%s", got, want)
	}
}
