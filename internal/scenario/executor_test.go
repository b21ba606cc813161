package scenario

import (
	"context"
	"math"
	"runtime"
	"testing"
	"time"
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
