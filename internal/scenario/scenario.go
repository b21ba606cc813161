// Package scenario composes stored profiles into workload mixes: many
// applications arriving over time on a shared resource, instead of one
// profile replayed in isolation.
//
// A Spec is a declarative, versioned JSON description of the mix: named
// profile references resolved through any store.Store (including the remote
// synapsed client), a per-workload arrival process (closed-loop clients,
// open-loop Poisson or constant rate, bursts), concurrency limits, and
// per-workload emulation options. Run compiles the spec (compile.go) onto
// the batched replay engine and plays it out on the discrete-event kernel
// of internal/sim: arrivals, placements and completions are handlers posted
// onto the kernel's virtual timeline (sched.go), and aggregation is a
// metrics sink folding the kernel's event stream into the Report
// (report.go, timeline.go).
//
// With a cluster block the shared resource becomes a finite pool of
// machines (internal/cluster): arriving instances are placed on nodes by
// the spec's policy — queueing when no node fits — replay on the machine
// of the node they land on, and slow down with colocation: the node's core
// occupancy at placement maps onto the replay's background load through
// the contention model. An events block makes that pool dynamic: scheduled
// node failures, recoveries, drains and additions — displaced instances
// are killed and deterministically retried — plus a queue-threshold
// autoscale rule, with an optional bucketed time-series (Report.Timeline)
// recording what the end-of-run aggregates average away.
//
// Everything is deterministic for a fixed (spec, seed): every random draw
// derives from a named kernel stream (sim.Stream), and the same scenario
// produces a byte-identical Report at any worker count, which is what makes
// mixes usable for workload-placement studies — change one knob, diff the
// report (the use case of Merzky & Jha, "Bridging the Gap Towards
// Predictable Workload Placement").
package scenario

import (
	"context"
	"fmt"
	"io"
	"math"

	"synapse/internal/sim"
	"synapse/internal/store"
	"synapse/internal/telemetry"
)

// RunOptions tune scenario execution (not its outcome).
type RunOptions struct {
	// Workers bounds the parallel emulation fan-out; 0 uses GOMAXPROCS,
	// 1 forces serial execution. The report is identical at any value.
	Workers int
	// Executor, when non-nil, resolves replay jobs instead of this
	// process's emulation handles — the seam distributed execution plugs
	// into (internal/dist). Run then skips building local run handles
	// entirely; the executor owns the compute. Any conforming executor
	// (see the Executor contract) leaves the report byte-identical.
	Executor Executor
	// Trace, when non-nil, receives the run as Chrome trace-event JSON
	// (loadable in Perfetto / chrome://tracing): one async span per placed
	// instance, queue/running counter series, node lifecycle instants. The
	// trace derives from the kernel's deterministic event order, so a
	// (spec, seed) pair always produces byte-identical output. The report
	// is unaffected.
	Trace io.Writer
	// Progress, when non-nil, receives a live single-line meter (virtual
	// time, arrivals/s, queue depth) repainted in place — point it at
	// stderr. Purely cosmetic; the report is unaffected.
	Progress io.Writer
}

// jobTable numbers a run's distinct replays: instances naming an equal Job
// share one deterministic replay, a job's position is the order it was first
// seen in, and outs[position] is its outcome. Eager mode fills the table from
// every instance and executes once; cluster mode fills it instant by instant
// and executes only the new tail.
type jobTable struct {
	// index maps a job to its position. It holds the only copy of the jobs
	// the table keeps: the batches handed to the executor are the caller's,
	// and eager mode drops the index once every instance is numbered.
	index map[Job]int
	outs  []*Outcome
}

// add returns job's position, numbering it and appending it to batch on
// first sight; a repeated job adds nothing.
func (t *jobTable) add(job Job, batch *[]Job) int {
	pos, ok := t.index[job]
	if !ok {
		pos = len(t.index)
		t.index[job] = pos
		*batch = append(*batch, job)
	}
	return pos
}

// checkOuts verifies an executor honored its contract shape-wise: one
// non-nil outcome per job, in order.
func checkOuts(jobs []Job, outs []*Outcome) error {
	if len(outs) != len(jobs) {
		return fmt.Errorf("scenario: executor returned %d outcomes for %d jobs", len(outs), len(jobs))
	}
	for i, o := range outs {
		if o == nil {
			return fmt.Errorf("scenario: executor returned nil outcome for job %d", i)
		}
	}
	return nil
}

// Run executes the scenario: profiles resolve through st, every instance
// emulates on the batched replay engine across opts.Workers goroutines, and
// the discrete-event kernel plays out the virtual-time outcome.
func Run(ctx context.Context, spec *Spec, st store.Store, opts RunOptions) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if st == nil {
		return nil, fmt.Errorf("scenario: no store to resolve profiles from")
	}

	exec := opts.Executor
	c, err := compile(ctx, spec, st, exec == nil)
	if err != nil {
		return nil, err
	}
	c.enumerate()
	if exec == nil {
		exec = &JobRunner{c: c, workers: opts.Workers}
	}

	// Execute. Without a cluster, emulation is eager: each (workload,
	// load) emulation is deterministic, so instances sharing both replay
	// once and share the report — a no-jitter workload costs one replay
	// no matter how many instances arrive — and results do not depend on
	// scheduling. Known trade-off: execution is eager, so a jittered
	// closed loop whose chains the horizon later cuts replays instances
	// the scheduler never starts.
	//
	// With a cluster, the effective load is only known at placement (it
	// folds in the host node's occupancy), so emulation is demand-driven:
	// the scheduler resolves each instant's placements as a batch, fanned
	// across the workers — only the jobs (workload, node machine, load) no
	// earlier instant has seen.
	//
	// Either way the delivered outcome is the fold record: the job table
	// keeps the pointer the executor handed over (ownership transfers with
	// it), an instance carries its job's position, and the fold reads the
	// record in place — one flat record retained per replay, none copied.
	var table jobTable
	var resolve resolver
	if c.cl == nil {
		table.index = make(map[Job]int, len(c.insts))
		var jobs []Job // distinct jobs, first-seen order
		for _, in := range c.insts {
			in.job = table.add(Job{Workload: in.w, LoadBits: math.Float64bits(in.load)}, &jobs)
		}
		// Every instance is numbered: the index is garbage before the
		// executor allocates its outcomes.
		table.index = nil
		if se, ok := exec.(StreamingExecutor); ok {
			// Streaming fold: contiguous job-order batches arrive as the
			// executor completes them and only the pointers are kept.
			table.outs = make([]*Outcome, len(jobs))
			folded := 0
			err := se.ExecuteJobsStream(ctx, jobs, func(first int, outs []*Outcome) error {
				if first != folded {
					return fmt.Errorf("scenario: executor streamed batch at %d, fold watermark is %d", first, folded)
				}
				if first+len(outs) > len(jobs) {
					return fmt.Errorf("scenario: executor streamed %d outcomes past %d jobs", first+len(outs), len(jobs))
				}
				folded += copy(table.outs[first:], outs)
				return nil
			})
			if err != nil {
				return nil, err
			}
			if folded != len(jobs) {
				return nil, fmt.Errorf("scenario: executor streamed %d outcomes for %d jobs", folded, len(jobs))
			}
		} else {
			table.outs, err = exec.ExecuteJobs(ctx, jobs)
			if err != nil {
				return nil, err
			}
		}
		if err := checkOuts(jobs, table.outs); err != nil {
			return nil, err
		}
		for _, in := range c.insts {
			in.tx = table.outs[in.job].Tx
		}
	} else {
		table.index = make(map[Job]int)
		var batch []Job // the instant's new jobs; reused, executors do not retain it
		resolve = func(placed []int) error {
			batch = batch[:0]
			for _, id := range placed {
				in := c.insts[id]
				in.job = table.add(Job{Workload: in.w, Machine: c.cl.MachineName(in.node), LoadBits: math.Float64bits(in.eff)}, &batch)
			}
			if len(batch) > 0 {
				outs, err := exec.ExecuteJobs(ctx, batch)
				if err != nil {
					return err
				}
				if err := checkOuts(batch, outs); err != nil {
					return err
				}
				table.outs = append(table.outs, outs...)
			}
			for _, id := range placed {
				in := c.insts[id]
				in.tx = table.outs[in.job].Tx
			}
			return nil
		}
	}

	// Schedule: play the compiled scenario out on the kernel's virtual
	// timeline, with the aggregation (and optional time-series) sinks
	// observing the event stream.
	k := sim.New()
	rp := newReporter(len(c.wls))
	k.Attach(rp)
	var tl *timelineSink
	if spec.Timeline != nil {
		tl = newTimelineSink(spec.Timeline.Bucket.D(), len(c.wls), c.cl)
		k.Attach(tl)
	}
	var trace *traceState
	if opts.Trace != nil {
		var sink *telemetry.TraceSink
		sink, trace = newTraceSink(opts.Trace, c)
		k.Attach(sink)
	}
	var prog *progressSink
	if opts.Progress != nil {
		prog = newProgressSink(opts.Progress)
		k.Attach(prog)
	}
	s := newSched(k, c, resolve)
	if err := s.run(); err != nil {
		return nil, err
	}
	if trace != nil {
		if err := trace.close(); err != nil {
			return nil, err
		}
	}
	if prog != nil {
		prog.finish(rp.makespan)
	}

	rep := assemble(c, rp, table.outs)
	rep.Replays = len(table.outs)
	if c.cl != nil {
		rep.Cluster = clusterReport(c.cl, s, rp.makespan)
	}
	if tl != nil {
		timeline, err := tl.finalize(rp.makespan, c.wls)
		if err != nil {
			return nil, err
		}
		rep.Timeline = timeline
	}
	return rep, nil
}
