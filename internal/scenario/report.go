package scenario

import (
	"sort"
	"time"

	"synapse/internal/cluster"
	"synapse/internal/emulator"
	"synapse/internal/perfcount"
	"synapse/internal/stats"
)

// Report is the aggregate outcome of one scenario run. All times are
// virtual (the emulations' modeled timeline), so reports are comparable
// across hosts; only wall-clock execution speed varies.
type Report struct {
	// Scenario is the spec's name; Seed the seed the run used.
	Scenario string `json:"scenario"`
	Seed     uint64 `json:"seed"`
	// Makespan is when the last admitted instance completed.
	Makespan Duration `json:"makespan"`
	// Emulations counts completed instances across workloads; Dropped
	// counts instances cut by the scenario duration horizon or stranded
	// by a pool that shrank for good; Killed counts kill-and-retry
	// events from node failures (a killed instance still completes — or
	// drops — exactly once, so Emulations+Dropped covers every arrival).
	Emulations int `json:"emulations"`
	Dropped    int `json:"dropped,omitempty"`
	Killed     int `json:"killed,omitempty"`
	// Replays counts the distinct emulations actually executed:
	// instances of one workload with identical options (no load jitter)
	// share a single deterministic replay. With a cluster, "identical"
	// additionally means same node machine and same contention-derived
	// effective load.
	Replays int `json:"replays"`
	// Throughput is completed emulations per virtual second.
	Throughput float64 `json:"throughput_per_s"`
	// Latency summarizes sojourn time (arrival to completion) across all
	// workloads.
	Latency LatencySummary `json:"latency"`
	// Cluster reports placement decisions and per-node utilization when
	// the spec has a cluster block.
	Cluster *ClusterReport `json:"cluster,omitempty"`
	// Workloads reports per-workload detail, in spec order.
	Workloads []WorkloadReport `json:"workloads"`
	// Timeline is the bucketed time-series view, when the spec (or
	// synapse-sim -timeline) asked for one.
	Timeline *Timeline `json:"timeline,omitempty"`
}

// ClusterReport is the placement outcome of a clustered scenario.
type ClusterReport struct {
	// Policy is the placement policy the run used.
	Policy string `json:"policy"`
	// Placements counts successful placement decisions; Rejections
	// counts admission probes that found no feasible node (at most one
	// per workload per scheduling instant) — the cluster-full pressure.
	// Every placement ends in exactly one completion or one kill, so
	// Placements = Report.Emulations + Report.Killed.
	Placements int `json:"placements"`
	Rejections int `json:"rejections,omitempty"`
	// Events counts applied timeline events; Autoscaled counts nodes
	// the autoscale rule created.
	Events     int `json:"events_applied,omitempty"`
	Autoscaled int `json:"autoscaled_nodes,omitempty"`
	// Nodes reports per-node accounting, in pool-join order (spec order,
	// then event- and autoscale-added nodes as they appeared).
	Nodes []NodeReport `json:"nodes"`
}

// NodeReport is one node's slice of the placement outcome.
type NodeReport struct {
	Name    string `json:"name"`
	Machine string `json:"machine"`
	Cores   int    `json:"cores"`
	// State is the node's final lifecycle state, omitted while up.
	State string `json:"state,omitempty"`
	// Placed counts instances placed on this node; PeakCores is the
	// node's maximum simultaneous core occupancy; Killed the instances
	// a node_down cut short here.
	Placed    int `json:"placed"`
	PeakCores int `json:"peak_cores,omitempty"`
	Killed    int `json:"killed,omitempty"`
	// Busy is the node's total core-time (Σ service time × cores over
	// placed instances, partial service from killed ones included);
	// Utilization is Busy over makespan × cores.
	Busy        Duration `json:"busy_core_time"`
	Utilization float64  `json:"utilization"`
}

// WorkloadReport is one workload's slice of the scenario outcome.
type WorkloadReport struct {
	Name string `json:"name"`
	// Machine is the emulation resource instances replayed on; with a
	// cluster block instances replay on the machine of the node they
	// were placed on, and this reads "cluster".
	Machine string `json:"machine"`
	// Emulations counts completed instances; Dropped the ones cut by the
	// horizon (or stranded) before starting; Killed the kill-and-retry
	// events node failures inflicted on this workload.
	Emulations int `json:"emulations"`
	Dropped    int `json:"dropped,omitempty"`
	Killed     int `json:"killed,omitempty"`
	// Throughput is completed instances per virtual second of scenario
	// makespan.
	Throughput float64 `json:"throughput_per_s"`
	// Latency is sojourn time (arrival → completion); Wait the queueing
	// delay before the final placement (arrival → last start); Service
	// the emulation time itself (last start → completion).
	Latency LatencySummary `json:"latency"`
	Wait    LatencySummary `json:"wait"`
	Service LatencySummary `json:"service"`
	// BusyTime breaks down per-atom busy time summed over completed
	// instances, sorted by atom name.
	BusyTime []AtomBusy `json:"busy_time,omitempty"`
	// Consumed aggregates the resources completed instances consumed.
	Consumed perfcount.Counters `json:"consumed"`
}

// AtomBusy is one atom's total busy time within a workload.
type AtomBusy struct {
	Atom string   `json:"atom"`
	Busy Duration `json:"busy"`
}

// LatencySummary condenses a latency distribution.
type LatencySummary struct {
	Mean Duration `json:"mean"`
	P50  Duration `json:"p50"`
	P90  Duration `json:"p90"`
	P99  Duration `json:"p99"`
	Max  Duration `json:"max"`
}

// atomNames are the emulation atoms a report can break busy time down by,
// in the index order of Outcome.Busy (the emulator's, so an outcome copies a
// report's busy record as is).
var atomNames = emulator.AtomNames

// reporter is the aggregation sink: it folds the scheduler's event stream
// into the counters the report is built from. Order-sensitive aggregation
// (latency sums, percentiles) happens in assemble, in deterministic
// instance order — the sink only accumulates counts and the makespan,
// which commute.
type reporter struct {
	completed  int
	killed     int
	makespan   time.Duration
	wcompleted []int
	wkilled    []int
}

func newReporter(workloads int) *reporter {
	return &reporter{
		wcompleted: make([]int, workloads),
		wkilled:    make([]int, workloads),
	}
}

// Observe implements sim.MetricsSink. Events arrive as pointers to the
// scheduler's scratch values; everything is copied out immediately.
func (r *reporter) Observe(t time.Duration, ev any) {
	switch e := ev.(type) {
	case *evCompleted:
		r.completed++
		r.wcompleted[e.w]++
		if t > r.makespan {
			r.makespan = t
		}
	case *evKilled:
		r.killed++
		r.wkilled[e.w]++
	}
}

// assemble folds the instance outcomes into the report, in spec order —
// every sum runs in deterministic instance order, so reports are
// byte-identical across runs, worker counts, and executors (outcomes are
// keyed by job position, never by who computed them).
func assemble(c *compiled, rp *reporter, outs []*Outcome) *Report {
	makespan := rp.makespan
	rep := &Report{
		Scenario:   c.spec.Name,
		Seed:       c.spec.Seed,
		Makespan:   Duration(makespan),
		Emulations: rp.completed,
		Killed:     rp.killed,
	}
	if secs := makespan.Seconds(); secs > 0 {
		rep.Throughput = float64(rp.completed) / secs
	}
	allSojourn := make([]float64, 0, len(c.insts))
	rep.Workloads = make([]WorkloadReport, 0, len(c.wls))
	// One scratch sample buffer, partitioned per workload: sojourn, wait
	// and service slices carve consecutive windows out of it, so the fold
	// costs three slice headers per workload instead of three growing
	// allocations per workload.
	scratch := make([]float64, 3*len(c.insts))
	for w, ws := range c.wls {
		wr := WorkloadReport{
			Name:    ws.spec.Name,
			Machine: ws.machine,
			Dropped: ws.dropped,
			Killed:  rp.wkilled[w],
		}
		n := len(ws.insts)
		sojourn := scratch[:0:n]
		wait := scratch[n : n : 2*n]
		service := scratch[2*n : 2*n : 3*n]
		// busy is indexed like atomNames; the map an earlier version built
		// here was one allocation (plus hashing) per workload for four
		// fixed keys.
		var busy [len(atomNames)]time.Duration
		for _, id := range ws.insts {
			in := c.insts[id]
			if !in.ran {
				continue
			}
			wr.Emulations++
			sojourn = append(sojourn, float64(in.done-in.arrival))
			wait = append(wait, float64(in.start-in.arrival))
			service = append(service, float64(in.tx))
			rec := outs[in.job]
			for ai := range atomNames {
				busy[ai] += rec.Busy[ai]
			}
			wr.Consumed.Accumulate(&rec.Consumed)
		}
		if secs := makespan.Seconds(); secs > 0 {
			wr.Throughput = float64(wr.Emulations) / secs
		}
		// Fold the workload's sojourns into the overall sample before
		// summarize sorts them in place: the overall mean's summation
		// order (instance order) is part of the byte-identity contract.
		allSojourn = append(allSojourn, sojourn...)
		wr.Latency = summarize(sojourn)
		wr.Wait = summarize(wait)
		wr.Service = summarize(service)
		for ai, a := range atomNames {
			if busy[ai] > 0 {
				wr.BusyTime = append(wr.BusyTime, AtomBusy{Atom: a, Busy: Duration(busy[ai])})
			}
		}
		sort.Slice(wr.BusyTime, func(i, j int) bool { return wr.BusyTime[i].Atom < wr.BusyTime[j].Atom })
		rep.Dropped += ws.dropped
		rep.Workloads = append(rep.Workloads, wr)
	}
	rep.Latency = summarize(allSojourn)
	return rep
}

// clusterReport folds the cluster's accounting into the report.
func clusterReport(cl *cluster.Cluster, s *sched, makespan time.Duration) *ClusterReport {
	cr := &ClusterReport{
		Policy:     cl.Policy(),
		Placements: cl.Placements(),
		Rejections: cl.Rejections(),
		Events:     s.eventsApplied,
		Autoscaled: s.autoAdded,
	}
	for i := 0; i < cl.Len(); i++ {
		info := cl.Info(i)
		nr := NodeReport{
			Name:      info.Name,
			Machine:   info.Machine,
			Cores:     info.Cores,
			Placed:    info.Placed,
			PeakCores: info.PeakCores,
			Killed:    info.Killed,
			Busy:      Duration(info.Busy),
		}
		if info.State != cluster.StateUp {
			nr.State = info.State
		}
		if cap := makespan.Seconds() * float64(info.Cores); cap > 0 {
			nr.Utilization = info.Busy.Seconds() / cap
		}
		cr.Nodes = append(cr.Nodes, nr)
	}
	return cr
}

// summarize condenses a duration sample (in float64 nanoseconds) into the
// report's latency summary. It sorts xs in place — one sort serves all
// three percentiles, where stats.Percentile would copy and re-sort the
// sample per percentile — so callers that need the original order must
// fold it out first. Mean and Max read the sample before the sort: the
// mean's float summation order is part of the byte-identity contract.
func summarize(xs []float64) LatencySummary {
	if len(xs) == 0 {
		return LatencySummary{}
	}
	s := LatencySummary{
		Mean: Duration(stats.Mean(xs)),
		Max:  Duration(stats.Max(xs)),
	}
	sort.Float64s(xs)
	s.P50 = Duration(stats.SortedPercentile(xs, 50))
	s.P90 = Duration(stats.SortedPercentile(xs, 90))
	s.P99 = Duration(stats.SortedPercentile(xs, 99))
	return s
}
