package main

import (
	"encoding/json"
	"fmt"
	"io"

	"synapse/internal/stats"
)

// metricDecl names one metric the harness emits. BENCHMARK.json lists the
// same names and units; the smoke test keeps the two in step.
type metricDecl struct {
	name, unit string
}

// endToEnd is what a user of the system sees. Every workload reports all of
// them; failures are reported through the result's attempted/failed counts,
// not as a metric, because a metric that is always zero cannot be bounded.
var endToEnd = []metricDecl{
	{"wall_s", "s"},
	{"ops_per_s", "1/s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer is the outside-in time budget: one group per module, timed from
// this directory only. A workload a metric does not apply to reports 0.
var perLayer = []metricDecl{
	{"scenario.load_s", "s"},
	{"scenario.compile_s", "s"},
	{"scenario.run_s", "s"},
	{"scenario.self_s", "s"},
	{"scenario.self_ns_per_instance", "ns"},
	{"scenario.exec_calls", "count"},
	{"scenario.exec_jobs", "count"},
	{"scenario.exec_batch_mean", "count"},
	{"scenario.exec_batch_max", "count"},
	{"scenario.replays", "count"},
	{"scenario.dedup_ratio", "ratio"},
	{"scenario.report_encode_s", "s"},
	{"scenario.report_bytes", "bytes"},
	{"scenario.timeline_csv_s", "s"},
	{"exp.fan_busy_s", "s"},
	{"exp.speedup_vs_serial", "ratio"},
	{"emulator.replay_ns_per_sample", "ns"},
	{"emulator.replay_ns_per_emulation", "ns"},
	{"emulator.allocs_per_emulation", "count"},
	{"emulator.samples_replayed", "count"},
	{"store.open_resolve_s", "s"},
	{"profile.decode_bytes", "bytes"},
	{"profile.columns_s", "s"},
	{"store.sharded_put_ns", "ns"},
	{"store.sharded_find_ns", "ns"},
	{"sim.kernel_ns_per_event", "ns"},
	{"cluster.place_release_ns", "ns"},
	{"cluster.placements", "count"},
	{"cluster.rejections", "count"},
	{"cluster.killed", "count"},
	{"cluster.autoscaled", "count"},
	{"dist.exec_busy_s", "s"},
	{"dist.rpcs", "count"},
	{"dist.chunks", "count"},
	{"dist.steals", "count"},
	{"dist.speculative_discards", "count"},
	{"dist.compiles", "count"},
	{"dist.peak_resident", "count"},
	{"dist.worker_failures", "count"},
	{"dist.rpc_ms_p50", "ms"},
	{"dist.rpc_ms_p99", "ms"},
	{"dist.jobs_per_rpc_mean", "count"},
	{"dist.req_bytes", "bytes"},
	{"dist.resp_bytes", "bytes"},
	{"dist.resp_bytes_per_job", "bytes"},
	{"dist.worker_handler_s", "s"},
	{"dist.wire_codec_s", "s"},
	{"dist.worker_rss_mb", "MB"},
	{"dist.slowdown_vs_local", "ratio"},
	{"storeclnt.put_ms_p50", "ms"},
	{"storeclnt.put_ms_p99", "ms"},
	{"storeclnt.find_hot_ms_p50", "ms"},
	{"storeclnt.find_hot_ms_p99", "ms"},
	{"storeclnt.find_cold_ms_p50", "ms"},
	{"storeclnt.find_cold_ms_p99", "ms"},
	{"storeclnt.cache_hit_ratio", "ratio"},
	{"storeclnt.retries", "count"},
	{"storeclnt.hedges", "count"},
	{"storeclnt.wire_share", "ratio"},
	{"storesrv.put_handler_ms_mean", "ms"},
	{"storesrv.get_handler_ms_mean", "ms"},
	{"storesrv.shed_total", "count"},
	{"bench.build_s", "s"},
	{"bench.reference_s", "s"},
	{"bench.trace_overhead_frac", "ratio"},
}

// exactCounts are the per-layer counts that are functions of (spec, seed)
// alone: they must repeat exactly from run to run and commit to commit
// unless the commit changes what work is done.
var exactCounts = []string{
	"scenario.exec_calls", "scenario.exec_jobs", "scenario.exec_batch_max", "scenario.replays",
	"scenario.report_bytes", "emulator.samples_replayed", "profile.decode_bytes",
	"cluster.placements", "cluster.rejections", "cluster.killed", "cluster.autoscaled",
}

// spread is a metric's measured runs, summarised. Five to fifteen runs
// support a median; no percentile has ten samples beyond it, so none is
// reported.
type spread struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

func summarize(xs []float64, unit string) spread {
	return spread{Median: median(xs), Min: stats.Min(xs), Max: stats.Max(xs), N: len(xs), Unit: unit}
}

func median(xs []float64) float64 { return percentile(xs, 50) }
func percentile(xs []float64, p float64) float64 {
	v, err := stats.Percentile(xs, p)
	if err != nil {
		return 0
	}
	return v
}

// result is what one workload in one mode (untraced or traced) produced.
type result struct {
	Workload     string            `json:"workload"`
	Traced       bool              `json:"traced"`
	Correct      bool              `json:"correct"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	FirstFailure string            `json:"first_failure,omitempty"`
	ReportSHA256 string            `json:"report_sha256,omitempty"`
	Metrics      map[string]spread `json:"metrics"`
}

func newResult(workload string, traced bool) *result {
	return &result{Workload: workload, Traced: traced, Metrics: map[string]spread{}}
}

// note folds one run's gate outcome into the result.
func (r *result) note(s runSample) {
	r.Attempted += s.ops
	r.Failed += s.failed
	if s.err != nil && r.FirstFailure == "" {
		r.FirstFailure = s.err.Error()
	}
}

// decls returns the metrics this result must carry.
func (r *result) decls() []metricDecl {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// printTable writes every metric as `name workload value unit`.
func (r *result) printTable(w io.Writer) {
	for _, d := range r.decls() {
		m := r.Metrics[d.name]
		fmt.Fprintf(w, "%-34s %-15s %16.6g %-6s", d.name, r.Workload, m.Median, d.unit)
		if m.N > 1 {
			fmt.Fprintf(w, " min %.6g max %.6g n=%d", m.Min, m.Max, m.N)
		}
		fmt.Fprintln(w)
	}
	if r.ReportSHA256 != "" {
		fmt.Fprintf(w, "%-34s %-15s %s\n", "report_sha256", r.Workload, r.ReportSHA256)
	}
	fmt.Fprintf(w, "%-34s %-15s %d of %d operations failed %s\n", "failed", r.Workload, r.Failed, r.Attempted, r.FirstFailure)
}

// contractLine renders the one-line JSON object the driver reads.
func (r *result) contractLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, d := range r.decls() {
		out.Metrics[d.name] = value{r.Metrics[d.name].Median, d.unit}
	}
	return json.Marshal(out)
}
