package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"synapse/internal/profile"
	"synapse/internal/storeclnt"
)

// samples accumulates the measured runs of one workload.
type samples struct {
	wall, cpu, rss, setup []float64
}

func (m *samples) add(s runSample) {
	m.wall = append(m.wall, s.wall)
	m.cpu = append(m.cpu, s.cpu)
	m.rss = append(m.rss, s.rssMB)
}

// endToEndMetrics turns the runs into the five user-visible numbers. A run
// does a fixed number of operations, so throughput is that number over the
// median wall-clock.
func (m *samples) endToEndMetrics(r *result, ops int) {
	r.Metrics["wall_s"] = summarize(m.wall, "s")
	perSec := make([]float64, len(m.wall))
	for i, w := range m.wall {
		perSec[i] = float64(ops) / w
	}
	r.Metrics["ops_per_s"] = summarize(perSec, "1/s")
	r.Metrics["cpu_s"] = summarize(m.cpu, "s")
	r.Metrics["peak_rss_mb"] = summarize(m.rss, "MB")
	r.Metrics["setup_s"] = summarize(m.setup, "s")
}

// keepGoing reports whether a measuring loop should make run number n
// (0-based): the minimum first, then until the time is used.
func (c *config) keepGoing(n int, deadline time.Time) bool {
	return n < c.minRuns || time.Now().Before(deadline)
}

// runUntraced measures a workload end to end with tracing off: closed loop,
// one run at a time, each gated for correctness.
func runUntraced(ctx context.Context, cfg *config, w *workload) (*result, error) {
	r := newResult(w.name, false)
	var m samples
	if w.spec == nil {
		e := newStoreEnv(cfg)
		defer e.close()
		deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
		for n := 0; cfg.keepGoing(n, deadline) && ctx.Err() == nil; n++ {
			// Set-up repeats before every batch (see storeEnv.setup); it is
			// timed on its own and not against the measuring budget.
			t0 := time.Now()
			if err := e.setup(ctx); err != nil {
				return nil, err
			}
			took := time.Since(t0)
			m.setup = append(m.setup, took.Seconds())
			deadline = deadline.Add(took)
			s := e.batch(nil)
			m.add(s)
			r.note(s)
		}
		m.endToEndMetrics(r, e.nops)
		return r, ctx.Err()
	}

	var e *simEnv
	for i := 0; i < cfg.setups; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = prepareSim(ctx, cfg, w); err != nil {
			return nil, err
		}
		m.setup = append(m.setup, time.Since(t0).Seconds())
	}
	defer e.close()
	ref, _, err := e.reference(ctx)
	if err != nil {
		return nil, err
	}
	r.ReportSHA256 = sha(ref)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for n := 0; cfg.keepGoing(n, deadline) && ctx.Err() == nil; n++ {
		s := e.measure(ctx, ref)
		m.add(s)
		r.note(s)
	}
	m.endToEndMetrics(r, e.arrivals)
	return r, ctx.Err()
}

// baselineRuns is how many untraced runs a traced invocation makes first, to
// have a wall-clock of its own to set the traced passes against.
const baselineRuns = 3

// layerSet gathers the per-pass values of every per-layer metric.
type layerSet map[string][]float64

func (ls layerSet) add(v layerValues) {
	for k, x := range v {
		ls[k] = append(ls[k], x)
	}
}

// fill writes the medians into the result and fails it if a count that is a
// function of (spec, seed) alone differed between passes.
func (ls layerSet) fill(r *result) {
	for _, d := range perLayer {
		if xs := ls[d.name]; len(xs) > 0 {
			r.Metrics[d.name] = summarize(xs, d.unit)
		} else {
			r.Metrics[d.name] = spread{Unit: d.unit}
		}
	}
	for _, name := range exactCounts {
		if m := r.Metrics[name]; m.Min != m.Max {
			r.note(runSample{ops: 1, failed: 1, err: fmt.Errorf("%s is not exact: %g to %g over %d passes", name, m.Min, m.Max, m.N)})
		}
	}
}

// runTraced produces the per-layer numbers of a workload: a few untraced runs
// for a baseline, then traced in-process passes for the measuring time, then
// the probes.
func runTraced(ctx context.Context, cfg *config, w *workload, buildS float64) (*result, error) {
	r := newResult(w.name, true)
	rec := newRecorder()
	ls := layerSet{}
	var err error
	if w.spec == nil {
		err = traceStore(ctx, cfg, r, rec, ls)
	} else {
		err = traceSim(ctx, cfg, w, r, rec, ls)
	}
	if err != nil {
		return nil, err
	}
	ls.add(layerValues{"bench.build_s": buildS})
	ls.fill(r)
	return r, rec.write(filepath.Join(cfg.outDir, w.name, "trace.json"))
}

func traceSim(ctx context.Context, cfg *config, w *workload, r *result, rec *recorder, ls layerSet) error {
	e, err := prepareSim(ctx, cfg, w)
	if err != nil {
		return err
	}
	defer e.close()
	ref, refUse, err := e.reference(ctx)
	if err != nil {
		return err
	}
	r.ReportSHA256 = sha(ref)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	var walls []float64
	for i := 0; i < baselineRuns; i++ {
		s := e.measure(ctx, ref)
		walls = append(walls, s.wall)
		r.note(s)
	}
	wall := median(walls)

	rpcs := &rpcStats{}
	var profs []*profile.Profile
	var pipeline []float64
	for n := 0; cfg.keepGoing(n, deadline) && ctx.Err() == nil; n++ {
		v, data, ps, err := e.tracedPass(ctx, rec, n, rpcs)
		if err != nil {
			return fmt.Errorf("traced pass %d: %w", n, err)
		}
		s := runSample{ops: e.arrivals}
		if err := checkReport(data, ref, e.arrivals); err != nil {
			s.failed, s.err = s.ops, fmt.Errorf("traced pass %d: %w", n, err)
		}
		r.note(s)
		pipeline = append(pipeline, v["bench.pipeline_s"])
		ls.add(v)
		profs = ps
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	spec := w.spec(cfg.seed, cfg.scale)
	v := layerValues{
		"bench.reference_s":         refUse.Wall,
		"bench.trace_overhead_frac": median(pipeline)/wall - 1,
		"exp.speedup_vs_serial":     refUse.Wall / wall,
		"sim.kernel_ns_per_event":   probeKernel(scaled(1_000_000, cfg.scale)),
	}
	if err := probeEmulator(ctx, spec, profs, time.Duration(300*cfg.scale)*time.Millisecond, v); err != nil {
		return err
	}
	if spec.Cluster != nil {
		if v["cluster.place_release_ns"], err = probeCluster(spec, scaled(200_000, cfg.scale)); err != nil {
			return err
		}
	}
	if w.remote {
		v["dist.slowdown_vs_local"] = wall / refUse.Wall
		v["dist.rpc_ms_p50"] = percentile(rpcs.ms, 50)
		v["dist.rpc_ms_p99"] = percentile(rpcs.ms, 99)
		v["dist.jobs_per_rpc_mean"] = float64(rpcs.jobs) / float64(max(len(rpcs.ms), 1))
		var client float64
		for _, ms := range rpcs.ms {
			client += ms / 1e3
		}
		// Client-observed RPC time the workers' handlers do not account
		// for: encode, loopback, decode. Per pass, like handler_s.
		passes := float64(len(pipeline))
		v["dist.wire_codec_s"] = client/passes - median(ls["dist.worker_handler_s"])
	}
	ls.add(v)
	return nil
}

func traceStore(ctx context.Context, cfg *config, r *result, rec *recorder, ls layerSet) error {
	e := newStoreEnv(cfg)
	defer e.close()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	var walls []float64
	for i := 0; i < baselineRuns; i++ {
		if err := e.setup(ctx); err != nil {
			return err
		}
		s := e.batch(nil)
		walls = append(walls, s.wall)
		r.note(s)
	}

	times := &opTimes{rec: rec}
	var traced []float64
	var handler, observed, hot304 float64
	for n := 0; cfg.keepGoing(n, deadline) && ctx.Err() == nil; n++ {
		if err := e.setup(ctx); err != nil {
			return err
		}
		before, err := e.daemon.scrape(ctx)
		if err != nil {
			return err
		}
		times.run, times.parent = n, rec.begin("store-mix.batch", n, -1)
		s := e.batch(times)
		rec.end(times.parent)
		r.note(s)
		after, err := e.daemon.scrape(ctx)
		if err != nil {
			return err
		}
		delta := func(name string, labels ...string) float64 {
			return seriesSum(after, name, labels...) - seriesSum(before, name, labels...)
		}
		const profiles = `route="/v1/profiles"`
		putS := delta("synapse_http_request_duration_seconds_sum", profiles, `method="PUT"`)
		getS := delta("synapse_http_request_duration_seconds_sum", profiles, `method="GET"`)
		v := layerValues{
			"storesrv.put_handler_ms_mean": 1e3 * putS / max(delta("synapse_http_request_duration_seconds_count", profiles, `method="PUT"`), 1),
			"storesrv.get_handler_ms_mean": 1e3 * getS / max(delta("synapse_http_request_duration_seconds_count", profiles, `method="GET"`), 1),
			"storesrv.shed_total":          delta("synapse_admission_shed_total"),
		}
		for _, c := range e.conns {
			for _, cl := range []*storeclnt.Remote{c.cached, c.cold} {
				st := cl.Stats()
				v["storeclnt.retries"] += float64(st.Retries)
				v["storeclnt.hedges"] += float64(st.Hedges)
			}
		}
		ls.add(v)
		traced = append(traced, s.wall)
		handler += putS + getS
		hot304 += delta("synapse_http_requests_total", profiles, `method="GET"`, `code="304"`)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	v := layerValues{"bench.trace_overhead_frac": median(traced)/median(walls) - 1}
	for k, ms := range times.ms {
		v["storeclnt."+opNames[k]+"_ms_p50"] = percentile(ms, 50)
		v["storeclnt."+opNames[k]+"_ms_p99"] = percentile(ms, 99)
		for _, x := range ms {
			observed += x / 1e3
		}
	}
	v["storeclnt.cache_hit_ratio"] = hot304 / max(float64(len(times.ms[opFindHot])), 1)
	v["storeclnt.wire_share"] = 1 - handler/observed
	if err := probeSharded(e.puts, scaled(20_000, cfg.scale), v); err != nil {
		return err
	}
	ls.add(v)
	return nil
}
