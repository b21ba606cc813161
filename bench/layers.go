package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"synapse/internal/cluster"
	"synapse/internal/core"
	"synapse/internal/dist"
	"synapse/internal/emulator"
	"synapse/internal/profile"
	"synapse/internal/scenario"
	"synapse/internal/sim"
	"synapse/internal/stats"
	"synapse/internal/store"
	"synapse/internal/storeclnt"
)

// layerValues is what one traced pass measured, by metric name.
type layerValues map[string]float64

// tracedPass replays synapse-sim's pipeline in process, one timed call per
// layer boundary: load the spec, open the store and resolve the profiles,
// build the columnar views, compile, run behind the timing executor, encode
// the report. It returns the pass's measurements and the report bytes, which
// must equal the CLI's. rpcs and the returned profiles outlive the pass:
// RPC latencies pool across passes, the profiles feed the emulator probe.
func (e *simEnv) tracedPass(ctx context.Context, rec *recorder, run int, rpcs *rpcStats) (layerValues, []byte, []*profile.Profile, error) {
	v := layerValues{}
	root := rec.begin("pipeline", run, -1)
	var spec *scenario.Spec
	var profs []*profile.Profile
	var err error
	step := func(metric string, fn func() error) error {
		if err != nil {
			return err
		}
		v[metric], err = rec.timed(metric, run, root, fn)
		return err
	}

	step("scenario.load_s", func() (err error) {
		spec, err = scenario.Load(e.specPath)
		return err
	})
	step("store.open_resolve_s", func() error {
		st, err := storeclnt.Open(e.storeDir)
		if err != nil {
			return err
		}
		defer st.Close()
		profs, err = scenario.ResolveProfiles(ctx, spec, st)
		return err
	})
	// Compile and run read profiles from memory from here on: the CLI reads
	// the store once per run, and so does this pass.
	mem := store.NewMem()
	step("profile.columns_s", func() error {
		seen := map[*profile.Profile]bool{}
		for _, p := range profs {
			if seen[p] {
				continue
			}
			seen[p] = true
			v["profile.decode_bytes"] += float64(p.DocSize())
			profile.BuildColumns(p.Samples)
			if err := mem.Put(p); err != nil {
				return err
			}
		}
		return nil
	})

	exec := &timedExec{rec: rec, run: run}
	var opts scenario.RunOptions
	var co *dist.Coordinator
	wire := &countingTransport{base: http.DefaultTransport.(*http.Transport).Clone()}
	var before []map[string]float64
	step("scenario.compile_s", func() error {
		if !e.w.remote {
			jr, err := scenario.NewJobRunner(ctx, spec, mem, 0)
			exec.inner, exec.name, opts.Executor = jr, "exp.fan", exec
			return err
		}
		hc := &http.Client{Timeout: 60 * time.Second, Transport: wire}
		fleet := make([]dist.Worker, len(e.workers))
		for i, d := range e.workers {
			fleet[i] = &timedWorker{inner: dist.NewHTTPWorker(d.url, hc), st: rpcs, rec: rec, run: run}
		}
		var err error
		co, err = dist.NewCoordinator(ctx, spec, mem, dist.Config{Workers: fleet})
		exec.inner, exec.name, opts.Executor = co, "dist.exec", &timedStreamExec{exec, co}
		return err
	})
	if err == nil && e.w.remote {
		if before, err = e.scrapeFleet(ctx); err != nil {
			return nil, nil, nil, err
		}
	}
	if err != nil {
		return nil, nil, nil, err
	}
	exec.st.perWorkload = make([]int, len(spec.Workloads))

	var rep *scenario.Report
	runSpan := rec.begin("scenario.run_s", run, root)
	exec.parent = runSpan
	rep, err = scenario.Run(ctx, spec, mem, opts)
	v["scenario.run_s"] = rec.end(runSpan).Seconds()
	var data []byte
	step("scenario.report_encode_s", func() (err error) {
		if data, err = json.MarshalIndent(rep, "", "  "); err != nil {
			return err
		}
		data = append(data, '\n')
		return os.WriteFile(filepath.Join(e.dir, "traced.json"), data, 0o644)
	})
	v["bench.pipeline_s"] = rec.end(root).Seconds()
	if err != nil {
		return nil, nil, nil, err
	}
	// The CLI writes the CSV only on request; timed beside the pipeline.
	if rep.Timeline != nil {
		if v["scenario.timeline_csv_s"], err = rec.timed("scenario.timeline_csv_s", run, -1, func() error {
			return rep.TimelineCSV(io.Discard)
		}); err != nil {
			return nil, nil, nil, err
		}
	}

	st := &exec.st
	busy := st.busy.Seconds()
	v["scenario.self_s"] = v["scenario.run_s"] - busy
	v["scenario.self_ns_per_instance"] = v["scenario.self_s"] * 1e9 / float64(e.arrivals)
	v["scenario.exec_calls"] = float64(st.calls)
	v["scenario.exec_jobs"] = float64(st.jobs)
	v["scenario.exec_batch_mean"] = float64(st.jobs) / float64(max(st.calls, 1))
	v["scenario.exec_batch_max"] = float64(st.maxBatch)
	v["scenario.replays"] = float64(rep.Replays)
	v["scenario.dedup_ratio"] = float64(rep.Replays) / float64(max(rep.Emulations, 1))
	v["scenario.report_bytes"] = float64(len(data))
	for w, n := range st.perWorkload {
		v["emulator.samples_replayed"] += float64(n * len(profs[w].Samples))
	}
	if c := rep.Cluster; c != nil {
		v["cluster.placements"] = float64(c.Placements)
		v["cluster.rejections"] = float64(c.Rejections)
		v["cluster.killed"] = float64(rep.Killed)
		v["cluster.autoscaled"] = float64(c.Autoscaled)
	}
	if run == 0 {
		rec.mu.Lock()
		rec.notes = append(rec.notes, fmt.Sprintf("%s: %d executor calls, %d jobs, calls by batch-size bit length %v",
			e.w.name, st.calls, st.jobs, st.hist))
		rec.mu.Unlock()
	}
	if !e.w.remote {
		v["exp.fan_busy_s"] = busy
		return v, data, profs, nil
	}

	after, err := e.scrapeFleet(ctx)
	if err != nil {
		return nil, nil, nil, err
	}
	cs := co.Stats()
	v["dist.exec_busy_s"] = busy
	v["dist.rpcs"] = float64(cs.RPCs)
	v["dist.chunks"] = float64(cs.Chunks)
	v["dist.steals"] = float64(cs.Steals)
	v["dist.speculative_discards"] = float64(cs.SpeculativeDiscards)
	v["dist.compiles"] = float64(cs.Compiles)
	v["dist.peak_resident"] = float64(cs.PeakResident)
	v["dist.worker_failures"] = float64(cs.WorkerFailures)
	v["dist.req_bytes"] = float64(wire.req.Load())
	v["dist.resp_bytes"] = float64(wire.resp.Load())
	v["dist.resp_bytes_per_job"] = float64(wire.resp.Load()) / float64(max(st.jobs, 1))
	const handler = "synapse_http_request_duration_seconds_sum"
	for i := range after {
		v["dist.worker_handler_s"] += seriesSum(after[i], handler, `route="/v1/execute"`) - seriesSum(before[i], handler, `route="/v1/execute"`)
		v["dist.worker_rss_mb"] += e.workers[i].hwmMB()
	}
	return v, data, profs, nil
}

func (e *simEnv) scrapeFleet(ctx context.Context) ([]map[string]float64, error) {
	out := make([]map[string]float64, len(e.workers))
	for i, d := range e.workers {
		var err error
		if out[i], err = d.scrape(ctx); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// probeEmulator replays each workload's resolved profile serially through the
// emulator's public entry point for about budget in total: the per-sample and
// per-emulation cost of the replay kernel with nothing around it.
func probeEmulator(ctx context.Context, spec *scenario.Spec, profs []*profile.Profile, budget time.Duration, v layerValues) error {
	rng := stats.NewRNG(1)
	var emulations, samples int
	var elapsed time.Duration
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i, w := range spec.Workloads {
		machine := w.Emulation.Machine
		if spec.Cluster != nil {
			machine = spec.Cluster.Nodes[0].Machine
		}
		run, err := core.NewEmulation(profs[i], core.EmulateOptions{Machine: machine, Load: w.Emulation.Load, TraceLevel: emulator.TraceNone})
		if err != nil {
			return err
		}
		t0 := time.Now()
		for n := 0; n < 3 || time.Since(t0) < budget/time.Duration(len(spec.Workloads)); n++ {
			rep, err := run.EmulateWithLoad(ctx, w.Emulation.Load+w.Emulation.LoadJitter*(2*rng.Float64()-1))
			if err != nil {
				return err
			}
			emulations++
			samples += rep.Samples
		}
		elapsed += time.Since(t0)
	}
	runtime.ReadMemStats(&ms1)
	v["emulator.replay_ns_per_sample"] = float64(elapsed) / float64(max(samples, 1))
	v["emulator.replay_ns_per_emulation"] = float64(elapsed) / float64(emulations)
	v["emulator.allocs_per_emulation"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(emulations)
	return nil
}

// probeKernel drains n no-op events through the discrete-event kernel.
func probeKernel(n int) float64 {
	k := sim.New()
	k.Reserve(n)
	rng := stats.NewRNG(2)
	noop := sim.Handler(func(a, b int64) {})
	t0 := time.Now()
	for i := 0; i < n; i++ {
		k.PostHandler(time.Duration(rng.Intn(n)), 0, noop, 0, 0)
	}
	k.Run(nil)
	return float64(time.Since(t0)) / float64(n)
}

// probeCluster places and releases n requests on the workload's own pool,
// cycling through its request shapes with a few hundred outstanding.
func probeCluster(spec *scenario.Spec, n int) (float64, error) {
	cl, err := cluster.New(spec.Cluster, stats.NewRNG(3))
	if err != nil {
		return 0, err
	}
	reqs := make([]cluster.Request, len(spec.Workloads))
	for i, w := range spec.Workloads {
		reqs[i].Cores = 1
		if w.Resources != nil && w.Resources.Cores > 0 {
			reqs[i].Cores = w.Resources.Cores
		}
	}
	type placed struct {
		node int
		req  cluster.Request
	}
	ring := make([]placed, 256)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		slot := &ring[i%len(ring)]
		if i >= len(ring) {
			cl.Release(slot.node, slot.req)
		}
		r := reqs[i%len(reqs)]
		node, _, ok := cl.Place(r)
		if !ok {
			return 0, fmt.Errorf("cluster probe: request %d found no node", i)
		}
		*slot = placed{node, r}
	}
	return float64(time.Since(t0)) / float64(n), nil
}

// probeSharded calls the daemon's default backend directly, one Put per
// document and then n Finds: what a request costs with no HTTP, no JSON and
// no client around it.
func probeSharded(docs []*profile.Profile, n int, v layerValues) error {
	st := store.NewSharded(store.DefaultShards)
	t0 := time.Now()
	for _, p := range docs {
		if err := st.Put(p); err != nil {
			return err
		}
	}
	v["store.sharded_put_ns"] = float64(time.Since(t0)) / float64(len(docs))
	t0 = time.Now()
	for i := 0; i < n; i++ {
		p := docs[i%len(docs)]
		if _, err := st.Find(p.Command, p.Tags); err != nil {
			return err
		}
	}
	v["store.sharded_find_ns"] = float64(time.Since(t0)) / float64(n)
	return nil
}
