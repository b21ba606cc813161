// synapse-sim runs a declarative workload-mix scenario against a profile
// store: it resolves the spec's profile references, emulates every workload
// instance on the batched replay engine, schedules the arrivals on the
// virtual timeline, and reports aggregate latency percentiles, throughput
// and busy-time breakdowns.
//
//	synapse-sim -scenario mix.json -store http://stampede:8181 -out report.json
//	synapse-sim -scenario mix.json -store ./synapse-store -workers 4
//	synapse-sim -scenario mix.json -cluster cluster.json
//	synapse-sim -scenario failover.json -timeline series.csv
//	synapse-sim -scenario failover.json -trace out.json -progress
//	synapse-sim -scenario huge.json -workers-remote h1:9191,h2:9191 -chunk 128 -steal-after 500ms
//	synapse-sim -scenario mix.json -cpuprofile cpu.pprof
//	synapse-sim -scenario huge.json -pprof 127.0.0.1:6060
//
// The -store flag accepts a local file-store directory or the URL of a
// running synapsed daemon. -cluster attaches (or replaces) the spec's
// cluster block from a standalone JSON file, so one mix can be rerun
// against different machine pools and placement policies. -timeline
// writes the run's bucketed time-series (throughput, queue depth,
// per-node occupancy) as CSV, enabling a 1s-bucket timeline when the
// spec does not configure one. -trace streams the run as Chrome
// trace-event JSON, loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing: one span per placed instance, queue/running counter
// series, node lifecycle markers (see docs/observability.md). -progress
// paints a live stderr meter (virtual time, arrivals/s, queue depth) for
// long runs. -workers-remote distributes the emulation replays across a
// fleet of synapse-worker daemons (comma-separated host:port list) — the
// schedule stays local and the report stays byte-identical to a
// single-process run, at any fleet size. Jobs dispatch as contiguous
// fixed-size chunks (-chunk) that idle workers pull and, past the
// -steal-after straggler threshold, speculatively re-execute; a worker
// that fails is named on stderr and its chunks move to the survivors (see
// docs/distributed.md). Reports are deterministic for a fixed spec
// and seed: same inputs, byte-identical -out file (and byte-identical
// -trace file). See docs/scenarios.md for the spec format, including the
// events block (node failures, drains, additions, autoscaling).
//
// -cpuprofile and -memprofile write pprof profiles of the run (the same
// flags synapse-exp carries); -pprof serves net/http/pprof on the given
// address for the run's duration, so long scenarios can be flame-graphed
// live (see docs/profiling.md).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"synapse/internal/cluster"
	"synapse/internal/dist"
	"synapse/internal/scenario"
	"synapse/internal/storeclnt"
	"synapse/internal/telemetry"
)

// stdout is the CLI's output stream, replaceable in tests.
var stdout io.Writer = os.Stdout

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "synapse-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("synapse-sim", flag.ExitOnError)
	specPath := fs.String("scenario", "", "scenario spec file (JSON, required)")
	storeDir := fs.String("store", "synapse-store", "profile store directory or synapsed URL (http://host:port)")
	clusterPath := fs.String("cluster", "", "cluster description file (JSON); attaches or replaces the spec's cluster block")
	workers := fs.Int("workers", 0, "parallel emulation workers (0 = all cores)")
	out := fs.String("out", "", "write the full JSON report to this file")
	timeline := fs.String("timeline", "", "write the bucketed time-series as CSV to this file (enables a 1s-bucket timeline if the spec has none)")
	seed := fs.String("seed", "", "override the spec's seed (uint64; empty keeps the spec value)")
	tracePath := fs.String("trace", "", "write the run as Chrome trace-event JSON to this file (load in Perfetto or chrome://tracing)")
	progress := fs.Bool("progress", false, "paint a live progress meter (virtual time, arrivals/s, queue depth) on stderr")
	workersRemote := fs.String("workers-remote", "", "comma-separated synapse-worker addresses (host:port or http://host:port); distributes emulation replays across the fleet")
	chunk := fs.Int("chunk", 0, "jobs per dispatch chunk for -workers-remote — the unit of work stealing and speculation (0 = 256, negative = one chunk per dispatch)")
	stealAfter := fs.Duration("steal-after", 0, "straggler threshold for -workers-remote: in-flight chunks older than this are speculatively re-executed on idle workers (0 = adapt to observed p95 chunk latency, negative = disable speculation)")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile to this file at exit")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (host:port) for the run's duration")
	version := fs.Bool("version", false, "print version and build information, then exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		telemetry.PrintVersion(stdout, "synapse-sim")
		return nil
	}
	if *specPath == "" {
		return fmt.Errorf("no -scenario file given")
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "synapse-sim: mem profile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			_ = pprof.WriteHeapProfile(f)
		}()
	}
	if *pprofAddr != "" {
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof: %w", err)
		}
		defer ln.Close()
		go func() { _ = http.Serve(ln, nil) }()
		fmt.Fprintf(os.Stderr, "synapse-sim: pprof on http://%s/debug/pprof/\n", ln.Addr())
	}
	spec, err := scenario.Load(*specPath)
	if err != nil {
		return err
	}
	if *clusterPath != "" {
		data, err := os.ReadFile(*clusterPath)
		if err != nil {
			return fmt.Errorf("read cluster: %w", err)
		}
		cs, err := cluster.ParseSpec(data)
		if err != nil {
			return err
		}
		spec.Cluster = cs
		if err := spec.Validate(); err != nil {
			return err
		}
	}
	if *seed != "" {
		s, err := strconv.ParseUint(*seed, 10, 64)
		if err != nil {
			return fmt.Errorf("bad -seed %q: %w", *seed, err)
		}
		spec.Seed = s
	}
	if *timeline != "" && spec.Timeline == nil {
		spec.Timeline = &scenario.TimelineSpec{Bucket: scenario.Duration(time.Second)}
	}
	st, err := storeclnt.Open(*storeDir)
	if err != nil {
		return err
	}
	defer st.Close()

	// An interrupt cancels the run — store lookups, replays and, with
	// -workers-remote, every in-flight execute RPC — instead of killing the
	// process and orphaning the chunks the fleet is still computing.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := scenario.RunOptions{Workers: *workers}
	if *workersRemote != "" {
		var fleet []dist.Worker
		for _, addr := range strings.Split(*workersRemote, ",") {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				continue
			}
			if !strings.HasPrefix(addr, "http://") && !strings.HasPrefix(addr, "https://") {
				addr = "http://" + addr
			}
			fleet = append(fleet, dist.NewHTTPWorker(addr, nil))
		}
		if len(fleet) == 0 {
			return fmt.Errorf("-workers-remote lists no addresses")
		}
		co, err := dist.NewCoordinator(ctx, spec, st, dist.Config{
			Workers:    fleet,
			ChunkSize:  *chunk,
			StealAfter: *stealAfter,
			// Warnings only: a worker marked dead is the one event a
			// successful fleet run must not swallow.
			Logger: slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
		})
		if err != nil {
			return err
		}
		opts.Executor = co
		chunkDesc := fmt.Sprintf("chunks of %d jobs", co.ChunkSize())
		if co.ChunkSize() <= 0 {
			chunkDesc = "one chunk per dispatch"
		}
		fmt.Fprintf(stdout, "distributing replays across %d workers (%s)\n", len(fleet), chunkDesc)
	} else {
		switch {
		case *chunk != 0:
			return fmt.Errorf("-chunk requires -workers-remote")
		case *stealAfter != 0:
			return fmt.Errorf("-steal-after requires -workers-remote")
		}
	}
	var traceFile *os.File
	if *tracePath != "" {
		traceFile, err = os.Create(*tracePath)
		if err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		defer traceFile.Close()
		opts.Trace = traceFile
	}
	if *progress {
		opts.Progress = os.Stderr
	}
	rep, err := scenario.Run(ctx, spec, st, opts)
	if err != nil {
		return err
	}
	if traceFile != nil {
		if err := traceFile.Close(); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(stdout, "trace written to %s\n", *tracePath)
	}

	printSummary(stdout, rep)
	if *timeline != "" {
		f, err := os.Create(*timeline)
		if err != nil {
			return fmt.Errorf("write timeline: %w", err)
		}
		if err := rep.TimelineCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("write timeline: %w", err)
		}
		fmt.Fprintf(stdout, "timeline written to %s (%d buckets of %s)\n",
			*timeline, len(rep.Timeline.Buckets), rep.Timeline.Bucket)
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("write report: %w", err)
		}
		fmt.Fprintf(stdout, "report written to %s\n", *out)
	}
	return nil
}

// printSummary renders the human-readable view of the report; the JSON file
// carries the full detail.
func printSummary(w io.Writer, rep *scenario.Report) {
	name := rep.Scenario
	if name == "" {
		name = "(unnamed)"
	}
	fmt.Fprintf(w, "scenario %q (seed %d): %d emulations in %s (%.3f/s)",
		name, rep.Seed, rep.Emulations, rep.Makespan, rep.Throughput)
	if rep.Dropped > 0 {
		fmt.Fprintf(w, ", %d dropped", rep.Dropped)
	}
	if rep.Killed > 0 {
		fmt.Fprintf(w, ", %d killed and retried", rep.Killed)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-16s %-10s %6s %6s %12s %10s %10s %10s %10s\n",
		"workload", "machine", "done", "drop", "thru/s", "p50", "p99", "max", "wait-max")
	for _, wr := range rep.Workloads {
		fmt.Fprintf(w, "%-16s %-10s %6d %6d %12.3f %10s %10s %10s %10s\n",
			wr.Name, wr.Machine, wr.Emulations, wr.Dropped, wr.Throughput,
			wr.Latency.P50, wr.Latency.P99, wr.Latency.Max, wr.Wait.Max)
	}
	for _, wr := range rep.Workloads {
		if len(wr.BusyTime) == 0 {
			continue
		}
		parts := make([]string, 0, len(wr.BusyTime))
		for _, ab := range wr.BusyTime {
			parts = append(parts, fmt.Sprintf("%s %s", ab.Atom, ab.Busy))
		}
		fmt.Fprintf(w, "busy %-12s %s\n", wr.Name, strings.Join(parts, ", "))
	}
	if cr := rep.Cluster; cr != nil {
		fmt.Fprintf(w, "cluster policy %s: %d placements", cr.Policy, cr.Placements)
		if cr.Rejections > 0 {
			fmt.Fprintf(w, ", %d full-cluster rejections", cr.Rejections)
		}
		if cr.Events > 0 {
			fmt.Fprintf(w, ", %d events applied", cr.Events)
		}
		if cr.Autoscaled > 0 {
			fmt.Fprintf(w, ", %d nodes autoscaled in", cr.Autoscaled)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "%-16s %-10s %6s %6s %6s %6s %12s %6s %s\n",
			"node", "machine", "cores", "placed", "peak", "killed", "busy", "util", "state")
		for _, n := range cr.Nodes {
			state := n.State
			if state == "" {
				state = "up"
			}
			fmt.Fprintf(w, "%-16s %-10s %6d %6d %6d %6d %12s %5.1f%% %s\n",
				n.Name, n.Machine, n.Cores, n.Placed, n.PeakCores, n.Killed, n.Busy, 100*n.Utilization, state)
		}
	}
}
