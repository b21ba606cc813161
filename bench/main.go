// Command bench is the repository's benchmark: it builds the real binaries,
// generates every input from -seed, runs six workloads through the paths
// users take (synapse-sim, synapse-worker and synapsed as real processes on
// loopback), checks their outputs, and reports end-to-end metrics from
// untraced runs and a per-layer time budget from traced in-process passes.
//
//	bash bench/run.sh --seed 42                        all workloads, both modes
//	bash bench/run.sh --workload eager --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh compare a.json b.json            two result files
//
// With --workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Without it every workload
// runs untraced and traced, and bench/out/result.json holds the lot. See
// README.md in this directory for the metrics and how they interact.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) > 2 && os.Args[1] == "launch" {
		os.Exit(launchMain(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// resultFile is bench/out/result.json: a complete set of runs of one commit.
type resultFile struct {
	Seed       uint64    `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Scale      float64   `json:"scale"`
	NumCPU     int       `json:"nproc"`
	GoMaxProcs int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Results    []*result `json:"results"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	root := fs.String("root", ".", "repository root (the directory holding cmd/ and bench/)")
	name := fs.String("workload", "", "run one workload and print the driver's JSON line (default: all, both modes)")
	seed := fs.Uint64("seed", 42, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 10, "measuring time per workload and mode")
	trace := fs.Int("trace", 0, "with -workload: 0 reports end-to-end metrics, 1 per-layer metrics")
	scale := fs.Float64("scale", 1, "workload size factor (1 everywhere but the smoke test)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	cfg := &config{
		root:    *root,
		binDir:  filepath.Join(*root, ".bench_build", "bin"),
		outDir:  filepath.Join(*root, "bench", "out"),
		seed:    *seed,
		seconds: *seconds,
		scale:   *scale,
		setups:  3,
		minRuns: 3,
	}

	// One deadline for the whole invocation and one place where signals
	// land: every child is started under helpers that stop and reap it when
	// their caller returns, so cancelling ctx unwinds to no children left.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *name != "" {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, 170*time.Second)
		defer cancel()
	}

	build, err := buildBinaries(ctx, cfg.root, cfg.binDir)
	if err != nil {
		return err
	}
	fmt.Printf("# seed %d, %gs per workload and mode, scale %g, nproc %d, GOMAXPROCS %d, %s; build %.2fs\n",
		cfg.seed, cfg.seconds, cfg.scale, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), build.Seconds())
	fmt.Println("# each value is the median of its runs; with 3 to 15 runs no percentile has ten samples beyond it")

	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			return err
		}
		r, err := runOne(ctx, cfg, w, *trace != 0, build.Seconds())
		if err != nil {
			return err
		}
		line, err := r.contractLine()
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	}

	out := resultFile{Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale,
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	for i := range workloads {
		for _, traced := range []bool{false, true} {
			r, err := runOne(ctx, cfg, &workloads[i], traced, build.Seconds())
			if err != nil {
				return fmt.Errorf("%s: %w", workloads[i].name, err)
			}
			out.Results = append(out.Results, r)
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, "result.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("# results written to", path)
	for _, r := range out.Results {
		if !r.Correct {
			return fmt.Errorf("%s: %d of %d operations failed: %s", r.Workload, r.Failed, r.Attempted, r.FirstFailure)
		}
	}
	return nil
}

// runOne runs one workload in one mode and prints its metrics.
func runOne(ctx context.Context, cfg *config, w *workload, traced bool, buildS float64) (*result, error) {
	var r *result
	var err error
	if traced {
		r, err = runTraced(ctx, cfg, w, buildS)
	} else {
		r, err = runUntraced(ctx, cfg, w)
	}
	if err != nil {
		return nil, err
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	r.printTable(os.Stdout)
	return r, nil
}
