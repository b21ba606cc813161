// synapse-exp regenerates every table and figure of the paper's evaluation
// section (§5) and prints them as ASCII tables; with -out it also writes one
// .txt and one .csv file per artifact. -quick runs the reduced configuration
// used by the test suite; the default runs the full problem sizes (the 10M
// step configurations take a few seconds of wall time — simulated time runs
// at many orders of magnitude faster than real time).
//
// Figure cells run concurrently across -workers goroutines (all cores by
// default); the emitted tables are byte-identical at any worker count. The
// -cpuprofile/-memprofile/-blockprofile flags write pprof profiles of the
// run (see docs/profiling.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"synapse/internal/exp"
	"synapse/internal/telemetry"
)

func main() {
	// The body lives in run so its defers — which flush the pprof
	// profiles — execute on error paths too; os.Exit happens only here,
	// after everything is written.
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "synapse-exp:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("synapse-exp", flag.ExitOnError)
	quick := fs.Bool("quick", false, "reduced sizes and repetitions")
	out := fs.String("out", "", "directory for .txt/.csv exports (optional)")
	reps := fs.Int("reps", 0, "repetitions for error bars (0 = default)")
	only := fs.String("only", "", "print and export only the experiment with this ID (e.g. fig7)")
	workers := fs.Int("workers", 0, "parallel figure-cell workers (0 = all cores, 1 = serial)")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile to this file")
	blockprofile := fs.String("blockprofile", "", "write a pprof block profile to this file")
	version := fs.Bool("version", false, "print version and build information, then exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		telemetry.PrintVersion(stdout, "synapse-exp")
		return nil
	}

	cfg := exp.DefaultConfig()
	if *quick {
		cfg = exp.QuickConfig()
	}
	if *reps > 0 {
		cfg.Reps = *reps
	}
	cfg.Workers = *workers

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
	if *blockprofile != "" {
		runtime.SetBlockProfileRate(1)
		defer func() {
			f, err := os.Create(*blockprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "synapse-exp: block profile:", err)
				return
			}
			defer f.Close()
			_ = pprof.Lookup("block").WriteTo(f, 0)
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "synapse-exp: mem profile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			_ = pprof.WriteHeapProfile(f)
		}()
	}

	start := time.Now()
	tables, err := exp.All(cfg)
	if err != nil {
		return err
	}

	printed := 0
	for _, t := range tables {
		if *only != "" && t.ID != *only {
			continue
		}
		printed++
		fmt.Fprintln(stdout, t.String())
		if *out != "" {
			if err := export(*out, t); err != nil {
				return err
			}
		}
	}
	if printed == 0 {
		ids := make([]string, len(tables))
		for i, t := range tables {
			ids[i] = t.ID
		}
		return fmt.Errorf("-only %q matches no experiment (have %s)", *only, strings.Join(ids, ", "))
	}
	fmt.Fprintf(stdout, "regenerated %d artifacts in %.1fs wall time\n", len(tables), time.Since(start).Seconds())
	return nil
}

func export(dir string, t *exp.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, t.ID+".txt"), []byte(t.String()), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, t.ID+".csv"), []byte(t.CSV()), 0o644)
}
