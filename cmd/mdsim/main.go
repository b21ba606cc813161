// mdsim is a real, runnable synthetic molecular-dynamics application — the
// repository's stand-in for Gromacs (see internal/app). It actually burns CPU
// (Lennard-Jones force evaluations via internal/kernels), reads an input
// deck, writes trajectory frames, and holds a steady working set, with the
// same observable signature the paper relies on: -steps drives CPU and disk
// output, while input and memory stay constant.
//
// Usage:
//
//	mdsim -steps 50000 [-out traj.dat] [-in input.dat] [-workers 4 -mode openmp]
//
// Profile it for real with:
//
//	synapse profile -real -rate 10 -- mdsim -steps 50000
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"synapse/internal/kernels"
	"synapse/internal/telemetry"
)

const (
	inputBytes   = 5 << 20 // fixed input deck size
	frameBytes   = 4096    // one trajectory frame
	stepsPerIter = 8       // MD steps advanced per kernel iteration
	framePeriod  = 100     // steps between trajectory frames
)

func main() {
	steps := flag.Int("steps", 10000, "number of MD iteration steps")
	input := flag.String("in", "", "input deck path (generated if absent)")
	output := flag.String("out", "", "trajectory output path (default mdsim-traj.dat)")
	workers := flag.Int("workers", 1, "parallel workers")
	mode := flag.String("mode", "openmp", "parallel mode: openmp (threads)")
	quiet := flag.Bool("q", false, "suppress progress output")
	version := flag.Bool("version", false, "print version and build information, then exit")
	flag.Parse()
	if *version {
		telemetry.PrintVersion(os.Stdout, "mdsim")
		return
	}

	if err := run(*steps, *input, *output, *workers, *mode, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "mdsim:", err)
		os.Exit(1)
	}
}

func run(steps int, input, output string, workers int, mode string, quiet bool) error {
	start := time.Now()

	// Startup: read the input deck (creating a deterministic one when no
	// path is given), like a topology + coordinates load.
	if input == "" {
		f, err := os.CreateTemp("", "mdsim-input-")
		if err != nil {
			return err
		}
		input = f.Name()
		defer os.Remove(input)
		buf := make([]byte, 1<<20)
		for i := range buf {
			buf[i] = byte(i * 31)
		}
		for w := 0; w < inputBytes/len(buf); w++ {
			if _, err := f.Write(buf); err != nil {
				return err
			}
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	deck, err := os.ReadFile(input)
	if err != nil {
		return fmt.Errorf("read input: %w", err)
	}
	if output == "" {
		output = "mdsim-traj.dat"
	}
	traj, err := os.Create(output)
	if err != nil {
		return fmt.Errorf("create output: %w", err)
	}
	defer traj.Close()

	// The working set: particle system (constant size regardless of steps).
	k := kernels.NewLJ()
	_ = deck // the deck seeds nothing further; its read is the I/O signature

	frame := make([]byte, frameBytes)
	iters := steps / stepsPerIter
	if iters < 1 && steps > 0 {
		iters = 1
	}
	framesEvery := framePeriod / stepsPerIter
	if framesEvery < 1 {
		framesEvery = 1
	}

	var checksum float64
	for i := 0; i < iters; i++ {
		if workers > 1 && mode == "openmp" {
			if err := kernels.RunParallel("lj", workers, workers); err != nil {
				return err
			}
		} else {
			checksum += k.Run(1)
		}
		if i%framesEvery == 0 {
			for j := range frame {
				frame[j] = byte(int(checksum) + i + j)
			}
			if _, err := traj.Write(frame); err != nil {
				return fmt.Errorf("write frame: %w", err)
			}
		}
	}
	if err := traj.Sync(); err != nil {
		// Non-fatal on filesystems without fsync.
		_ = err
	}
	if !quiet {
		fmt.Printf("mdsim: %d steps in %.3fs (checksum %g)\n", steps, time.Since(start).Seconds(), checksum)
	}
	return nil
}
