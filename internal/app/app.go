// Package app defines synthetic application workload models.
//
// The paper's evaluation profiles Gromacs; this reproduction substitutes
// MDSim, a parameterised synthetic molecular-dynamics application with the
// same observable resource signature (see README.md): the iteration count
// drives CPU consumption and disk output linearly while disk input and
// memory stay constant. Workloads are expressed in machine-independent work
// units; internal/machine maps units to cycles per machine and internal/proc
// executes workloads on simulated machines.
package app

import (
	"fmt"

	"synapse/internal/machine"
)

// Phase is one contiguous segment of application activity. All quantities
// are machine independent; durations emerge when a phase is executed against
// a machine model.
type Phase struct {
	Name string

	// ComputeUnits is application work in abstract units (for MDSim, one
	// unit is one MD iteration step). The machine's AppPerf maps units to
	// cycles, instructions and FLOPs.
	ComputeUnits float64
	// FLOPsPerUnit scales how many floating-point operations one unit
	// carries (counted, not timed).
	FLOPsPerUnit float64

	// Storage I/O.
	ReadBytes  int64
	WriteBytes int64
	ReadBlock  int64 // bytes per read operation (0 = one operation)
	WriteBlock int64
	Filesystem string // "" = machine default

	// Memory traffic.
	AllocBytes int64
	FreeBytes  int64

	// RSSStart/RSSEnd describe the resident-set gauge ramp across the
	// phase (bytes). A zero RSSEnd keeps RSSStart level.
	RSSStart, RSSEnd float64

	// WaitSeconds is time spent blocked without consuming any resource —
	// the paper's sleep(3) example (§4.5 "Application Semantics"), which
	// black-box profiling observes only as elapsed time.
	WaitSeconds float64

	// Network traffic (emulation-only in the paper; profiled here only
	// by the simulated substrate).
	NetReadBytes  int64
	NetWriteBytes int64
	NetBlock      int64

	// Blend mixes all activity of the phase uniformly over its duration
	// (steady-state interleaving, e.g. compute with periodic trajectory
	// writes). Unblended phases execute their activities sequentially:
	// read, alloc, compute, write, network, free, wait.
	Blend bool
}

// Workload is a full application execution plan plus its identity (command
// line and tags) used as the profile search key.
type Workload struct {
	// App names the application model for machine.AppPerf lookup.
	App string
	// Command is the command-line representation used as the store key.
	Command string
	// Tags distinguish workloads sharing a command line (paper §4).
	Tags map[string]string

	Phases []Phase

	// Workers and Mode describe the application's own parallelism
	// (1/serial for the profiled runs in the paper's E.1–E.3).
	Workers int
	Mode    machine.Mode
}

// TotalComputeUnits sums compute units across phases.
func (w Workload) TotalComputeUnits() float64 {
	var u float64
	for _, p := range w.Phases {
		u += p.ComputeUnits
	}
	return u
}

// TotalWriteBytes sums storage writes across phases.
func (w Workload) TotalWriteBytes() int64 {
	var n int64
	for _, p := range w.Phases {
		n += p.WriteBytes
	}
	return n
}

// TotalReadBytes sums storage reads across phases.
func (w Workload) TotalReadBytes() int64 {
	var n int64
	for _, p := range w.Phases {
		n += p.ReadBytes
	}
	return n
}

// Validate reports the first inconsistency in the workload, or nil.
func (w Workload) Validate() error {
	if w.App == "" {
		return fmt.Errorf("app: workload has no application name")
	}
	if w.Command == "" {
		return fmt.Errorf("app: workload has no command")
	}
	if w.Workers < 0 {
		return fmt.Errorf("app: negative worker count")
	}
	for i, p := range w.Phases {
		if p.ComputeUnits < 0 || p.ReadBytes < 0 || p.WriteBytes < 0 ||
			p.AllocBytes < 0 || p.FreeBytes < 0 || p.WaitSeconds < 0 {
			return fmt.Errorf("app: phase %d (%s) has negative quantities", i, p.Name)
		}
	}
	return nil
}

// MDSim constants: the synthetic MD application's machine-independent shape.
const (
	// MDSimInputBytes is the fixed topology/coordinate input read at
	// startup (independent of step count, like Gromacs').
	MDSimInputBytes = 5 << 20
	// MDSimStartupUnits is the fixed setup work (neighbour lists, FFT
	// plans); ~0.3 s on the profiling host.
	MDSimStartupUnits = 6000
	// MDSimBytesPerStep is trajectory output per step on average (one
	// frame every 100 steps).
	MDSimBytesPerStep = 5.12
	// MDSimRSSBase / MDSimRSSPeak bound the resident-set ramp (bytes),
	// matching the 2–6 MB range of paper Fig 6 (bottom).
	MDSimRSSBase = 2.0e6
	MDSimRSSPeak = 6.0e6
	// MDSimFLOPsPerUnit counts floating-point work per step.
	MDSimFLOPsPerUnit = 90e3
	// MDSimWriteBlock is the trajectory frame size (one write op each).
	MDSimWriteBlock = 4096
)

// MDSim returns the Gromacs-like workload for the given number of iteration
// steps. Steps drive CPU and disk output; input and memory are constant —
// exactly the knobs the paper turns in experiments E.1–E.4.
func MDSim(steps int) Workload {
	if steps < 0 {
		steps = 0
	}
	writeBytes := int64(float64(steps) * MDSimBytesPerStep)
	return Workload{
		App:     machine.AppMDSim,
		Command: "mdsim",
		Tags:    map[string]string{"steps": fmt.Sprintf("%d", steps)},
		Workers: 1,
		Mode:    machine.ModeSerial,
		Phases: []Phase{
			{
				Name:         "startup",
				ComputeUnits: MDSimStartupUnits,
				FLOPsPerUnit: MDSimFLOPsPerUnit / 3, // setup is less FP heavy
				ReadBytes:    MDSimInputBytes,
				ReadBlock:    1 << 20,
				AllocBytes:   int64(MDSimRSSPeak - MDSimRSSBase),
				RSSStart:     MDSimRSSBase,
				RSSEnd:       MDSimRSSBase + 0.1*(MDSimRSSPeak-MDSimRSSBase),
			},
			{
				Name:         "dynamics",
				ComputeUnits: float64(steps),
				FLOPsPerUnit: MDSimFLOPsPerUnit,
				WriteBytes:   writeBytes,
				WriteBlock:   MDSimWriteBlock,
				RSSStart:     MDSimRSSBase + 0.1*(MDSimRSSPeak-MDSimRSSBase),
				RSSEnd:       MDSimRSSPeak,
				Blend:        true,
			},
		},
	}
}

// MDSimParallel returns an MDSim workload configured to run with n workers
// in the given mode (the Fig 13/14 baselines: Gromacs itself built with
// OpenMP or MPI).
func MDSimParallel(steps, n int, mode machine.Mode) Workload {
	w := MDSim(steps)
	w.Workers = n
	w.Mode = mode
	w.Command = fmt.Sprintf("mdsim -%s", mode)
	w.Tags["workers"] = fmt.Sprintf("%d", n)
	w.Tags["mode"] = mode.String()
	return w
}

// IOBench returns the synthetic I/O workload of experiment E.5: write a file
// of totalBytes in blocks of blockBytes to the named filesystem, then read
// it back with the same granularity. Compute is negligible by construction.
func IOBench(totalBytes, blockBytes int64, fs string) Workload {
	return Workload{
		App:     machine.AppIOBench,
		Command: "synapse-iobench",
		Tags: map[string]string{
			"bytes": fmt.Sprintf("%d", totalBytes),
			"block": fmt.Sprintf("%d", blockBytes),
			"fs":    fs,
		},
		Workers: 1,
		Phases: []Phase{
			{
				Name:       "write",
				WriteBytes: totalBytes,
				WriteBlock: blockBytes,
				Filesystem: fs,
				RSSStart:   1e6,
			},
			{
				Name:       "read",
				ReadBytes:  totalBytes,
				ReadBlock:  blockBytes,
				Filesystem: fs,
				RSSStart:   1e6,
			},
		},
	}
}

// Sleeper returns a workload that blocks for the given seconds while
// consuming almost nothing — the paper's canonical example of behaviour
// that sample-based black-box profiling cannot attribute (§4.5): profiled
// Tx is large, profiled resource consumption near zero, so the emulation
// finishes almost immediately.
func Sleeper(seconds float64) Workload {
	return Workload{
		App:     machine.AppDefault,
		Command: "sleep",
		Tags:    map[string]string{"seconds": fmt.Sprintf("%g", seconds)},
		Workers: 1,
		Phases: []Phase{
			{
				Name:        "sleep",
				WaitSeconds: seconds,
				RSSStart:    5e5,
			},
		},
	}
}

// MemRamp returns a workload that allocates then frees memory in steps,
// exercising the memory atom: total bytes allocated ramp the RSS up and
// frees ramp it down.
func MemRamp(totalBytes int64) Workload {
	half := totalBytes / 2
	return Workload{
		App:     machine.AppDefault,
		Command: "synapse-memramp",
		Tags:    map[string]string{"bytes": fmt.Sprintf("%d", totalBytes)},
		Workers: 1,
		Phases: []Phase{
			{
				Name:         "grow",
				ComputeUnits: 500,
				AllocBytes:   totalBytes,
				RSSStart:     1e6,
				RSSEnd:       1e6 + float64(totalBytes),
				Blend:        true,
			},
			{
				Name:         "shrink",
				ComputeUnits: 500,
				FreeBytes:    half,
				RSSStart:     1e6 + float64(totalBytes),
				RSSEnd:       1e6 + float64(totalBytes-half),
				Blend:        true,
			},
		},
	}
}

// NetEcho returns a workload exchanging bytes over the network in both
// directions, exercising the (partially supported) network atom.
func NetEcho(bytes, block int64) Workload {
	return Workload{
		App:     machine.AppDefault,
		Command: "synapse-netecho",
		Tags:    map[string]string{"bytes": fmt.Sprintf("%d", bytes)},
		Workers: 1,
		Phases: []Phase{
			{
				Name:          "echo",
				ComputeUnits:  100,
				NetReadBytes:  bytes,
				NetWriteBytes: bytes,
				NetBlock:      block,
				RSSStart:      1e6,
				Blend:         true,
			},
		},
	}
}
