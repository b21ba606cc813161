// Package machine models the compute resources Synapse runs on.
//
// The paper evaluates Synapse on six physical testbeds (Thinkie, Stampede,
// Archer, Supermic, Comet, Titan). None of that hardware is available to a
// reproduction, so this package provides the substitution (README.md has
// the overview): an analytic resource model per machine — clock rate, cores,
// cache hierarchy, per-application and per-kernel performance, and
// per-filesystem I/O cost tables — calibrated so that the relative behaviours
// reported in the paper's evaluation hold. The same interfaces also describe
// the real host (see Host), which lets the profiler and emulator run in
// either simulated or real mode.
package machine

import (
	"fmt"
	"sort"
	"time"
)

// Filesystem kinds used across the catalog. These match the filesystems the
// paper's experiments touch: node-local disks, Lustre and NFS.
const (
	FSLocal  = "local"
	FSLustre = "lustre"
	FSNFS    = "nfs"
	FSTmp    = "tmp" // alias some machines expose for their local scratch
)

// FSPerf is the per-filesystem I/O cost model. One I/O operation of b bytes
// costs latency + b/bandwidth; a transfer of B bytes issued in blocks of s
// bytes therefore costs ceil(B/s)*latency + B/bandwidth. This reproduces the
// paper's E.5 observation that many small operations are far slower than few
// large ones, and that writes are roughly an order of magnitude slower than
// reads on shared filesystems.
type FSPerf struct {
	ReadLatency  time.Duration
	WriteLatency time.Duration
	ReadBW       float64 // bytes/second
	WriteBW      float64 // bytes/second
}

// ReadTime returns the modeled time to read total bytes using the given
// block size. A non-positive block size means one single operation.
func (f FSPerf) ReadTime(total, block int64) time.Duration {
	return ioTime(total, block, f.ReadLatency, f.ReadBW)
}

// WriteTime returns the modeled time to write total bytes using the given
// block size.
func (f FSPerf) WriteTime(total, block int64) time.Duration {
	return ioTime(total, block, f.WriteLatency, f.WriteBW)
}

func ioTime(total, block int64, lat time.Duration, bw float64) time.Duration {
	if total <= 0 {
		return 0
	}
	if block <= 0 || block > total {
		block = total
	}
	ops := total / block
	if total%block != 0 {
		ops++
	}
	sec := float64(total) / bw
	return time.Duration(ops)*lat + time.Duration(sec*float64(time.Second))
}

// KernelPerf describes how one emulation kernel behaves on one machine.
type KernelPerf struct {
	// IPC is the effective instructions-per-cycle the kernel's inner loop
	// achieves on this machine (cache-resident kernels run closer to the
	// issue width; out-of-cache kernels stall more).
	IPC float64
	// CalibBias is the ratio of cycles actually consumed to cycles the
	// kernel was directed to consume. Kernels self-calibrate their
	// cycles-per-iteration in a short run whose regime (cold caches,
	// timer overhead) differs from the bulk loop, producing the constant
	// relative error the paper observes in experiment E.3 (C kernel
	// ≈3.5–4 %, ASM kernel ≈14.5–26.5 %).
	CalibBias float64
	// ChunkCycles is the kernel's consumption granularity: work is
	// dispatched in whole chunks, so small targets overshoot by up to one
	// chunk. Zero selects the default (2e7 cycles). The decaying head of
	// the E.3 error curves comes from this granularity.
	ChunkCycles float64
}

// DefaultChunkCycles is used when a kernel does not specify its granularity.
const DefaultChunkCycles = 2e7

// Chunk returns the kernel's effective dispatch granularity.
func (k KernelPerf) Chunk() float64 {
	if k.ChunkCycles > 0 {
		return k.ChunkCycles
	}
	return DefaultChunkCycles
}

// AppPerf describes how a profiled application behaves on one machine. The
// paper attributes cross-machine differences to compile-time optimization and
// microarchitecture (§4.5 "Application Optimization"); both are captured by
// machine-specific cycles-per-work-unit and IPC.
type AppPerf struct {
	// CyclesPerUnit is the CPU cycles one unit of application work costs
	// on this machine (for MDSim one unit is one iteration step).
	CyclesPerUnit float64
	// IPC is the application's achieved instructions per cycle.
	IPC float64
	// Parallel describes how the application itself scales when built
	// with OpenMP or MPI (used for the Fig 13/14 baselines).
	Parallel ParallelModel
}

// Instructions returns the instruction count corresponding to cycles at this
// application's IPC.
func (a AppPerf) Instructions(cycles float64) float64 { return cycles * a.IPC }

// ParallelModel captures single-node scaling behaviour: Amdahl's law plus a
// per-worker overhead and a contention term that erodes gains as the node
// fills up (the paper's Fig 12: "good scaling for small core numbers, but
// diminishing return for larger core numbers, where overall system stress
// limits potential performance gains").
type ParallelModel struct {
	SerialFrac     float64       // fraction of work that does not parallelize
	ThreadOverhead time.Duration // added per extra thread (OpenMP mode)
	ProcOverhead   time.Duration // added per extra process (MPI mode)
	ProcStartup    time.Duration // one-time cost of spawning processes
	Contention     float64       // relative slowdown at full node occupancy
}

// Mode selects thread- or process-based parallelism.
type Mode int

// Parallelism modes. ModeOpenMP shares one address space (threads), ModeMPI
// duplicates resource usage across processes, mirroring the paper's
// OpenMP/OpenMPI emulation modes.
const (
	ModeSerial Mode = iota
	ModeOpenMP
	ModeMPI
)

// String returns the conventional name of the mode.
func (m Mode) String() string {
	switch m {
	case ModeOpenMP:
		return "OpenMP"
	case ModeMPI:
		return "MPI"
	default:
		return "serial"
	}
}

// ScaleWork returns the modeled parallel runtime of the work itself —
// Amdahl's law plus contention — without the one-time worker-pool overheads.
// The emulator applies ScaleWork per replayed sample and SetupOverhead once
// per run.
func (p ParallelModel) ScaleWork(tSerial time.Duration, n, cores int, mode Mode) time.Duration {
	if n <= 1 || mode == ModeSerial {
		return tSerial
	}
	if cores < 1 {
		cores = 1
	}
	par := 1 - p.SerialFrac
	// Amdahl core.
	t := float64(tSerial) * (p.SerialFrac + par/float64(n))
	// Contention: the parallel portion slows as the node fills.
	occupancy := float64(n) / float64(cores)
	if occupancy > 1 {
		occupancy = 1
	}
	t *= 1 + p.Contention*occupancy
	return time.Duration(t)
}

// SetupOverhead returns the one-time cost of standing up n workers in the
// given mode: thread spawn/sync for OpenMP, process launch for MPI.
func (p ParallelModel) SetupOverhead(n int, mode Mode) time.Duration {
	if n <= 1 || mode == ModeSerial {
		return 0
	}
	switch mode {
	case ModeOpenMP:
		return p.ThreadOverhead * time.Duration(n-1)
	case ModeMPI:
		return p.ProcOverhead*time.Duration(n-1) + p.ProcStartup
	default:
		return 0
	}
}

// Scale returns the modeled parallel runtime for a serial duration tSerial
// distributed over n workers on a node with cores cores, including the
// one-time setup overhead.
func (p ParallelModel) Scale(tSerial time.Duration, n, cores int, mode Mode) time.Duration {
	return p.ScaleWork(tSerial, n, cores, mode) + p.SetupOverhead(n, mode)
}

// Model is the full description of one machine.
type Model struct {
	Name     string
	ClockHz  float64 // effective cycles per second (includes turbo, as measured)
	Cores    int
	MemBytes int64
	MemBW    float64 // bytes/second main-memory bandwidth
	L1, L2   int64   // per-core cache sizes in bytes
	L3       int64   // shared cache size in bytes

	// NetBW/NetLat model socket traffic for the network atom.
	NetBW  float64
	NetLat time.Duration

	// FS maps filesystem kind to its cost model; DefaultFS is used when a
	// workload does not name a filesystem.
	FS        map[string]FSPerf
	DefaultFS string

	// Apps maps application name to its per-machine performance.
	Apps map[string]AppPerf
	// Kernels maps emulation-kernel name to its per-machine performance.
	Kernels map[string]KernelPerf

	// Threading describes how the *emulator's* parallel modes behave on
	// this machine (Fig 12); distinct from each application's own model.
	Threading ParallelModel

	// NoiseRel is the relative run-to-run noise of measurements on this
	// machine (system background); simulated runs jitter results by it.
	NoiseRel float64
}

// ComputeTime returns the wall time to retire the given number of cycles on
// one core of this machine.
func (m *Model) ComputeTime(cycles float64) time.Duration {
	if cycles <= 0 || m.ClockHz <= 0 {
		return 0
	}
	return time.Duration(cycles / m.ClockHz * float64(time.Second))
}

// Cycles returns the number of cycles retired in d on one core.
func (m *Model) Cycles(d time.Duration) float64 {
	return d.Seconds() * m.ClockHz
}

// MemTime returns the modeled time to touch (allocate and fill, or free)
// bytes of main memory.
func (m *Model) MemTime(bytes int64) time.Duration {
	if bytes <= 0 || m.MemBW <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / m.MemBW * float64(time.Second))
}

// NetTime returns the modeled time to transfer bytes over the network in
// blocks of block bytes.
func (m *Model) NetTime(bytes, block int64) time.Duration {
	if m.NetBW <= 0 {
		return 0
	}
	return ioTime(bytes, block, m.NetLat, m.NetBW)
}

// Filesystem returns the cost model for the named filesystem, falling back
// to the machine's default when name is empty, and an error when the machine
// has no such filesystem.
func (m *Model) Filesystem(name string) (FSPerf, error) {
	if name == "" {
		name = m.DefaultFS
	}
	if name == FSTmp {
		// /tmp is node-local storage on every catalog machine.
		if _, ok := m.FS[FSTmp]; !ok {
			name = FSLocal
		}
	}
	fs, ok := m.FS[name]
	if !ok {
		return FSPerf{}, fmt.Errorf("machine %s: unknown filesystem %q", m.Name, name)
	}
	return fs, nil
}

// App returns the performance description of the named application on this
// machine. Unknown applications fall back to the "default" entry if present.
func (m *Model) App(name string) (AppPerf, error) {
	if a, ok := m.Apps[name]; ok {
		return a, nil
	}
	if a, ok := m.Apps["default"]; ok {
		return a, nil
	}
	return AppPerf{}, fmt.Errorf("machine %s: unknown application %q", m.Name, name)
}

// Kernel returns the performance description of the named emulation kernel
// on this machine.
func (m *Model) Kernel(name string) (KernelPerf, error) {
	if k, ok := m.Kernels[name]; ok {
		return k, nil
	}
	return KernelPerf{}, fmt.Errorf("machine %s: unknown kernel %q", m.Name, name)
}

// Validate reports the first inconsistency in the model, or nil.
func (m *Model) Validate() error {
	switch {
	case m.Name == "":
		return fmt.Errorf("machine: empty name")
	case m.ClockHz <= 0:
		return fmt.Errorf("machine %s: non-positive clock", m.Name)
	case m.Cores <= 0:
		return fmt.Errorf("machine %s: non-positive cores", m.Name)
	case m.MemBytes <= 0:
		return fmt.Errorf("machine %s: non-positive memory", m.Name)
	case m.MemBW <= 0:
		return fmt.Errorf("machine %s: non-positive memory bandwidth", m.Name)
	}
	if m.DefaultFS != "" {
		if _, ok := m.FS[m.DefaultFS]; !ok {
			return fmt.Errorf("machine %s: default filesystem %q not in FS table", m.Name, m.DefaultFS)
		}
	}
	for name, fs := range m.FS {
		if fs.ReadBW <= 0 || fs.WriteBW <= 0 {
			return fmt.Errorf("machine %s: filesystem %q has non-positive bandwidth", m.Name, name)
		}
		if fs.ReadLatency < 0 || fs.WriteLatency < 0 {
			return fmt.Errorf("machine %s: filesystem %q has negative latency", m.Name, name)
		}
	}
	for name, k := range m.Kernels {
		if k.IPC <= 0 || k.CalibBias <= 0 {
			return fmt.Errorf("machine %s: kernel %q has non-positive IPC or bias", m.Name, name)
		}
	}
	for name, a := range m.Apps {
		if a.CyclesPerUnit <= 0 || a.IPC <= 0 {
			return fmt.Errorf("machine %s: app %q has non-positive cycles/unit or IPC", m.Name, name)
		}
	}
	return nil
}

// FSNames returns the machine's filesystem names, sorted.
func (m *Model) FSNames() []string {
	names := make([]string, 0, len(m.FS))
	for n := range m.FS {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
