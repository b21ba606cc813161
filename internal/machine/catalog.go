package machine

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// Names of the applications and kernels known to the catalog.
const (
	AppMDSim   = "mdsim"   // the Gromacs-like synthetic MD application
	AppGromacs = "gromacs" // alias: the paper profiles Gromacs
	AppIOBench = "iobench" // the synthetic I/O workload of experiment E.5
	AppDefault = "default"

	KernelASM    = "asm"    // cache-resident matrix multiply (default kernel)
	KernelC      = "c"      // out-of-cache matrix multiply
	KernelOpenMP = "openmp" // OpenMP variant of the default kernel
)

// Catalog machine names. Thinkie is the profiling host in every paper
// experiment; the others are emulation/execution targets.
const (
	Thinkie  = "thinkie"
	Stampede = "stampede"
	Archer   = "archer"
	Supermic = "supermic"
	Comet    = "comet"
	Titan    = "titan"
	HostName = "host"
)

const (
	kb = int64(1) << 10
	mb = int64(1) << 20
	gb = int64(1) << 30
)

// mdsimParallel is the application's own scaling model; the emulator's
// Threading model is set per machine below.
func mdsimParallel(threadOv, procOv, startup time.Duration, contention float64) ParallelModel {
	return ParallelModel{
		SerialFrac:     0.01,
		ThreadOverhead: threadOv,
		ProcOverhead:   procOv,
		ProcStartup:    startup,
		Contention:     contention,
	}
}

// newCatalog constructs the calibrated models for the paper's testbeds. All
// numbers are calibrated against the published figures, not measured from the
// original hardware; the package doc records the substitution rationale and
// internal/exp's tests pin the paper-vs-reproduced values that matter.
func newCatalog() map[string]*Model {
	ms := []*Model{
		{
			// Off-the-shelf Intel Core i7 M620 laptop, the paper's
			// profiling resource for every experiment.
			Name:     Thinkie,
			ClockHz:  2.66e9,
			Cores:    4,
			MemBytes: 8 * gb,
			MemBW:    8e9,
			L1:       32 * kb, L2: 256 * kb, L3: 4 * mb,
			NetBW: 1.25e8, NetLat: 100 * time.Microsecond,
			FS: map[string]FSPerf{
				FSLocal: {30 * time.Microsecond, 60 * time.Microsecond, 450e6, 300e6},
			},
			DefaultFS: FSLocal,
			Apps: map[string]AppPerf{
				AppMDSim: {CyclesPerUnit: 140e3, IPC: 1.90,
					Parallel: mdsimParallel(40*time.Millisecond, 100*time.Millisecond, 600*time.Millisecond, 0.30)},
			},
			Kernels: map[string]KernelPerf{
				KernelASM: {IPC: 2.90, CalibBias: 1.020},
				KernelC:   {IPC: 2.50, CalibBias: 1.010},
			},
			Threading: ParallelModel{SerialFrac: 0.03, ThreadOverhead: 60 * time.Millisecond,
				ProcOverhead: 120 * time.Millisecond, ProcStartup: 800 * time.Millisecond, Contention: 0.40},
			NoiseRel: 0.030,
		},
		{
			// TACC Stampede: 2x8-core Xeon E5-2680 (Sandy Bridge),
			// local 250 GB HDD used for all experiment I/O.
			Name:     Stampede,
			ClockHz:  2.70e9,
			Cores:    16,
			MemBytes: 32 * gb,
			MemBW:    3.2e10,
			L1:       32 * kb, L2: 256 * kb, L3: 20 * mb,
			NetBW: 1e9, NetLat: 50 * time.Microsecond,
			FS: map[string]FSPerf{
				FSLocal: {150 * time.Microsecond, 300 * time.Microsecond, 140e6, 120e6},
			},
			DefaultFS: FSLocal,
			Apps: map[string]AppPerf{
				// Calibrated so that replaying a Thinkie profile is
				// ≈40 % faster than native execution (Fig 7 top).
				AppMDSim: {CyclesPerUnit: 247e3, IPC: 1.80,
					Parallel: mdsimParallel(35*time.Millisecond, 90*time.Millisecond, 700*time.Millisecond, 0.28)},
			},
			Kernels: map[string]KernelPerf{
				KernelASM: {IPC: 3.10, CalibBias: 1.060},
				KernelC:   {IPC: 2.70, CalibBias: 1.030},
			},
			Threading: ParallelModel{SerialFrac: 0.02, ThreadOverhead: 50 * time.Millisecond,
				ProcOverhead: 100 * time.Millisecond, ProcStartup: 900 * time.Millisecond, Contention: 0.30},
			NoiseRel: 0.020,
		},
		{
			// ARCHER: Cray XC30, 2x12-core E5-2697v2 (Ivy Bridge),
			// experiment I/O on node-local /tmp.
			Name:     Archer,
			ClockHz:  2.70e9,
			Cores:    24,
			MemBytes: 64 * gb,
			MemBW:    4.0e10,
			L1:       32 * kb, L2: 256 * kb, L3: 30 * mb,
			NetBW: 2e9, NetLat: 30 * time.Microsecond,
			FS: map[string]FSPerf{
				FSLocal: {150 * time.Microsecond, 300 * time.Microsecond, 130e6, 110e6},
			},
			DefaultFS: FSLocal,
			Apps: map[string]AppPerf{
				// Calibrated so that replaying a Thinkie profile is
				// ≈33 % slower than native execution (Fig 7 bottom):
				// the Cray-compiled application is better optimized
				// than the profiling host's build.
				AppMDSim: {CyclesPerUnit: 110e3, IPC: 2.10,
					Parallel: mdsimParallel(30*time.Millisecond, 80*time.Millisecond, 650*time.Millisecond, 0.26)},
			},
			Kernels: map[string]KernelPerf{
				KernelASM: {IPC: 3.20, CalibBias: 1.050},
				KernelC:   {IPC: 2.75, CalibBias: 1.020},
			},
			Threading: ParallelModel{SerialFrac: 0.02, ThreadOverhead: 45 * time.Millisecond,
				ProcOverhead: 90 * time.Millisecond, ProcStartup: 850 * time.Millisecond, Contention: 0.28},
			NoiseRel: 0.020,
		},
		{
			// LSU SuperMIC: 2x10-core Xeon E5-2680 (Ivy Bridge-EP);
			// the paper measures ~3.58–3.60 GHz effective clock.
			// All experiment I/O on Lustre unless noted.
			Name:     Supermic,
			ClockHz:  3.59e9,
			Cores:    20,
			MemBytes: 128 * gb,
			MemBW:    5.0e10,
			L1:       32 * kb, L2: 256 * kb, L3: 25 * mb,
			NetBW: 3e9, NetLat: 20 * time.Microsecond,
			FS: map[string]FSPerf{
				FSLustre: {400 * time.Microsecond, 4 * time.Millisecond, 750e6, 75e6},
				FSLocal:  {250 * time.Microsecond, 500 * time.Microsecond, 110e6, 55e6},
			},
			DefaultFS: FSLustre,
			Apps: map[string]AppPerf{
				// IPC 2.04 as measured in Fig 11 (bottom).
				AppMDSim: {CyclesPerUnit: 100e3, IPC: 2.04,
					Parallel: mdsimParallel(120*time.Millisecond, 40*time.Millisecond, 400*time.Millisecond, 0.30)},
			},
			Kernels: map[string]KernelPerf{
				// IPC and converged error percentages from Figs 8-11.
				KernelASM: {IPC: 2.86, CalibBias: 1.265},
				KernelC:   {IPC: 2.53, CalibBias: 1.040},
			},
			// OpenMPI outperforms OpenMP on SuperMIC (Fig 12): threads
			// pay heavy NUMA/sync overhead, processes are cheap.
			Threading: ParallelModel{SerialFrac: 0.02, ThreadOverhead: 300 * time.Millisecond,
				ProcOverhead: 50 * time.Millisecond, ProcStartup: 500 * time.Millisecond, Contention: 0.35},
			NoiseRel: 0.040,
		},
		{
			// SDSC Comet: 2x12-core Xeon E5-2680v3 (Haswell); the paper
			// measures ~2.88–2.90 GHz effective clock. I/O on NFS.
			Name:     Comet,
			ClockHz:  2.89e9,
			Cores:    24,
			MemBytes: 128 * gb,
			MemBW:    5.5e10,
			L1:       32 * kb, L2: 256 * kb, L3: 30 * mb,
			NetBW: 3e9, NetLat: 20 * time.Microsecond,
			FS: map[string]FSPerf{
				FSNFS:   {800 * time.Microsecond, 8 * time.Millisecond, 180e6, 18e6},
				FSLocal: {100 * time.Microsecond, 200 * time.Microsecond, 200e6, 150e6},
			},
			DefaultFS: FSNFS,
			Apps: map[string]AppPerf{
				// IPC 2.17 as measured in Fig 11 (top).
				AppMDSim: {CyclesPerUnit: 120e3, IPC: 2.17,
					Parallel: mdsimParallel(35*time.Millisecond, 70*time.Millisecond, 500*time.Millisecond, 0.25)},
			},
			Kernels: map[string]KernelPerf{
				// Converged cycle errors: C ≈3.5 %, ASM ≈14.5 % (Fig 8).
				KernelASM: {IPC: 3.30, CalibBias: 1.145},
				KernelC:   {IPC: 2.80, CalibBias: 1.035},
			},
			Threading: ParallelModel{SerialFrac: 0.02, ThreadOverhead: 55 * time.Millisecond,
				ProcOverhead: 95 * time.Millisecond, ProcStartup: 700 * time.Millisecond, Contention: 0.30},
			NoiseRel: 0.015,
		},
		{
			// OLCF Titan: 16-core AMD Opteron 6274 per node. I/O on
			// Lustre unless noted; node-local disk is fast.
			Name:     Titan,
			ClockHz:  2.20e9,
			Cores:    16,
			MemBytes: 32 * gb,
			MemBW:    2.5e10,
			L1:       16 * kb, L2: 2 * mb, L3: 8 * mb,
			NetBW: 4e9, NetLat: 15 * time.Microsecond,
			FS: map[string]FSPerf{
				// Lustre performs very similarly on Titan and SuperMIC
				// (Fig 15), while local storage differs significantly.
				FSLustre: {420 * time.Microsecond, 4200 * time.Microsecond, 780e6, 78e6},
				FSLocal:  {60 * time.Microsecond, 120 * time.Microsecond, 480e6, 240e6},
			},
			DefaultFS: FSLustre,
			Apps: map[string]AppPerf{
				AppMDSim: {CyclesPerUnit: 250e3, IPC: 1.30,
					Parallel: mdsimParallel(30*time.Millisecond, 80*time.Millisecond, 800*time.Millisecond, 0.25)},
			},
			Kernels: map[string]KernelPerf{
				KernelASM: {IPC: 2.10, CalibBias: 1.120},
				KernelC:   {IPC: 1.80, CalibBias: 1.050},
			},
			// OpenMP outperforms OpenMPI on Titan (Fig 12).
			Threading: ParallelModel{SerialFrac: 0.02, ThreadOverhead: 50 * time.Millisecond,
				ProcOverhead: 150 * time.Millisecond, ProcStartup: 1 * time.Second, Contention: 0.30},
			NoiseRel: 0.010,
		},
	}

	catalog := make(map[string]*Model, len(ms))
	for _, m := range ms {
		// The Gromacs alias and a generic default share MDSim's numbers:
		// the proxy application is indistinguishable from the real one
		// at the counter level (that is the point of the paper).
		if a, ok := m.Apps[AppMDSim]; ok {
			m.Apps[AppGromacs] = a
			m.Apps[AppDefault] = a
			// The I/O benchmark burns almost no CPU.
			m.Apps[AppIOBench] = AppPerf{CyclesPerUnit: 1e3, IPC: 1.2, Parallel: a.Parallel}
		}
		// The OpenMP kernel shares the default kernel's per-iteration
		// behaviour; parallel distribution is handled by the emulator.
		if k, ok := m.Kernels[KernelASM]; ok {
			m.Kernels[KernelOpenMP] = k
		}
		catalog[m.Name] = m
	}
	return catalog
}

var catalog = newCatalog()

// Get returns the model for the named machine. Name matching is exact and
// lower-case; Host() is returned for "host"; user models added with
// Register are consulted after the built-in catalog.
func Get(name string) (*Model, error) {
	if name == HostName {
		return Host(), nil
	}
	if m, ok := catalog[name]; ok {
		return m, nil
	}
	if m, ok := lookupExtra(name); ok {
		return m, nil
	}
	return nil, fmt.Errorf("machine: unknown machine %q (known: %v)", name, Names())
}

// MustGet is Get for tests and internal callers with catalog-constant names;
// it panics on unknown machines.
func MustGet(name string) *Model {
	m, err := Get(name)
	if err != nil {
		panic(err)
	}
	return m
}

// Names returns the sorted names of catalog machines (not including "host").
func Names() []string {
	names := make([]string, 0, len(catalog))
	for n := range catalog {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// hostModel is built once; the host's true clock rate is unknown without a
// calibration run, so a conservative nominal value is used. Real-mode
// profiling derives cycle counts from CPU time and this nominal clock, which
// keeps derived metrics consistent even if absolute cycle counts are only
// estimates (the same caveat the paper makes for its utilization metric).
var hostModel = func() *Model {
	m := &Model{
		Name:     HostName,
		ClockHz:  2.5e9,
		Cores:    runtime.NumCPU(),
		MemBytes: 8 * gb,
		MemBW:    1e10,
		L1:       32 * kb, L2: 256 * kb, L3: 8 * mb,
		NetBW: 1e9, NetLat: 50 * time.Microsecond,
		FS: map[string]FSPerf{
			FSLocal: {100 * time.Microsecond, 200 * time.Microsecond, 200e6, 150e6},
		},
		DefaultFS: FSLocal,
		Apps: map[string]AppPerf{
			AppDefault: {CyclesPerUnit: 140e3, IPC: 1.9,
				Parallel: mdsimParallel(40*time.Millisecond, 100*time.Millisecond, 600*time.Millisecond, 0.3)},
		},
		Kernels: map[string]KernelPerf{
			KernelASM:    {IPC: 3.0, CalibBias: 1.0},
			KernelC:      {IPC: 2.5, CalibBias: 1.0},
			KernelOpenMP: {IPC: 3.0, CalibBias: 1.0},
		},
		Threading: ParallelModel{SerialFrac: 0.03, ThreadOverhead: 20 * time.Millisecond,
			ProcOverhead: 50 * time.Millisecond, ProcStartup: 300 * time.Millisecond, Contention: 0.3},
		NoiseRel: 0.05,
	}
	m.Apps[AppMDSim] = m.Apps[AppDefault]
	m.Apps[AppGromacs] = m.Apps[AppDefault]
	return m
}()

// Host returns a model describing the machine this process runs on. It is
// used by real-mode profiling and emulation.
func Host() *Model { return hostModel }
