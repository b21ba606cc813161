// Package perfcount provides the hardware-counter substrate.
//
// The paper's profiler reads CPU activity from perf-stat, memory and disk
// counters from /proc, and process totals from rusage. This reproduction has
// no guaranteed access to perf counters (see README.md), so counters are
// produced either by the machine simulator (internal/proc) or estimated from
// /proc CPU time on the real host (internal/procfs). Either way they flow
// through the Counters type defined here, and the derived metrics
// (efficiency, utilization, instruction rate) use exactly the formulas from
// paper §4.3.
package perfcount

import "math"

// Counters is a snapshot of cumulative resource-consumption counters for one
// process, mirroring the sampled metrics of paper Table 1.
type Counters struct {
	// Compute.
	Instructions float64 // retired instructions
	Cycles       float64 // cycles counted toward the application ("used")
	StalledFront float64 // cycles stalled in the CPU frontend
	StalledBack  float64 // cycles stalled in the CPU backend
	FLOPs        float64 // floating-point operations
	Threads      float64 // number of application threads
	Processes    float64 // number of application processes

	// Storage.
	ReadBytes  float64
	WriteBytes float64
	ReadOps    float64
	WriteOps   float64

	// Memory.
	AllocBytes float64 // cumulative bytes allocated
	FreeBytes  float64 // cumulative bytes freed
	RSS        float64 // resident set size (gauge, not cumulative)
	PeakRSS    float64 // high-water mark of RSS

	// Network.
	NetReadBytes  float64
	NetWriteBytes float64
}

// NumFields is the number of counters a Counters value holds.
const NumFields = 17

// Fields returns the counters as a flat array in declaration order — the
// one place that order is spelled out for fixed-layout encodings (the
// distributed outcome record). A field added to Counters must be added here
// and to SetFields; the layout test fails until it is.
func (c *Counters) Fields() [NumFields]float64 {
	return [NumFields]float64{
		c.Instructions, c.Cycles, c.StalledFront, c.StalledBack, c.FLOPs, c.Threads, c.Processes,
		c.ReadBytes, c.WriteBytes, c.ReadOps, c.WriteOps,
		c.AllocBytes, c.FreeBytes, c.RSS, c.PeakRSS,
		c.NetReadBytes, c.NetWriteBytes,
	}
}

// SetFields is the inverse of Fields.
func (c *Counters) SetFields(f *[NumFields]float64) {
	*c = Counters{
		Instructions: f[0], Cycles: f[1], StalledFront: f[2], StalledBack: f[3], FLOPs: f[4], Threads: f[5], Processes: f[6],
		ReadBytes: f[7], WriteBytes: f[8], ReadOps: f[9], WriteOps: f[10],
		AllocBytes: f[11], FreeBytes: f[12], RSS: f[13], PeakRSS: f[14],
		NetReadBytes: f[15], NetWriteBytes: f[16],
	}
}

// Add returns c with every cumulative field increased by d's fields. Gauge
// fields (RSS) take d's value; PeakRSS takes the maximum.
func (c Counters) Add(d Counters) Counters {
	c.Instructions += d.Instructions
	c.Cycles += d.Cycles
	c.StalledFront += d.StalledFront
	c.StalledBack += d.StalledBack
	c.FLOPs += d.FLOPs
	c.ReadBytes += d.ReadBytes
	c.WriteBytes += d.WriteBytes
	c.ReadOps += d.ReadOps
	c.WriteOps += d.WriteOps
	c.AllocBytes += d.AllocBytes
	c.FreeBytes += d.FreeBytes
	c.NetReadBytes += d.NetReadBytes
	c.NetWriteBytes += d.NetWriteBytes
	if d.Threads > c.Threads {
		c.Threads = d.Threads
	}
	if d.Processes > c.Processes {
		c.Processes = d.Processes
	}
	c.RSS = d.RSS
	if d.PeakRSS > c.PeakRSS {
		c.PeakRSS = d.PeakRSS
	}
	if c.RSS > c.PeakRSS {
		c.PeakRSS = c.RSS
	}
	return c
}

// Accumulate adds d into c in place, with exactly Add's semantics. The
// emulator's batched replay fold runs it once per atom per sample; the
// in-place form avoids the two ~140-byte struct copies Add pays per call,
// which dominated the replay CPU profile.
func (c *Counters) Accumulate(d *Counters) {
	c.Instructions += d.Instructions
	c.Cycles += d.Cycles
	c.StalledFront += d.StalledFront
	c.StalledBack += d.StalledBack
	c.FLOPs += d.FLOPs
	c.ReadBytes += d.ReadBytes
	c.WriteBytes += d.WriteBytes
	c.ReadOps += d.ReadOps
	c.WriteOps += d.WriteOps
	c.AllocBytes += d.AllocBytes
	c.FreeBytes += d.FreeBytes
	c.NetReadBytes += d.NetReadBytes
	c.NetWriteBytes += d.NetWriteBytes
	if d.Threads > c.Threads {
		c.Threads = d.Threads
	}
	if d.Processes > c.Processes {
		c.Processes = d.Processes
	}
	c.RSS = d.RSS
	if d.PeakRSS > c.PeakRSS {
		c.PeakRSS = d.PeakRSS
	}
	if c.RSS > c.PeakRSS {
		c.PeakRSS = c.RSS
	}
}

// Sub returns the delta c - prev for cumulative fields; gauge fields keep
// c's value. Sub is what turns two successive watcher snapshots into one
// profile sample.
func (c Counters) Sub(prev Counters) Counters {
	d := Counters{
		Instructions:  c.Instructions - prev.Instructions,
		Cycles:        c.Cycles - prev.Cycles,
		StalledFront:  c.StalledFront - prev.StalledFront,
		StalledBack:   c.StalledBack - prev.StalledBack,
		FLOPs:         c.FLOPs - prev.FLOPs,
		ReadBytes:     c.ReadBytes - prev.ReadBytes,
		WriteBytes:    c.WriteBytes - prev.WriteBytes,
		ReadOps:       c.ReadOps - prev.ReadOps,
		WriteOps:      c.WriteOps - prev.WriteOps,
		AllocBytes:    c.AllocBytes - prev.AllocBytes,
		FreeBytes:     c.FreeBytes - prev.FreeBytes,
		NetReadBytes:  c.NetReadBytes - prev.NetReadBytes,
		NetWriteBytes: c.NetWriteBytes - prev.NetWriteBytes,
		Threads:       c.Threads,
		Processes:     c.Processes,
		RSS:           c.RSS,
		PeakRSS:       c.PeakRSS,
	}
	return d
}

// Scale returns c with every cumulative field multiplied by f (gauges are
// scaled too; callers that need gauge preservation should restore them).
func (c Counters) Scale(f float64) Counters {
	c.Instructions *= f
	c.Cycles *= f
	c.StalledFront *= f
	c.StalledBack *= f
	c.FLOPs *= f
	c.ReadBytes *= f
	c.WriteBytes *= f
	c.ReadOps *= f
	c.WriteOps *= f
	c.AllocBytes *= f
	c.FreeBytes *= f
	c.NetReadBytes *= f
	c.NetWriteBytes *= f
	return c
}

// IsZero reports whether every field is zero.
func (c Counters) IsZero() bool { return c == Counters{} }

// StalledTotal returns all wasted cycles. The paper counts both frontend and
// backend stalls as wasted, acknowledging possible double counting (§4.3).
func (c Counters) StalledTotal() float64 { return c.StalledFront + c.StalledBack }

// Efficiency implements the paper's formula:
//
//	efficiency = cycles_used / (cycles_used + cycles_wasted)
//
// It returns NaN when no cycles were observed.
func (c Counters) Efficiency() float64 {
	spent := c.Cycles + c.StalledTotal()
	if spent == 0 {
		return math.NaN()
	}
	return c.Cycles / spent
}

// Utilization implements the paper's formula:
//
//	utilization = cycles_used / cycles_max
//
// where cyclesMax is derived from the machine's clock rate and the observed
// wall time. It returns NaN when cyclesMax is zero.
func (c Counters) Utilization(cyclesMax float64) float64 {
	if cyclesMax == 0 {
		return math.NaN()
	}
	return c.Cycles / cyclesMax
}

// IPC returns retired instructions per used cycle ("instruction rate" in
// paper Fig 11). It returns NaN when no cycles were observed.
func (c Counters) IPC() float64 {
	if c.Cycles == 0 {
		return math.NaN()
	}
	return c.Instructions / c.Cycles
}

// FLOPS returns floating-point operations per second over wall time sec.
func (c Counters) FLOPS(sec float64) float64 {
	if sec <= 0 {
		return math.NaN()
	}
	return c.FLOPs / sec
}
