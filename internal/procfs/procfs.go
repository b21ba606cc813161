// Package procfs reads per-process resource counters from the Linux /proc
// filesystem: CPU time from /proc/<pid>/stat, memory from /proc/<pid>/status
// and storage I/O from /proc/<pid>/io.
//
// This is the real-mode counterpart of internal/proc: the paper's profiler
// reads exactly these files (plus perf-stat, which this reproduction
// substitutes by deriving cycle counts from CPU time and the machine's
// nominal clock — see internal/perfcount). All readers degrade gracefully:
// missing files or foreign platforms yield an error the watchers treat as
// "metric unavailable", matching the paper's observation that profiling
// requires system-level support (§8).
package procfs

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"synapse/internal/perfcount"
)

// ErrUnavailable indicates the requested /proc information cannot be read on
// this system (not Linux, no permissions, or the process exited).
var ErrUnavailable = errors.New("procfs: information unavailable")

// ticksPerSecond is the kernel's USER_HZ; 100 on every mainstream Linux.
const ticksPerSecond = 100

// Root is the proc mount point; variable so tests can point readers at a
// fixture tree.
var Root = "/proc"

// Stat holds the subset of /proc/<pid>/stat the profiler uses.
type Stat struct {
	UTime      time.Duration // user-mode CPU time
	STime      time.Duration // kernel-mode CPU time
	NumThreads int64
	RSSPages   int64
}

// CPUTime returns combined user+system CPU time.
func (s Stat) CPUTime() time.Duration { return s.UTime + s.STime }

// ReadStat parses /proc/<pid>/stat.
func ReadStat(pid int) (Stat, error) {
	data, err := os.ReadFile(fmt.Sprintf("%s/%d/stat", Root, pid))
	if err != nil {
		return Stat{}, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	return parseStat(string(data))
}

// parseStat handles the comm field, which may contain spaces and
// parentheses; fields are indexed after the closing paren.
func parseStat(s string) (Stat, error) {
	close := strings.LastIndexByte(s, ')')
	if close < 0 || close+2 > len(s) {
		return Stat{}, fmt.Errorf("%w: malformed stat line", ErrUnavailable)
	}
	fields := strings.Fields(s[close+2:])
	// Field numbering (1-based, man proc): utime=14, stime=15,
	// num_threads=20, rss=24. After stripping pid and comm, index
	// shifts by 3: utime at fields[11].
	if len(fields) < 22 {
		return Stat{}, fmt.Errorf("%w: stat line too short (%d fields)", ErrUnavailable, len(fields))
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	threads, err3 := strconv.ParseInt(fields[17], 10, 64)
	rss, err4 := strconv.ParseInt(fields[21], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
		return Stat{}, fmt.Errorf("%w: malformed stat fields", ErrUnavailable)
	}
	tick := time.Second / ticksPerSecond
	return Stat{
		UTime:      time.Duration(utime) * tick,
		STime:      time.Duration(stime) * tick,
		NumThreads: threads,
		RSSPages:   rss,
	}, nil
}

// Status holds the memory figures from /proc/<pid>/status.
type Status struct {
	VmRSS  int64 // resident set size, bytes
	VmHWM  int64 // peak resident set size, bytes
	VmSize int64 // virtual size, bytes
}

// ReadStatus parses /proc/<pid>/status.
func ReadStatus(pid int) (Status, error) {
	data, err := os.ReadFile(fmt.Sprintf("%s/%d/status", Root, pid))
	if err != nil {
		return Status{}, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	return parseStatus(string(data))
}

func parseStatus(s string) (Status, error) {
	var st Status
	found := false
	for _, line := range strings.Split(s, "\n") {
		name, rest, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		var dst *int64
		switch name {
		case "VmRSS":
			dst = &st.VmRSS
		case "VmHWM":
			dst = &st.VmHWM
		case "VmSize":
			dst = &st.VmSize
		default:
			continue
		}
		fs := strings.Fields(rest)
		if len(fs) < 1 {
			continue
		}
		v, err := strconv.ParseInt(fs[0], 10, 64)
		if err != nil {
			continue
		}
		// Values are reported in kB.
		*dst = v << 10
		found = true
	}
	if !found {
		return Status{}, fmt.Errorf("%w: no Vm fields in status", ErrUnavailable)
	}
	return st, nil
}

// IO holds the storage counters from /proc/<pid>/io.
type IO struct {
	ReadBytes  int64 // bytes fetched from the storage layer
	WriteBytes int64 // bytes sent to the storage layer
	RChar      int64 // bytes read via syscalls (includes cache hits)
	WChar      int64 // bytes written via syscalls
	SyscR      int64 // read syscalls
	SyscW      int64 // write syscalls
}

// ReadIO parses /proc/<pid>/io (may need privileges for foreign processes).
func ReadIO(pid int) (IO, error) {
	data, err := os.ReadFile(fmt.Sprintf("%s/%d/io", Root, pid))
	if err != nil {
		return IO{}, fmt.Errorf("%w: %v", ErrUnavailable, err)
	}
	return parseIO(string(data))
}

func parseIO(s string) (IO, error) {
	var io IO
	found := false
	for _, line := range strings.Split(s, "\n") {
		name, rest, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
		if err != nil {
			continue
		}
		switch name {
		case "read_bytes":
			io.ReadBytes = v
		case "write_bytes":
			io.WriteBytes = v
		case "rchar":
			io.RChar = v
		case "wchar":
			io.WChar = v
		case "syscr":
			io.SyscR = v
		case "syscw":
			io.SyscW = v
		default:
			continue
		}
		found = true
	}
	if !found {
		return IO{}, fmt.Errorf("%w: no counters in io file", ErrUnavailable)
	}
	return io, nil
}

// Alive reports whether the process still has a /proc entry.
func Alive(pid int) bool {
	_, err := os.Stat(fmt.Sprintf("%s/%d", Root, pid))
	return err == nil
}

// Snapshot assembles a perfcount.Counters view of a live process. Cycle and
// instruction counts are *estimates* derived from CPU time and the supplied
// nominal clock rate and IPC — the substitution for perf-stat access
// documented in perfcount. Unavailable sub-readers contribute zeros; the
// error reflects the first reader that failed entirely.
func Snapshot(pid int, clockHz, assumedIPC float64) (perfcount.Counters, error) {
	var c perfcount.Counters
	st, err := ReadStat(pid)
	if err != nil {
		return c, err
	}
	cpuSec := st.CPUTime().Seconds()
	c.Cycles = cpuSec * clockHz
	c.Instructions = c.Cycles * assumedIPC
	c.Threads = float64(st.NumThreads)
	c.Processes = 1

	if mem, err := ReadStatus(pid); err == nil {
		c.RSS = float64(mem.VmRSS)
		c.PeakRSS = float64(mem.VmHWM)
	} else {
		// Fall back to the stat RSS (pages of 4 kB).
		c.RSS = float64(st.RSSPages) * 4096
		c.PeakRSS = c.RSS
	}
	if io, err := ReadIO(pid); err == nil {
		// Prefer the syscall-level counters: they match what the
		// application requested, like the paper's emulation targets.
		c.ReadBytes = float64(io.RChar)
		c.WriteBytes = float64(io.WChar)
		c.ReadOps = float64(io.SyscR)
		c.WriteOps = float64(io.SyscW)
	}
	return c, nil
}
