package core

import (
	"time"

	"synapse/internal/emulator"
	"synapse/internal/perfcount"
	"synapse/internal/watcher"
)

// ReportTarget exposes a finished emulation run as a profiling target, so
// the emulation itself can be profiled — the paper's E.2 sanity check ("we
// profiled the emulated application and compared the reported system
// resource consumption results"). Counters are reconstructed from the
// report's per-sample trace, including the startup delay during which the
// emulator consumes nothing.
type ReportTarget struct {
	rep     *emulator.Report
	command string
	tags    map[string]string
}

// NewReportTarget wraps a report under the original command/tags identity.
func NewReportTarget(rep *emulator.Report, command string, tags map[string]string) *ReportTarget {
	return &ReportTarget{rep: rep, command: command, tags: tags}
}

// Command implements watcher.Target.
func (t *ReportTarget) Command() string { return t.command }

// Tags implements watcher.Target.
func (t *ReportTarget) Tags() map[string]string { return t.tags }

// AppName implements watcher.Target.
func (t *ReportTarget) AppName() string { return "" }

// countersAt reconstructs cumulative consumption at offset since the start
// of the emulation (startup included).
func (t *ReportTarget) countersAt(at time.Duration) perfcount.Counters {
	var c perfcount.Counters
	replay := at - t.rep.Startup
	if replay <= 0 {
		return c
	}
	for _, st := range t.rep.Trace {
		if st.Start+st.Dur <= replay {
			c = c.Add(st.Consumed)
			continue
		}
		if st.Start >= replay {
			break
		}
		frac := float64(replay-st.Start) / float64(st.Dur)
		c = c.Add(st.Consumed.Scale(frac))
	}
	c.Processes = 1
	c.Threads = 1
	return c
}

// Counters implements watcher.Target.
func (t *ReportTarget) Counters(at time.Duration) (perfcount.Counters, bool) {
	if t.Exited(at) {
		return perfcount.Counters{}, false
	}
	return t.countersAt(at), true
}

// Exited implements watcher.Target.
func (t *ReportTarget) Exited(at time.Duration) bool { return at >= t.rep.Tx }

// Final implements watcher.Target.
func (t *ReportTarget) Final(at time.Duration) (perfcount.Counters, bool) {
	if !t.Exited(at) {
		return perfcount.Counters{}, false
	}
	c := t.rep.Consumed
	c.Processes = 1
	c.Threads = 1
	return c, true
}

// Tx implements watcher.Target.
func (t *ReportTarget) Tx(at time.Duration) (time.Duration, bool) {
	if !t.Exited(at) {
		return 0, false
	}
	return t.rep.Tx, true
}

var _ watcher.Target = (*ReportTarget)(nil)
