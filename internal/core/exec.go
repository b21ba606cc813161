package core

import (
	"context"
	"fmt"
	"os/exec"
	"strings"
	"sync"
	"time"

	"synapse/internal/clock"
	"synapse/internal/machine"
	"synapse/internal/perfcount"
	"synapse/internal/procfs"
	"synapse/internal/profile"
	"synapse/internal/watcher"
)

// RealTarget adapts a spawned host process to the watcher.Target interface,
// reading counters from /proc and exit totals from the child's rusage — the
// real-mode substitution for perf-stat documented in internal/perfcount.
type RealTarget struct {
	command string
	tags    map[string]string
	cmd     *exec.Cmd
	clockHz float64
	ipc     float64

	mu       sync.Mutex
	last     perfcount.Counters
	exited   bool
	exitedAt time.Duration
	start    time.Time
	waitErr  error
}

// StartCommand spawns the argv under profiling observation. command is a
// shell-style string split on whitespace (callers needing richer quoting
// should pass argv through exec directly).
func StartCommand(command string, tags map[string]string, m *machine.Model) (*RealTarget, error) {
	argv := strings.Fields(command)
	if len(argv) == 0 {
		return nil, fmt.Errorf("core: empty command")
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	ap, err := m.App(machine.AppDefault)
	ipc := 1.5
	if err == nil {
		ipc = ap.IPC
	}
	t := &RealTarget{
		command: command,
		tags:    tags,
		cmd:     cmd,
		clockHz: m.ClockHz,
		ipc:     ipc,
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("core: start %q: %w", command, err)
	}
	t.start = time.Now()
	go func() {
		err := cmd.Wait()
		t.mu.Lock()
		defer t.mu.Unlock()
		t.exited = true
		t.exitedAt = time.Since(t.start)
		t.waitErr = err
	}()
	return t, nil
}

// Command implements watcher.Target.
func (t *RealTarget) Command() string { return t.command }

// Tags implements watcher.Target.
func (t *RealTarget) Tags() map[string]string { return t.tags }

// AppName implements watcher.Target (real processes carry no model name).
func (t *RealTarget) AppName() string { return "" }

// Counters implements watcher.Target.
func (t *RealTarget) Counters(time.Duration) (perfcount.Counters, bool) {
	t.mu.Lock()
	if t.exited {
		t.mu.Unlock()
		return perfcount.Counters{}, false
	}
	pid := t.cmd.Process.Pid
	t.mu.Unlock()

	c, err := procfs.Snapshot(pid, t.clockHz, t.ipc)
	if err != nil {
		return perfcount.Counters{}, false
	}
	t.mu.Lock()
	t.last = c
	t.mu.Unlock()
	return c, true
}

// Exited implements watcher.Target.
func (t *RealTarget) Exited(time.Duration) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.exited
}

// Final implements watcher.Target: the last /proc snapshot refined with the
// child's rusage (exact CPU time and peak RSS at exit).
func (t *RealTarget) Final(time.Duration) (perfcount.Counters, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.exited {
		return perfcount.Counters{}, false
	}
	c := t.last
	if ru, ok := rusageOf(t.cmd); ok {
		if ru.cpu > 0 {
			c.Cycles = ru.cpu.Seconds() * t.clockHz
			c.Instructions = c.Cycles * t.ipc
		}
		if ru.maxRSS > 0 {
			c.PeakRSS = float64(ru.maxRSS)
		}
		// Block-layer totals catch I/O that sampling missed entirely
		// (short-lived children); syscall-level counters from /proc
		// are preferred when they saw more.
		if float64(ru.blockIn) > c.ReadBytes {
			c.ReadBytes = float64(ru.blockIn)
		}
		if float64(ru.blockOut) > c.WriteBytes {
			c.WriteBytes = float64(ru.blockOut)
		}
	}
	if c.Processes == 0 {
		c.Processes = 1
	}
	return c, true
}

// Tx implements watcher.Target.
func (t *RealTarget) Tx(time.Duration) (time.Duration, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.exited {
		return 0, false
	}
	return t.exitedAt, true
}

// WaitErr reports the child's exit error (nil for status 0), valid after
// exit.
func (t *RealTarget) WaitErr() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.waitErr
}

var _ watcher.Target = (*RealTarget)(nil)

// ProfileExec spawns command on the host and profiles it with the real
// clock. The profile's machine is the host model.
func ProfileExec(ctx context.Context, command string, tags map[string]string, opts ProfileOptions) (*profile.Profile, error) {
	m := machine.Host()
	tgt, err := StartCommand(command, tags, m)
	if err != nil {
		return nil, err
	}
	clk := opts.Clock
	if clk == nil {
		clk = clock.NewReal()
	}
	pr := &watcher.Profiler{
		Rate:    opts.SampleRate,
		Clock:   clk,
		Machine: m,
	}
	if opts.Adaptive {
		win := opts.AdaptiveWindow
		if win <= 0 {
			win = 3 * time.Second
		}
		pr.Schedule = watcher.AdaptiveSchedule(watcher.MaxRate, opts.SampleRate, win)
	}
	run := pr.Run
	if opts.Concurrent {
		run = pr.RunConcurrent
	}
	p, err := run(ctx, tgt)
	if err != nil {
		// Don't leak the child on profiling errors.
		if proc := tgt.cmd.Process; proc != nil && !tgt.Exited(0) {
			_ = proc.Kill()
		}
		return nil, err
	}
	return p, storeProfile(opts.Store, p)
}
