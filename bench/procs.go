package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"synapse/internal/procfs"
)

// binaries are the programs of the system under test, built from the
// checkout's own source so the benchmark measures the commit it sits in.
var binaries = []string{"synapse", "synapse-sim", "synapse-worker", "synapsed"}

// buildBinaries compiles the system's commands into binDir and returns how
// long that took. root is the repository root (the parent of bench/).
func buildBinaries(ctx context.Context, root, binDir string) (time.Duration, error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return 0, err
	}
	abs, err := filepath.Abs(binDir)
	if err != nil {
		return 0, err
	}
	args := []string{"build", "-o", abs + string(filepath.Separator)}
	for _, b := range binaries {
		args = append(args, "./cmd/"+b)
	}
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = root
	start := time.Now()
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build in %s: %w\n%s", root, err, out)
	}
	return time.Since(start), nil
}

// childAttr makes the kernel kill a child when the harness dies without
// running its deferred stops (SIGKILL from a driver's timeout).
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// procUsage is what one finished child process cost.
type procUsage struct {
	Wall  float64 `json:"wall_s"` // start to exit
	CPU   float64 `json:"cpu_s"`  // user+sys
	RSSMB float64 `json:"rss_mb"` // ru_maxrss
	Err   string  `json:"err,omitempty"`
}

// runProc runs one program to completion and returns what it cost: process
// start to exit is the wall-clock a CLI user waits for.
//
// The program is not started directly but through this binary's `launch`
// mode (launchMain), a near-empty process that starts it, waits and reports
// its rusage. Go starts children with a vfork-style clone, and at exec the
// kernel folds the high-water RSS of the address space the child shared until
// then — its parent's — into the child's ru_maxrss. Started from the harness,
// a 17 MB synapse-sim would report the harness's peak; started from the
// launcher it can only inherit a few MB. Polling /proc instead costs the
// child 2.5% of its wall-clock on two cores.
func runProc(ctx context.Context, bin string, args ...string) (procUsage, error) {
	self, err := os.Executable()
	if err != nil {
		return procUsage{}, err
	}
	cmd := exec.CommandContext(ctx, self, append([]string{"launch", bin}, args...)...)
	cmd.SysProcAttr = childAttr()
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var u procUsage
	if jerr := json.Unmarshal(out, &u); jerr != nil && err == nil {
		err = fmt.Errorf("launcher output %q: %w", out, jerr)
	}
	if err != nil {
		return u, fmt.Errorf("%s: %w: %s %s", filepath.Base(bin), err, u.Err, strings.TrimSpace(stderr.String()))
	}
	return u, nil
}

// launchMain is the `launch` mode: run the given program, print its
// procUsage as one JSON line, exit non-zero if it did.
func launchMain(args []string) int {
	cmd := exec.Command(args[0], args[1:]...)
	cmd.SysProcAttr = childAttr()
	cmd.Stderr = os.Stderr
	start := time.Now()
	err := cmd.Run()
	u := procUsage{Wall: time.Since(start).Seconds()}
	if ps := cmd.ProcessState; ps != nil {
		u.CPU = (ps.UserTime() + ps.SystemTime()).Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			u.RSSMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
		}
	}
	if err != nil {
		u.Err = err.Error()
	}
	line, _ := json.Marshal(u) // a struct of floats and a string cannot fail
	fmt.Println(string(line))
	if err != nil {
		return 1
	}
	return 0
}

// daemon is one long-running child (synapse-worker or synapsed) listening on
// a loopback port the kernel chose.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	exited chan struct{} // closed once Wait returned
}

// startDaemon launches bin with -addr 127.0.0.1:0 and JSON logs, reads the
// bound address from the "serving" log line, and returns once /v1/healthz
// answers. The caller owns the daemon and must stop it.
func startDaemon(ctx context.Context, bin string, args ...string) (*daemon, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-log-format", "json"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = childAttr()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1) // one send: the serving line
	go func() {
		// Drain the log for the daemon's whole life so it never blocks on a
		// full pipe; Wait only after the pipe is read to EOF.
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			var line struct{ Msg, Addr string }
			if !sent && json.Unmarshal(sc.Bytes(), &line) == nil && line.Msg == "serving" {
				addr <- line.Addr
				sent = true
			}
		}
		_ = cmd.Wait() // exit status of a stopped daemon carries no information
		close(d.exited)
	}()
	select {
	case d.url = <-addr:
	case <-d.exited:
		return nil, fmt.Errorf("%s exited before serving: %s", filepath.Base(bin), strings.TrimSpace(stderr.String()))
	case <-time.After(10 * time.Second):
		d.stop()
		return nil, fmt.Errorf("%s: no serving line within 10s", filepath.Base(bin))
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	if err := d.awaitHealthy(ctx); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) awaitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := d.get(ctx, "/v1/healthz"); err == nil {
			return nil
		} else if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("%s never became healthy: %w", d.url, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s%s: HTTP %d", d.url, path, resp.StatusCode)
	}
	return body, nil
}

// stop asks the daemon to drain (SIGTERM), kills it if it lingers, and
// returns only after the process has been reaped. Safe to call twice.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already-exited is fine
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// cpu returns the daemon's cumulative user+sys CPU seconds.
func (d *daemon) cpu() float64 {
	st, err := procfs.ReadStat(d.cmd.Process.Pid)
	if err != nil {
		return 0
	}
	return st.CPUTime().Seconds()
}

// hwmMB returns the daemon's peak resident set (VmHWM) in MB.
func (d *daemon) hwmMB() float64 {
	st, err := procfs.ReadStatus(d.cmd.Process.Pid)
	if err != nil {
		return 0
	}
	return float64(st.VmHWM) / (1 << 20)
}

// scrape reads the daemon's /v1/metrics into series → value, keyed by the
// full series text (name plus label set) as exposed.
func (d *daemon) scrape(ctx context.Context) (map[string]float64, error) {
	body, err := d.get(ctx, "/v1/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// seriesSum adds up every scraped series whose text starts with name and
// contains all the given label fragments.
func seriesSum(m map[string]float64, name string, labels ...string) float64 {
	var sum float64
next:
	for k, v := range m {
		if !strings.HasPrefix(k, name) {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(k, l) {
				continue next
			}
		}
		sum += v
	}
	return sum
}

// selfCPU returns the harness's own cumulative user+sys CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
