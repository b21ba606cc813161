package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"synapse/internal/scenario"
)

// config is what one harness invocation runs with.
type config struct {
	root    string  // repository root
	binDir  string  // where the system's binaries are built
	outDir  string  // generated inputs, reports and traces
	seed    uint64  // derives every generated input
	seconds float64 // measuring time per workload and mode
	scale   float64 // size factor; 1 except in the smoke test
	setups  int     // set-ups per scenario workload; the median is reported
	minRuns int     // measured runs per workload at least
}

func (c *config) bin(name string) string { return filepath.Join(c.binDir, name) }

// simEnv is a scenario workload set up and ready to run: spec and profile
// store on disk, fleet (if any) listening.
type simEnv struct {
	cfg      *config
	w        *workload
	dir      string
	specPath string
	storeDir string
	arrivals int
	workers  []*daemon
}

// prepareSim is the set-up a user of the workload would pay: write the spec,
// profile the applications through the real CLI into a fresh file store,
// start the fleet and wait for it, and make one warm-up run.
func prepareSim(ctx context.Context, cfg *config, w *workload) (*simEnv, error) {
	dir := filepath.Join(cfg.outDir, w.name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	spec := w.spec(cfg.seed, cfg.scale)
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return nil, err
	}
	e := &simEnv{cfg: cfg, w: w, dir: dir, arrivals: arrivals(spec),
		specPath: filepath.Join(dir, "spec.json"), storeDir: filepath.Join(dir, "store")}
	if err := os.WriteFile(e.specPath, data, 0o644); err != nil {
		return nil, err
	}
	for _, p := range w.profiles {
		if _, err := runProc(ctx, cfg.bin("synapse"), p.profileArgs(e.storeDir)...); err != nil {
			return nil, err
		}
	}
	if w.remote {
		// Two single-threaded workers: total replay threads stay near nproc
		// on the two-core boxes the sizes were chosen for.
		for i := 0; i < 2; i++ {
			d, err := startDaemon(ctx, cfg.bin("synapse-worker"), "-workers", "1")
			if err != nil {
				e.close()
				return nil, err
			}
			e.workers = append(e.workers, d)
		}
	}
	if _, err := runProc(ctx, cfg.bin("synapse-sim"), e.simArgs("warmup.json", false)...); err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up run: %w", err)
	}
	return e, nil
}

func (e *simEnv) close() {
	for _, d := range e.workers {
		d.stop()
	}
	e.workers = nil
}

// simArgs is the synapse-sim command line of one run. The reference run is
// local and serial whatever the workload: byte-identity with it is the
// system's contract across worker counts and process boundaries.
func (e *simEnv) simArgs(out string, reference bool) []string {
	args := []string{"-scenario", e.specPath, "-store", e.storeDir, "-out", filepath.Join(e.dir, out)}
	switch {
	case reference:
		args = append(args, "-workers", "1")
	case e.w.remote:
		urls := make([]string, len(e.workers))
		for i, d := range e.workers {
			urls[i] = d.url
		}
		args = append(args, "-workers-remote", strings.Join(urls, ","))
	}
	return args
}

// reference runs the serial local oracle and returns its report bytes and
// what the run cost.
func (e *simEnv) reference(ctx context.Context) ([]byte, procUsage, error) {
	u, err := runProc(ctx, e.cfg.bin("synapse-sim"), e.simArgs("reference.json", true)...)
	if err != nil {
		return nil, u, fmt.Errorf("reference run: %w", err)
	}
	data, err := os.ReadFile(filepath.Join(e.dir, "reference.json"))
	return data, u, err
}

// runSample is one measured run of a workload.
type runSample struct {
	wall, cpu, rssMB float64
	ops, failed      int
	err              error // why the operations failed, if they did
}

// measure makes one untraced run and gates it: exit 0, report bytes equal to
// the reference, conservation invariants intact. A run that breaks any of
// these fails all its operations.
func (e *simEnv) measure(ctx context.Context, ref []byte) runSample {
	fleetCPU := func() (s float64) {
		for _, d := range e.workers {
			s += d.cpu()
		}
		return s
	}
	before := fleetCPU()
	u, err := runProc(ctx, e.cfg.bin("synapse-sim"), e.simArgs("report.json", false)...)
	s := runSample{wall: u.Wall, cpu: u.CPU + fleetCPU() - before, rssMB: u.RSSMB, ops: e.arrivals}
	if err == nil {
		var data []byte
		if data, err = os.ReadFile(filepath.Join(e.dir, "report.json")); err == nil {
			err = checkReport(data, ref, e.arrivals)
		}
	}
	if err != nil {
		s.failed, s.err = s.ops, err
	}
	return s
}

// checkReport is the correctness gate on a report: the bytes the reference
// run produced, every arrival accounted for, every placement ended.
func checkReport(data, ref []byte, arrivals int) error {
	if !bytes.Equal(data, ref) {
		return fmt.Errorf("report differs from the reference (sha256 %s, want %s)", sha(data), sha(ref))
	}
	var rep scenario.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("decode report: %w", err)
	}
	if rep.Emulations+rep.Dropped != arrivals {
		return fmt.Errorf("emulations %d + dropped %d != %d arrivals", rep.Emulations, rep.Dropped, arrivals)
	}
	if c := rep.Cluster; c != nil && c.Placements != rep.Emulations+rep.Killed {
		return fmt.Errorf("placements %d != emulations %d + killed %d", c.Placements, rep.Emulations, rep.Killed)
	}
	return nil
}

func sha(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
