package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"synapse/internal/core"
	"synapse/internal/dist"
	"synapse/internal/scenario"
	"synapse/internal/store"
	"synapse/internal/telemetry"
)

// setup profiles two commands into a file store and writes a two-workload
// scenario spec, returning the store directory and the spec path.
func setup(t *testing.T) (storeDir, specPath string) {
	t.Helper()
	dir := t.TempDir()
	storeDir = filepath.Join(dir, "store")
	st, err := store.NewFile(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, cmd := range []string{"mdsim", "sleep"} {
		if _, err := core.ProfileCommandString(context.Background(), cmd, nil, core.ProfileOptions{
			Machine:    "thinkie",
			SampleRate: 1,
			Store:      st,
		}); err != nil {
			t.Fatal(err)
		}
	}
	specPath = filepath.Join(dir, "mix.json")
	spec := `{
		"version": 1,
		"name": "cli-mix",
		"seed": 7,
		"max_concurrent": 2,
		"workloads": [
			{
				"name": "md",
				"profile": {"command": "mdsim", "tags": {"steps": "10000"}},
				"arrival": {"process": "closed", "clients": 2, "iterations": 2},
				"emulation": {"machine": "stampede"}
			},
			{
				"name": "sleep",
				"profile": {"command": "sleep", "tags": {"seconds": "1"}},
				"arrival": {"process": "constant", "rate": 0.2, "count": 3},
				"emulation": {"machine": "comet", "load": 0.1, "load_jitter": 0.05}
			}
		]
	}`
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return storeDir, specPath
}

func TestSimRunsMixedScenario(t *testing.T) {
	storeDir, specPath := setup(t)
	outPath := filepath.Join(t.TempDir(), "report.json")

	var buf bytes.Buffer
	stdout = &buf
	defer func() { stdout = os.Stdout }()

	err := run([]string{"-scenario", specPath, "-store", storeDir, "-out", outPath})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `scenario "cli-mix"`) || !strings.Contains(out, "7 emulations") {
		t.Fatalf("summary missing headline: %q", out)
	}
	if !strings.Contains(out, "md") || !strings.Contains(out, "sleep") {
		t.Fatalf("summary missing workloads: %q", out)
	}

	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep scenario.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Emulations != 7 || len(rep.Workloads) != 2 {
		t.Fatalf("report = %d emulations / %d workloads, want 7/2", rep.Emulations, len(rep.Workloads))
	}

	// Determinism through the CLI: a second run writes a byte-identical
	// report.
	outPath2 := filepath.Join(t.TempDir(), "report2.json")
	if err := run([]string{"-scenario", specPath, "-store", storeDir, "-out", outPath2}); err != nil {
		t.Fatal(err)
	}
	data2, err := os.ReadFile(outPath2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("two CLI runs of the same spec+seed wrote different reports")
	}
}

// TestSimClusterFlag: -cluster attaches a machine pool to the mix and the
// summary and report grow the placement view; reports stay deterministic.
func TestSimClusterFlag(t *testing.T) {
	storeDir, _ := setup(t)
	dir := t.TempDir()

	// Cluster specs forbid per-workload machines (the node decides), so
	// the clustered mix leaves emulation.machine unset.
	specPath := filepath.Join(dir, "mix.json")
	spec := `{
		"version": 1,
		"name": "cluster-cli",
		"seed": 7,
		"workloads": [
			{
				"name": "md",
				"profile": {"command": "mdsim", "tags": {"steps": "10000"}},
				"arrival": {"process": "closed", "clients": 2, "iterations": 2},
				"resources": {"cores": 2}
			},
			{
				"name": "sleep",
				"profile": {"command": "sleep", "tags": {"seconds": "1"}},
				"arrival": {"process": "constant", "rate": 0.2, "count": 3},
				"emulation": {"load": 0.1, "load_jitter": 0.05}
			}
		]
	}`
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	clusterPath := filepath.Join(dir, "cluster.json")
	cspec := `{
		"policy": "least_loaded",
		"contention": 0.4,
		"nodes": [{"name": "n", "machine": "stampede", "count": 2, "cores": 4}]
	}`
	if err := os.WriteFile(clusterPath, []byte(cspec), 0o644); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	stdout = &buf
	defer func() { stdout = os.Stdout }()

	outPath := filepath.Join(dir, "report.json")
	if err := run([]string{"-scenario", specPath, "-store", storeDir, "-cluster", clusterPath, "-out", outPath}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "cluster policy least_loaded") || !strings.Contains(out, "n-0") {
		t.Fatalf("summary missing cluster view: %q", out)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep scenario.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Cluster == nil || len(rep.Cluster.Nodes) != 2 || rep.Cluster.Placements != rep.Emulations {
		t.Fatalf("report cluster block = %+v", rep.Cluster)
	}

	// Determinism holds with a cluster attached through the flag.
	buf.Reset()
	outPath2 := filepath.Join(dir, "report2.json")
	if err := run([]string{"-scenario", specPath, "-store", storeDir, "-cluster", clusterPath, "-out", outPath2}); err != nil {
		t.Fatal(err)
	}
	data2, err := os.ReadFile(outPath2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("two clustered CLI runs wrote different reports")
	}

	// Attaching a cluster to a spec that pins per-workload machines is a
	// validation error, not a silent override.
	_, pinnedSpec := setup(t)
	if err := run([]string{"-scenario", pinnedSpec, "-store", storeDir, "-cluster", clusterPath}); err == nil ||
		!strings.Contains(err.Error(), "conflicts with the cluster") {
		t.Fatalf("expected machine/cluster conflict error, got %v", err)
	}

	// A malformed cluster file fails loudly.
	badPath := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badPath, []byte(`{"nodes": [], "polcy": "x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", specPath, "-store", storeDir, "-cluster", badPath}); err == nil {
		t.Fatal("bad cluster file accepted")
	}
}

// TestSimEventsAndTimeline: a node_down failover spec end-to-end through
// the CLI — kills surface in the summary and report, the -timeline CSV
// carries the bucketed series, and everything stays deterministic.
func TestSimEventsAndTimeline(t *testing.T) {
	storeDir, _ := setup(t)
	dir := t.TempDir()
	specPath := filepath.Join(dir, "failover.json")
	spec := `{
		"version": 1,
		"name": "failover-cli",
		"seed": 7,
		"cluster": {
			"contention": 0,
			"nodes": [
				{"name": "a", "machine": "stampede", "cores": 4},
				{"name": "b", "machine": "stampede", "cores": 4}
			]
		},
		"events": {
			"version": 1,
			"timeline": [
				{"at": "500ms", "kind": "node_down", "node": "a"}
			]
		},
		"workloads": [{
			"name": "md",
			"profile": {"command": "mdsim", "tags": {"steps": "10000"}},
			"arrival": {"process": "burst", "burst": 2, "every": "1s", "bursts": 1},
			"resources": {"cores": 2}
		}]
	}`
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	stdout = &buf
	defer func() { stdout = os.Stdout }()

	outPath := filepath.Join(dir, "report.json")
	csvPath := filepath.Join(dir, "series.csv")
	if err := run([]string{"-scenario", specPath, "-store", storeDir, "-out", outPath, "-timeline", csvPath}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "killed and retried") || !strings.Contains(out, "events applied") {
		t.Fatalf("summary missing failure view: %q", out)
	}
	if !strings.Contains(out, "timeline written to") {
		t.Fatalf("summary missing timeline note: %q", out)
	}

	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep scenario.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Killed == 0 || rep.Emulations != 2 {
		t.Fatalf("report killed/emulations = %d/%d, want >0/2", rep.Killed, rep.Emulations)
	}
	if rep.Timeline == nil || len(rep.Timeline.Buckets) == 0 {
		t.Fatal("report has no timeline despite -timeline")
	}

	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	if len(lines) != len(rep.Timeline.Buckets)+1 {
		t.Fatalf("csv rows = %d, want %d buckets + header", len(lines), len(rep.Timeline.Buckets))
	}
	for _, col := range []string{"start_s", "kills", "occ:a", "occ:b"} {
		if !strings.Contains(lines[0], col) {
			t.Fatalf("csv header %q missing %q", lines[0], col)
		}
	}

	// Determinism: a second run writes byte-identical report and CSV.
	outPath2 := filepath.Join(dir, "report2.json")
	csvPath2 := filepath.Join(dir, "series2.csv")
	if err := run([]string{"-scenario", specPath, "-store", storeDir, "-out", outPath2, "-timeline", csvPath2}); err != nil {
		t.Fatal(err)
	}
	data2, _ := os.ReadFile(outPath2)
	csv2, _ := os.ReadFile(csvPath2)
	if !bytes.Equal(data, data2) || !bytes.Equal(csv, csv2) {
		t.Fatal("two failover CLI runs diverged")
	}
}

// TestSimEventValidationNamesIndex: a malformed events block is rejected
// with the offending event's index in the error.
func TestSimEventValidationNamesIndex(t *testing.T) {
	storeDir, _ := setup(t)
	dir := t.TempDir()
	specPath := filepath.Join(dir, "bad-events.json")
	spec := `{
		"version": 1,
		"cluster": {"nodes": [{"name": "a", "machine": "stampede"}]},
		"events": {
			"version": 1,
			"timeline": [
				{"at": "1s", "kind": "node_down", "node": "a"},
				{"at": "2s", "kind": "node_down", "node": "ghost"}
			]
		},
		"workloads": [{
			"name": "md",
			"profile": {"command": "mdsim", "tags": {"steps": "10000"}},
			"arrival": {"process": "closed", "clients": 1, "iterations": 1}
		}]
	}`
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-scenario", specPath, "-store", storeDir})
	if err == nil || !strings.Contains(err.Error(), `timeline[1]: node_down: unknown node "ghost"`) {
		t.Fatalf("expected positional event error, got %v", err)
	}
}

func TestSimSeedOverride(t *testing.T) {
	storeDir, specPath := setup(t)
	var buf bytes.Buffer
	stdout = &buf
	defer func() { stdout = os.Stdout }()
	if err := run([]string{"-scenario", specPath, "-store", storeDir, "-seed", "99"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "(seed 99)") {
		t.Fatalf("seed override not reflected: %q", buf.String())
	}

	// The full uint64 range is addressable (Spec.Seed is uint64).
	buf.Reset()
	if err := run([]string{"-scenario", specPath, "-store", storeDir, "-seed", "18446744073709551615"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "(seed 18446744073709551615)") {
		t.Fatalf("max uint64 seed not reflected: %q", buf.String())
	}

	if err := run([]string{"-scenario", specPath, "-store", storeDir, "-seed", "-5"}); err == nil ||
		!strings.Contains(err.Error(), "bad -seed") {
		t.Fatalf("negative seed should error, got %v", err)
	}
}

func TestSimErrors(t *testing.T) {
	if err := run([]string{}); err == nil || !strings.Contains(err.Error(), "-scenario") {
		t.Fatalf("expected missing-scenario error, got %v", err)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version": 9, "workloads": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-scenario", bad, "-store", t.TempDir()}); err == nil ||
		!strings.Contains(err.Error(), "unknown spec version") {
		t.Fatalf("expected spec version error, got %v", err)
	}
}

// TestSimTraceFlag: -trace writes valid, deterministic Chrome trace-event
// JSON alongside an unchanged report.
func TestSimTraceFlag(t *testing.T) {
	storeDir, specPath := setup(t)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")

	var buf bytes.Buffer
	stdout = &buf
	defer func() { stdout = os.Stdout }()

	if err := run([]string{"-scenario", specPath, "-store", storeDir, "-trace", tracePath}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "trace written to") {
		t.Errorf("no trace confirmation in output: %q", buf.String())
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := telemetry.ParseTrace(data)
	if err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if sum.Phases["b"] != 7 || sum.Phases["e"] != 7 {
		t.Errorf("trace spans = %d begins / %d ends, want 7/7", sum.Phases["b"], sum.Phases["e"])
	}

	tracePath2 := filepath.Join(dir, "trace2.json")
	if err := run([]string{"-scenario", specPath, "-store", storeDir, "-trace", tracePath2}); err != nil {
		t.Fatal(err)
	}
	data2, err := os.ReadFile(tracePath2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("two CLI runs of the same spec+seed wrote different traces")
	}
}

func TestSimVersionFlag(t *testing.T) {
	var buf bytes.Buffer
	stdout = &buf
	defer func() { stdout = os.Stdout }()
	if err := run([]string{"-version"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "synapse-sim") || !strings.Contains(buf.String(), "go1.") {
		t.Errorf("version output incomplete: %q", buf.String())
	}
}

// TestSimProfilingFlags runs a scenario with -cpuprofile and -memprofile
// and checks both pprof files come out non-empty, and that -pprof serves
// the debug index for the run's duration (the listener closes with run).
func TestSimProfilingFlags(t *testing.T) {
	storeDir, specPath := setup(t)
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")

	var buf bytes.Buffer
	stdout = &buf
	defer func() { stdout = os.Stdout }()

	err := run([]string{
		"-scenario", specPath, "-store", storeDir,
		"-cpuprofile", cpu, "-memprofile", mem,
		"-pprof", "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

// TestSimInterruptCancelsRemoteWork: Ctrl-C during a -workers-remote run
// must cancel the in-flight execute RPC, not orphan it — run returns an
// error (a non-zero exit) within a second of the signal, and the worker's
// parked handler sees its request context cancelled.
func TestSimInterruptCancelsRemoteWork(t *testing.T) {
	storeDir, specPath := setup(t)
	parked := make(chan struct{}, 1)    // one chunk in flight against one worker
	cancelled := make(chan struct{}, 1) // ditto
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/compile":
			var req dist.CompileRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			json.NewEncoder(w).Encode(dist.CompileResponse{Session: req.Session, Seed: req.Spec.Seed})
		case "/v1/execute":
			// Drain the body so the server watches the connection and
			// cancels r.Context() when the client goes away.
			io.Copy(io.Discard, r.Body)
			parked <- struct{}{}
			<-r.Context().Done()
			cancelled <- struct{}{}
		}
	}))
	defer worker.Close()

	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-scenario", specPath, "-store", storeDir, "-workers-remote", worker.URL})
	}()
	select {
	case <-parked:
	case err := <-done:
		t.Fatalf("run returned %v before any execute RPC parked", err)
	case <-time.After(10 * time.Second):
		t.Fatal("no execute RPC reached the worker")
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Error("run succeeded after SIGINT, want an error (non-zero exit)")
		}
	case <-time.After(time.Second):
		t.Fatal("run still going 1s after SIGINT: the interrupt does not cancel remote work")
	}
	select {
	case <-cancelled:
	case <-time.After(time.Second):
		t.Error("worker handler never saw its request context cancelled: the RPC was orphaned")
	}
}

// TestSimNamesDeadWorker: a fleet member that is down must not fail the run
// and must not go unnoticed — its chunks move to the survivor, the report
// stays byte-identical to the local one, and the coordinator's warning
// naming the dead address reaches stderr.
func TestSimNamesDeadWorker(t *testing.T) {
	storeDir, specPath := setup(t)
	dir := t.TempDir()
	localOut, distOut := filepath.Join(dir, "local.json"), filepath.Join(dir, "dist.json")

	var buf bytes.Buffer
	stdout = &buf
	defer func() { stdout = os.Stdout }()
	if err := run([]string{"-scenario", specPath, "-store", storeDir, "-out", localOut}); err != nil {
		t.Fatal(err)
	}

	live := httptest.NewServer(dist.NewServer(dist.ServerConfig{}))
	defer live.Close()
	gone := httptest.NewServer(http.NotFoundHandler())
	dead := gone.URL
	gone.Close() // the address now refuses connections

	// The logger writes to os.Stderr as run finds it.
	errFile, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer errFile.Close()
	saved := os.Stderr
	os.Stderr = errFile
	// The dead address leads the list and chunks hold one job, so it is
	// offered work whatever the pick order.
	err = run([]string{"-scenario", specPath, "-store", storeDir, "-out", distOut,
		"-workers-remote", dead + "," + live.URL, "-chunk", "1"})
	os.Stderr = saved
	if err != nil {
		t.Fatalf("run with one dead worker of two failed: %v", err)
	}

	want, err := os.ReadFile(localOut)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(distOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report with a dead worker diverged from the local run\ngot:\n%s\nwant:\n%s", got, want)
	}
	logged, err := os.ReadFile(errFile.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(logged, []byte("worker failed")) || !bytes.Contains(logged, []byte(dead)) {
		t.Errorf("stderr does not name the failed worker %s:\n%s", dead, logged)
	}
	if bytes.Contains(logged, []byte("level=INFO")) {
		t.Errorf("stderr carries chatter below warn level:\n%s", logged)
	}
}
