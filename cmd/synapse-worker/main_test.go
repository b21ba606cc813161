package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"net/http"
	"sync"
	"syscall"
	"testing"
	"time"

	"synapse/internal/core"
	"synapse/internal/dist"
	"synapse/internal/scenario"
	"synapse/internal/store"
)

// TestWorkerRoundTrip boots the daemon exactly as main would, checks
// healthz, compiles a session and executes one chunk through the real wire
// client, and shuts down via SIGTERM — a clean drain returns nil.
func TestWorkerRoundTrip(t *testing.T) {
	var out bytes.Buffer
	stdout = &out
	defer func() { stdout = nil }()

	ready := make(chan string, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	var runErr error
	go func() {
		defer wg.Done()
		runErr = run([]string{"-addr", "127.0.0.1:0", "-workers", "1", "-max-inflight", "5", "-queue", "2"}, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not come up")
	}
	base := "http://" + addr

	healthz := func() dist.HealthResponse {
		t.Helper()
		resp, err := http.Get(base + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h dist.HealthResponse
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	if h := healthz(); h.Status != "ok" || h.Sessions != 0 || h.MaxInFlight != 5 || h.Queue != 2 {
		t.Errorf("healthz before any session = %+v, want ok with the -max-inflight/-queue limits", h)
	}

	// One workload, profiled into a private store and shipped inline: the
	// worker itself needs no store.
	ctx := context.Background()
	st := store.NewMem()
	if _, err := core.ProfileCommandString(ctx, "sleep", nil, core.ProfileOptions{
		Machine: "thinkie", SampleRate: 1, Store: st, Seed: 7,
	}); err != nil {
		t.Fatal(err)
	}
	spec := &scenario.Spec{
		Version: scenario.SpecVersion, Name: "worker-smoke", Seed: 11,
		Workloads: []scenario.Workload{{
			Name:      "nap",
			Profile:   scenario.ProfileRef{Command: "sleep", Tags: map[string]string{"seconds": "1"}},
			Arrival:   scenario.Arrival{Process: scenario.ArrivalConstant, Rate: 1, Count: 3},
			Emulation: scenario.Emulation{Machine: "comet", Load: 0.1},
		}},
	}
	profs, err := scenario.ResolveProfiles(ctx, spec, st)
	if err != nil {
		t.Fatal(err)
	}
	w := dist.NewHTTPWorker(base, nil)
	if err := w.Compile(ctx, &dist.CompileRequest{Session: "s", Spec: spec, Profiles: profs}); err != nil {
		t.Fatal(err)
	}
	req := &dist.ExecuteRequest{
		Session: "s", Seed: spec.Seed,
		Jobs: []scenario.Job{
			{Workload: 0, LoadBits: math.Float64bits(0.1)},
			{Workload: 0, LoadBits: math.Float64bits(0.2)},
		},
	}
	outs, err := w.Execute(ctx, req)
	if err != nil || len(outs) != 2 {
		t.Fatalf("execute = %d outcomes, %v; want 2", len(outs), err)
	}
	if h := healthz(); h.Sessions != 1 {
		t.Errorf("healthz after compile reports %d sessions, want 1", h.Sessions)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if runErr != nil {
		t.Fatalf("run returned %v after SIGTERM, want a clean drain", runErr)
	}
	for _, line := range []string{"msg=serving workers=1", `msg="session compiled" session=s`, "msg=draining signal=terminated"} {
		if !bytes.Contains(out.Bytes(), []byte(line)) {
			t.Errorf("log missing %q:\n%s", line, out.String())
		}
	}
}

// TestFlagsValidated: the shared pre-flight guards this daemon too.
func TestFlagsValidated(t *testing.T) {
	for _, args := range [][]string{
		{"-queue", "8"}, // queue without a bound to queue against
		{"-max-inflight", "-1"},
		{"-log-format", "xml"},
	} {
		if err := run(args, nil); err == nil {
			t.Errorf("run(%v) accepted, want error", args)
		}
	}
}

func TestVersionFlag(t *testing.T) {
	var out bytes.Buffer
	stdout = &out
	defer func() { stdout = nil }()
	if err := run([]string{"-version"}, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out.Bytes(), []byte("synapse-worker")) || !bytes.Contains(out.Bytes(), []byte("go1.")) {
		t.Errorf("version output incomplete: %q", out.String())
	}
}

// TestFlagSetUnchanged pins the daemon's options: extracting the shared
// flags into httpsvc must add, drop and re-default nothing.
func TestFlagSetUnchanged(t *testing.T) {
	want := map[string]string{
		"addr": ":9191", "workers": "0", "max-sessions": "4", "max-inflight": "0",
		"queue": "0", "request-timeout": "0s", "pprof": "false",
		"grace": "10s", "log-format": "text", "log-level": "info", "version": "false",
	}
	fs := flag.NewFlagSet("synapse-worker", flag.ContinueOnError)
	bindFlags(fs)
	fs.VisitAll(func(f *flag.Flag) {
		if def, ok := want[f.Name]; !ok {
			t.Errorf("unexpected flag -%s", f.Name)
		} else if f.DefValue != def {
			t.Errorf("flag -%s defaults to %q, want %q", f.Name, f.DefValue, def)
		}
		delete(want, f.Name)
	})
	for name := range want {
		t.Errorf("flag -%s is gone", name)
	}
}
