package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"sync"
	"syscall"
	"testing"
	"time"

	"synapse/internal/store/storetest"
	"synapse/internal/storeclnt"
	"synapse/internal/storesrv"
)

// TestDaemonRoundTrip boots the daemon exactly as main would, stores a
// profile through one Remote client, reads it back through another (a second
// "process" in the paper's profile-once-emulate-anywhere workflow), and
// shuts down via SIGTERM.
func TestDaemonRoundTrip(t *testing.T) {
	var out bytes.Buffer
	stdout = &out
	defer func() { stdout = nil }()

	ready := make(chan string, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	var runErr error
	go func() {
		defer wg.Done()
		runErr = run([]string{"-addr", "127.0.0.1:0", "-backend", "sharded", "-shards", "4"}, ready)
	}()

	var addr string
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not come up")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	writer := storeclnt.New(base)
	p := storetest.MkProfile("mdsim", map[string]string{"steps": "500"}, 3)
	if err := writer.Put(p); err != nil {
		t.Fatal(err)
	}
	writer.Close()

	reader := storeclnt.New(base)
	set, err := reader.Find("mdsim", map[string]string{"steps": "500"})
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 1 || set[0].ID != p.ID {
		t.Errorf("cross-client read wrong: %d profiles", len(set))
	}
	reader.Close()

	// SIGTERM drains and exits run.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if runErr != nil {
		t.Fatalf("run returned %v", runErr)
	}
	if !bytes.Contains(out.Bytes(), []byte("serving backend=sharded")) {
		t.Errorf("startup log missing: %q", out.String())
	}
}

func TestUnknownBackend(t *testing.T) {
	if err := run([]string{"-backend", "mongo"}, nil); err == nil {
		t.Fatal("unknown backend should error")
	}
}

// TestOverloadFlagsValidated: -queue depends on -max-inflight, and neither
// accepts negatives.
func TestOverloadFlagsValidated(t *testing.T) {
	for _, args := range [][]string{
		{"-queue", "8"}, // queue without a bound to queue against
		{"-max-inflight", "-1"},
		{"-max-inflight", "4", "-queue", "-2"},
	} {
		if err := run(args, nil); err == nil {
			t.Errorf("run(%v) accepted, want error", args)
		}
	}
}

// TestOverloadFlagsWired boots the daemon with the overload-protection
// flags and verifies they reach the server: healthz reports the limits and
// read-only status, and a write is shed with 503 while a read works.
func TestOverloadFlagsWired(t *testing.T) {
	var out bytes.Buffer
	stdout = &out
	defer func() { stdout = nil }()

	ready := make(chan string, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	var runErr error
	go func() {
		defer wg.Done()
		runErr = run([]string{
			"-addr", "127.0.0.1:0", "-backend", "mem",
			"-max-inflight", "7", "-queue", "3",
			"-read-only", "-request-timeout", "2s",
		}, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not come up")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hr storesrv.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hr.Status != "read_only" {
		t.Errorf("healthz status = %q, want read_only", hr.Status)
	}
	if hr.MaxInFlight != 7 || hr.Queue != 3 {
		t.Errorf("healthz limits = max %d queue %d, want 7/3", hr.MaxInFlight, hr.Queue)
	}

	// Writes shed in read-only mode; reads pass.
	c := storeclnt.New(base, storeclnt.WithRetries(0))
	if err := c.Put(storetest.MkProfile("denied", nil, 2)); err == nil {
		t.Error("write to a read-only daemon succeeded")
	}
	if _, err := c.Keys(); err != nil {
		t.Errorf("read against a read-only daemon failed: %v", err)
	}
	c.Close()

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if runErr != nil {
		t.Fatalf("run returned %v", runErr)
	}
	if !bytes.Contains(out.Bytes(), []byte("read_only=true")) {
		t.Errorf("startup log missing read-only marker: %q", out.String())
	}
}

// TestLogFormatJSON: -log-format json emits structured JSON lines, and
// -log-level debug surfaces the per-request lines.
func TestLogFormatJSON(t *testing.T) {
	var out bytes.Buffer
	stdout = &out
	defer func() { stdout = nil }()

	ready := make(chan string, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = run([]string{"-addr", "127.0.0.1:0", "-backend", "mem",
			"-log-format", "json", "-log-level", "debug"}, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not come up")
	}
	resp, err := http.Get("http://" + addr + "/v1/keys")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	var sawServing, sawRequest bool
	for _, line := range bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n")) {
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("log line not JSON: %v: %s", err, line)
		}
		switch rec["msg"] {
		case "serving":
			sawServing = true
		case "request":
			if rec["route"] == "/v1/keys" && rec["method"] == "GET" {
				sawRequest = true
			}
		}
	}
	if !sawServing || !sawRequest {
		t.Errorf("json log missing serving/request lines (serving=%v request=%v):\n%s",
			sawServing, sawRequest, out.String())
	}
}

func TestBadLogFlags(t *testing.T) {
	if err := run([]string{"-log-format", "xml"}, nil); err == nil {
		t.Error("bad -log-format accepted")
	}
	if err := run([]string{"-log-level", "verbose"}, nil); err == nil {
		t.Error("bad -log-level accepted")
	}
}

func TestVersionFlag(t *testing.T) {
	var out bytes.Buffer
	stdout = &out
	defer func() { stdout = nil }()
	if err := run([]string{"-version"}, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out.Bytes(), []byte("synapsed")) || !bytes.Contains(out.Bytes(), []byte("go1.")) {
		t.Errorf("version output incomplete: %q", out.String())
	}
}

// TestFlagSetUnchanged pins the daemon's options: extracting the shared
// flags into httpsvc must add, drop and re-default nothing.
func TestFlagSetUnchanged(t *testing.T) {
	want := map[string]string{
		"addr": ":8181", "backend": "sharded", "dir": "synapse-store", "shards": "16",
		"pprof": "false", "grace": "10s", "max-inflight": "0", "queue": "0",
		"read-only": "false", "request-timeout": "0s", "log-format": "text",
		"log-level": "info", "version": "false",
	}
	fs := flag.NewFlagSet("synapsed", flag.ContinueOnError)
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
