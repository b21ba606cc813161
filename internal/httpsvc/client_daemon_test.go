package httpsvc

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"net"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func TestDecodeError(t *testing.T) {
	for _, tc := range []struct {
		body   string
		want   ErrorResponse
		wantOK bool
	}{
		{`{"error":"dist: worker is draining","code":"draining"}`, ErrorResponse{"dist: worker is draining", "draining"}, true},
		{`{"error":"boom"}`, ErrorResponse{Error: "boom"}, true},
		{"  <html>502 Bad Gateway</html>\n", ErrorResponse{Error: "<html>502 Bad Gateway</html>"}, false},
		{`{"code":"orphan"}`, ErrorResponse{Error: `{"code":"orphan"}`}, false},
		{`{"error":"cut`, ErrorResponse{Error: `{"error":"cut`}, false},
		{"", ErrorResponse{}, false},
	} {
		got, ok := DecodeError([]byte(tc.body))
		if got != tc.want || ok != tc.wantOK {
			t.Errorf("DecodeError(%q) = (%+v, %v), want (%+v, %v)", tc.body, got, ok, tc.want, tc.wantOK)
		}
	}
}

func TestRetryAfter(t *testing.T) {
	date := func(d time.Duration) string { return time.Now().Add(d).UTC().Format(http.TimeFormat) }
	for _, tc := range []struct {
		header   string
		min, max time.Duration
	}{
		{"", 0, 0},
		{"1", time.Second, time.Second},
		{"0", 0, 0},
		{"120", 2 * time.Minute, 2 * time.Minute},
		{"-3", 0, 0},
		{"soon", 0, 0},
		{date(90 * time.Second), 80 * time.Second, 90 * time.Second},
		{date(-time.Hour), 0, 0},
	} {
		h := http.Header{}
		if tc.header != "" {
			h.Set("Retry-After", tc.header)
		}
		if got := RetryAfter(h); got < tc.min || got > tc.max {
			t.Errorf("RetryAfter(%q) = %v, want within [%v, %v]", tc.header, got, tc.min, tc.max)
		}
	}
}

// fakeService records what the daemon lifecycle does to it.
type fakeService struct {
	ln       net.Listener
	startErr error
	grace    time.Duration // budget Shutdown was given
	stopped  chan struct{}
}

func (f *fakeService) Start(addr string) (net.Addr, error) {
	if f.startErr != nil {
		return nil, f.startErr
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	f.ln = ln
	return ln.Addr(), nil
}

func (f *fakeService) Shutdown(ctx context.Context) error {
	if dl, ok := ctx.Deadline(); ok {
		f.grace = time.Until(dl)
	}
	close(f.stopped)
	return f.ln.Close()
}

// TestDaemonSignalDrains is the one signal → drain test both daemons rely
// on: Serve starts the service on -addr, reports ready, and on SIGTERM calls
// Shutdown with the -grace budget, logging both transitions.
func TestDaemonSignalDrains(t *testing.T) {
	var out bytes.Buffer
	d := NewDaemon(flag.NewFlagSet("testd", flag.ContinueOnError), &out, ":0")
	if done, err := d.Parse([]string{"-addr", "127.0.0.1:0", "-grace", "3s", "-max-inflight", "4", "-queue", "2"}); done || err != nil {
		t.Fatalf("Parse = %v, %v", done, err)
	}
	if d.Config.MaxInFlight != 4 || d.Config.Queue != 2 || d.Config.Logger == nil {
		t.Fatalf("parsed config = %+v", d.Config)
	}
	svc := &fakeService{stopped: make(chan struct{})}
	ready := make(chan string, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	var serveErr error
	go func() {
		defer wg.Done()
		serveErr = d.Serve(svc, ready, "role", "fake")
	}()
	select {
	case addr := <-ready:
		if !strings.HasPrefix(addr, "127.0.0.1:") {
			t.Errorf("ready address = %q", addr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not come up")
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if serveErr != nil {
		t.Fatalf("Serve returned %v", serveErr)
	}
	select {
	case <-svc.stopped:
	default:
		t.Fatal("SIGTERM did not reach Shutdown")
	}
	if svc.grace < 2*time.Second || svc.grace > 3*time.Second {
		t.Errorf("Shutdown budget = %v, want the 3s -grace", svc.grace)
	}
	log := out.String()
	if !strings.Contains(log, "msg=serving role=fake addr=http://127.0.0.1:") || !strings.Contains(log, "msg=draining signal=terminated grace=3s") {
		t.Errorf("lifecycle log lines missing:\n%s", log)
	}
}

func TestDaemonPreflight(t *testing.T) {
	parse := func(args ...string) (string, bool, error) {
		var out bytes.Buffer
		d := NewDaemon(flag.NewFlagSet("testd", flag.ContinueOnError), &out, ":0")
		done, err := d.Parse(args)
		return out.String(), done, err
	}
	for _, args := range [][]string{
		{"-queue", "8"}, // queue without a bound to queue against
		{"-max-inflight", "-1"},
		{"-max-inflight", "4", "-queue", "-2"},
		{"-log-format", "xml"},
		{"-log-level", "verbose"},
	} {
		if _, done, err := parse(args...); err == nil || done {
			t.Errorf("Parse(%v) = done %v, err %v; want an error", args, done, err)
		}
	}
	out, done, err := parse("-version")
	if err != nil || !done || !strings.Contains(out, "testd") || !strings.Contains(out, "go1.") {
		t.Errorf("-version: done=%v err=%v out=%q", done, err, out)
	}

	// A service that cannot start surfaces its error without waiting for a signal.
	d := NewDaemon(flag.NewFlagSet("testd", flag.ContinueOnError), &bytes.Buffer{}, ":0")
	if _, err := d.Parse(nil); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("listen refused")
	if err := d.Serve(&fakeService{startErr: boom}, nil); !errors.Is(err, boom) {
		t.Errorf("Serve with a failing Start = %v, want %v", err, boom)
	}
}
