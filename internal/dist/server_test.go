package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"synapse/internal/httpsvc"
	"synapse/internal/scenario"
	"synapse/internal/store"
	"synapse/internal/testutil"
)

// startServer boots a WorkerServer on a loopback port and returns its base
// URL. The server drains on test cleanup; the leak checker verifies the
// drain actually releases its goroutines.
func startServer(t *testing.T, cfg ServerConfig) (*WorkerServer, string) {
	t.Helper()
	s := NewServer(cfg)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, "http://" + addr.String()
}

// TestHTTPByteIdentity runs the full wire path — coordinator, HTTPWorker,
// WorkerServer, JSON round trips of jobs and outcomes — against real
// daemons, and requires the jittered spec's report to match the local run
// byte for byte. This is where float64 loads and duration outcomes must
// survive the wire exactly.
func TestHTTPByteIdentity(t *testing.T) {
	testutil.CheckGoroutines(t)
	st := seedStore(t, "mdsim", "sleep")
	spec := bigJitteredSpec()
	local, err := scenario.Run(context.Background(), spec, st, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := marshalReport(t, local)

	var fleet []Worker
	for i := 0; i < 2; i++ {
		_, base := startServer(t, ServerConfig{Workers: 2})
		fleet = append(fleet, NewHTTPWorker(base, nil))
	}
	rep, co := runDist(t, spec, st, Config{Workers: fleet})
	if got := marshalReport(t, rep); !bytes.Equal(got, want) {
		t.Errorf("report over HTTP diverged from local run\ngot:\n%s\nwant:\n%s", got, want)
	}
	if s := co.Stats(); s.WorkerFailures != 0 || s.LiveWorkers != 2 {
		t.Errorf("stats = %+v", s)
	}
}

// TestHTTPSeedMismatch: a coordinator whose seed disagrees with the worker's
// compiled session must be refused with ErrSeedMismatch — 409 seed_mismatch
// on the wire, terminal for the coordinator — before any outcome folds.
func TestHTTPSeedMismatch(t *testing.T) {
	testutil.CheckGoroutines(t)
	st := seedStore(t, "mdsim", "sleep")
	spec := jitteredSpec()
	profs, err := scenario.ResolveProfiles(context.Background(), spec, st)
	if err != nil {
		t.Fatal(err)
	}
	_, base := startServer(t, ServerConfig{})
	w := NewHTTPWorker(base, nil)
	ctx := context.Background()
	req := &CompileRequest{Session: "s", Spec: spec, Profiles: profs}
	if err := w.Compile(ctx, req); err != nil {
		t.Fatal(err)
	}
	_, err = w.Execute(ctx, &ExecuteRequest{Session: "s", Seed: spec.Seed ^ 1})
	if !errors.Is(err, ErrSeedMismatch) {
		t.Fatalf("err = %v, want ErrSeedMismatch", err)
	}
	resp, er := postJSON(t, base+"/v1/execute", fmt.Sprintf(`{"session":"s","seed":%d}`, spec.Seed^1))
	if resp.StatusCode != http.StatusConflict || er.Code != CodeSeedMismatch {
		t.Errorf("mismatched seed on the wire = %d/%q, want 409/%q", resp.StatusCode, er.Code, CodeSeedMismatch)
	}
	if _, err := w.Execute(ctx, &ExecuteRequest{Session: "s", Seed: spec.Seed}); err != nil {
		t.Fatalf("matching seed refused: %v", err)
	}
	assertSeedMismatchTerminal(t, w)
}

// TestHTTPExecuteAlwaysStreams: /v1/execute has one response shape. A request
// that asks for nothing in particular — no "stream" field, as any client
// sends — is answered in NDJSON, done line included.
func TestHTTPExecuteAlwaysStreams(t *testing.T) {
	testutil.CheckGoroutines(t)
	st := seedStore(t, "mdsim", "sleep")
	spec := jitteredSpec()
	profs, err := scenario.ResolveProfiles(context.Background(), spec, st)
	if err != nil {
		t.Fatal(err)
	}
	_, base := startServer(t, ServerConfig{Workers: 1})
	if err := NewHTTPWorker(base, nil).Compile(context.Background(), &CompileRequest{Session: "s", Spec: spec, Profiles: profs}); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"session":"s","seed":%d,"jobs":[{"w":0,"load_bits":0},{"w":1,"load_bits":0}]}`, spec.Seed)
	resp, err := http.Post(base+"/v1/execute", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "application/x-ndjson" {
		t.Fatalf("execute answered %d %q, want 200 application/x-ndjson", resp.StatusCode, ct)
	}
	var last StreamChunk
	outcomes := 0
	for dec := json.NewDecoder(resp.Body); ; {
		var line StreamChunk
		if err := dec.Decode(&line); err != nil {
			break
		}
		outcomes += len(line.Packed) / recordSize
		last = line
	}
	if !last.Done || last.N != 2 || outcomes != 2 {
		t.Errorf("stream ended with %+v after %d outcomes, want a done line counting 2", last, outcomes)
	}
}

// TestHTTPNoSessionRecovery: a worker that evicted the coordinator's
// session answers no_session; the coordinator recompiles transparently and
// the rerun still reproduces the first report exactly.
func TestHTTPNoSessionRecovery(t *testing.T) {
	testutil.CheckGoroutines(t)
	st := seedStore(t, "mdsim", "sleep")
	spec := jitteredSpec()
	srv, base := startServer(t, ServerConfig{MaxSessions: 1})
	ctx := context.Background()
	co, err := NewCoordinator(ctx, spec, st, Config{
		Workers: []Worker{NewHTTPWorker(base, nil)},
		Retry:   fastRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	first, err := scenario.Run(ctx, spec, st, scenario.RunOptions{Executor: co})
	if err != nil {
		t.Fatal(err)
	}

	// A second coordinator's compile evicts the first session (cap is 1).
	other, err := NewCoordinator(ctx, spec, st, Config{Workers: []Worker{NewHTTPWorker(base, nil)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scenario.Run(ctx, spec, st, scenario.RunOptions{Executor: other}); err != nil {
		t.Fatal(err)
	}
	if n := srv.local.sessions.len(); n != 1 {
		t.Fatalf("server holds %d sessions, want 1", n)
	}

	// The first coordinator's session is gone; the rerun must recover via
	// no_session → recompile, not fail, and reproduce the report.
	again, err := scenario.Run(ctx, spec, st, scenario.RunOptions{Executor: co})
	if err != nil {
		t.Fatalf("rerun after eviction: %v", err)
	}
	if a, b := marshalReport(t, first), marshalReport(t, again); !bytes.Equal(a, b) {
		t.Errorf("rerun after session eviction changed the report\nfirst:\n%s\nagain:\n%s", a, b)
	}
	if s := co.Stats(); s.WorkerFailures != 0 {
		t.Errorf("eviction recovery marked the worker dead: %+v", s)
	}
}

func postJSON(t *testing.T, url string, body string) (*http.Response, httpsvc.ErrorResponse) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var er httpsvc.ErrorResponse
	_ = json.Unmarshal(data, &er)
	return resp, er
}

// TestHTTPStructuredErrors pins the wire contract: malformed and unknown
// requests come back with the documented status codes and machine-readable
// error codes.
func TestHTTPStructuredErrors(t *testing.T) {
	testutil.CheckGoroutines(t)
	_, base := startServer(t, ServerConfig{})
	cases := []struct {
		path, body string
		status     int
		code       string
	}{
		{"/v1/compile", "{not json", http.StatusBadRequest, CodeInvalid},
		{"/v1/compile", `{"session":"s"}`, http.StatusBadRequest, CodeInvalid},
		{"/v1/execute", `{"session":"ghost"}`, http.StatusNotFound, CodeNoSession},
	}
	for _, tc := range cases {
		resp, er := postJSON(t, base+tc.path, tc.body)
		if resp.StatusCode != tc.status || er.Code != tc.code {
			t.Errorf("POST %s %q: got %d/%q, want %d/%q",
				tc.path, tc.body, resp.StatusCode, er.Code, tc.status, tc.code)
		}
	}
}

// TestHTTPRequestLimits is the worker's face of the request bounds: a body
// past the stack's limit answers 413 too_large, which the client rebuilds
// as the terminal ErrInvalid (resending it cannot succeed), and an execute
// request listing more jobs than maxExecuteJobs is refused as invalid.
func TestHTTPRequestLimits(t *testing.T) {
	srv := NewServer(ServerConfig{})
	post := func(body io.Reader) (int, httpsvc.ErrorResponse) {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/execute", body))
		er, _ := httpsvc.DecodeError(w.Body.Bytes())
		return w.Code, er
	}
	body := `{"session":"s","jobs":[` + strings.Repeat("{},", maxExecuteJobs) + `{}]}`
	status, er := post(strings.NewReader(body))
	if status != http.StatusBadRequest || er.Code != CodeInvalid || !strings.Contains(er.Error, "jobs") {
		t.Errorf("execute with %d jobs = %d/%q (%s), want 400/%q naming the job limit",
			maxExecuteJobs+1, status, er.Code, er.Error, CodeInvalid)
	}

	// The stack's own limit is exercised in internal/httpsvc; here a body
	// that trips a (tiny) limit mid-decode stands in for a 64 MiB one.
	status, er = post(http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(`{"session":"s"}`)), 4))
	if status != http.StatusRequestEntityTooLarge || er.Code != httpsvc.CodeTooLarge {
		t.Errorf("oversized execute body = %d/%q, want 413/%q", status, er.Code, httpsvc.CodeTooLarge)
	}
	if err := NewHTTPWorker("http://w", nil).sentinel(er.Code, errors.New(er.Error)); !errors.Is(err, ErrInvalid) {
		t.Errorf("client rebuilt %q as %v, want the terminal ErrInvalid", er.Code, err)
	}
}

// TestHTTPHealthzAndMetrics: the observability endpoints answer with the
// worker's session count, admission state and the RED series.
func TestHTTPHealthzAndMetrics(t *testing.T) {
	testutil.CheckGoroutines(t)
	st := seedStore(t, "mdsim", "sleep")
	spec := jitteredSpec()
	_, base := startServer(t, ServerConfig{Config: httpsvc.Config{MaxInFlight: 8}, Workers: 1})
	fleet := []Worker{NewHTTPWorker(base, nil)}
	if _, err := scenario.Run(context.Background(), spec, st, scenario.RunOptions{
		Executor: mustCoordinator(t, spec, st, Config{Workers: fleet}),
	}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" || h.Sessions != 1 || h.MaxInFlight != 8 {
		t.Errorf("healthz = %+v", h)
	}

	resp, err = http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{
		"synapse_http_requests_total",
		"synapse_http_request_duration_seconds",
		"synapse_dist_worker_jobs_total",
		"synapse_dist_worker_sessions",
		"synapse_build_info",
	} {
		if !strings.Contains(string(body), series) {
			t.Errorf("metrics exposition missing %s", series)
		}
	}
}

func mustCoordinator(t *testing.T, spec *scenario.Spec, st store.Store, cfg Config) *Coordinator {
	t.Helper()
	co, err := NewCoordinator(context.Background(), spec, st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return co
}

// TestHTTPDrainSheds: once draining, data-path requests shed with
// 503/draining and a Retry-After hint while healthz keeps answering and
// reports the drain.
func TestHTTPDrainSheds(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := NewServer(ServerConfig{})
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	req, _ := http.NewRequest(http.MethodPost, "/v1/execute", strings.NewReader("{}"))
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining execute: status %d, want 503", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Error("draining shed carries no Retry-After")
	}
	var er httpsvc.ErrorResponse
	_ = json.Unmarshal(rec.Body.Bytes(), &er)
	if er.Code != httpsvc.CodeDraining {
		t.Errorf("shed code = %q, want %q", er.Code, httpsvc.CodeDraining)
	}

	rec = httptest.NewRecorder()
	req, _ = http.NewRequest(http.MethodGet, "/v1/healthz", nil)
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz while draining: status %d", rec.Code)
	}
	var h HealthResponse
	_ = json.Unmarshal(rec.Body.Bytes(), &h)
	if h.Status != "draining" || h.Shed != 1 {
		t.Errorf("healthz while draining = %+v", h)
	}
}

// TestHTTPOverloadSheds: with the only execution slot taken and no queue,
// a data-path request sheds with 429/overloaded.
func TestHTTPOverloadSheds(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := NewServer(ServerConfig{Config: httpsvc.Config{MaxInFlight: 1}})
	// Occupy the sole slot: an admitted execute parked reading a body that
	// never ends.
	body, hold := io.Pipe()
	held := make(chan struct{})
	go func() {
		defer close(held)
		req, _ := http.NewRequest(http.MethodPost, "/v1/execute", body)
		s.ServeHTTP(httptest.NewRecorder(), req)
	}()
	defer func() { hold.Close(); <-held }()
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		if inflight, _ := s.Counters(); inflight == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the holding request never took the slot")
		}
	}

	rec := httptest.NewRecorder()
	req, _ := http.NewRequest(http.MethodPost, "/v1/execute", strings.NewReader("{}"))
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overloaded execute: status %d, want 429", rec.Code)
	}
	var er httpsvc.ErrorResponse
	_ = json.Unmarshal(rec.Body.Bytes(), &er)
	if er.Code != httpsvc.CodeOverloaded {
		t.Errorf("shed code = %q, want %q", er.Code, httpsvc.CodeOverloaded)
	}
	// Bypass routes must still answer at capacity.
	rec = httptest.NewRecorder()
	req, _ = http.NewRequest(http.MethodGet, "/v1/healthz", nil)
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz at capacity: status %d", rec.Code)
	}
}
