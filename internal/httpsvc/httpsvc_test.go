package httpsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"synapse/internal/telemetry"
	"synapse/internal/testutil"
)

// gated is a minimal service on the stack: GET and PUT /v1/thing park in the
// handler until released, so tests can hold requests in flight
// deterministically; GET /v1/quick answers at once.
type gated struct {
	*Server
	gate    chan struct{}
	holding atomic.Int64
	peak    atomic.Int64
}

func newGated(cfg Config, svc Service) *gated {
	if svc.Subject == "" {
		svc.Subject = "test: server"
	}
	g := &gated{Server: New(cfg, svc), gate: make(chan struct{})}
	hold := func(w http.ResponseWriter, r *http.Request) {
		n := g.holding.Add(1)
		defer g.holding.Add(-1)
		for {
			p := g.peak.Load()
			if n <= p || g.peak.CompareAndSwap(p, n) {
				break
			}
		}
		<-g.gate
		WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
	}
	g.Handle("GET /v1/thing", hold)
	g.Handle("PUT /v1/thing", hold)
	g.Handle("GET /v1/quick", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	return g
}

func (g *gated) release() { close(g.gate) }

// waitHolding blocks until n requests are parked inside the handler.
func (g *gated) waitHolding(t *testing.T, n int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for g.holding.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests reached the handler", g.holding.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// get issues one request and returns its status, draining the body.
func get(url string) (*http.Response, error) {
	resp, err := http.Get(url)
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	return resp, err
}

func decodeEnvelope(t *testing.T, body io.Reader) ErrorResponse {
	t.Helper()
	data, _ := io.ReadAll(body)
	er, ok := DecodeError(data)
	if !ok {
		t.Fatalf("body is not an error envelope: %q", data)
	}
	return er
}

func serve(s http.Handler, method, target string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(method, target, nil))
	return w
}

// TestBoundedInFlightSheds: with MaxInFlight=2 and no queue, further
// concurrent requests are shed with 429 + Retry-After + the overloaded
// envelope while the handler never sees more than two at once.
func TestBoundedInFlightSheds(t *testing.T) {
	g := newGated(Config{MaxInFlight: 2}, Service{})
	ts := httptest.NewServer(g)
	defer ts.Close()

	var wg sync.WaitGroup
	codes := make(chan int, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/thing")
			if err != nil {
				codes <- -1
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests {
				data, _ := io.ReadAll(resp.Body)
				if er, _ := DecodeError(data); resp.Header.Get("Retry-After") != "1" || er.Code != CodeOverloaded {
					codes <- -2
					return
				}
			}
			io.Copy(io.Discard, resp.Body)
			codes <- resp.StatusCode
		}()
	}
	g.waitHolding(t, 2)
	time.Sleep(20 * time.Millisecond) // give the rest time to arrive and shed
	g.release()
	wg.Wait()
	close(codes)

	var ok, shed int
	for c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		case -2:
			t.Fatal("429 response missing Retry-After: 1 or the overloaded envelope")
		default:
			t.Fatalf("unexpected outcome %d", c)
		}
	}
	if ok != 2 || shed != 6 {
		t.Fatalf("ok=%d shed=%d, want 2 admitted and 6 shed", ok, shed)
	}
	if p := g.peak.Load(); p > 2 {
		t.Fatalf("handler saw %d concurrent requests, bound is 2", p)
	}
	if _, s := g.Counters(); s != 6 {
		t.Fatalf("shed counter = %d, want 6", s)
	}
}

// TestQueueAdmitsAfterRelease: a request arriving at capacity parks in the
// admission queue and completes once a slot frees, instead of shedding.
func TestQueueAdmitsAfterRelease(t *testing.T) {
	g := newGated(Config{MaxInFlight: 1, Queue: 4, RequestTimeout: 5 * time.Second}, Service{})
	ts := httptest.NewServer(g)
	defer ts.Close()

	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := get(ts.URL + "/v1/thing")
			if err != nil {
				results <- -1
				return
			}
			results <- resp.StatusCode
		}()
	}
	g.waitHolding(t, 1)
	time.Sleep(20 * time.Millisecond) // second request should now be queued
	g.release()
	for i := 0; i < 2; i++ {
		if c := <-results; c != http.StatusOK {
			t.Fatalf("request %d finished with %d, want 200 (queued then admitted)", i, c)
		}
	}
}

// TestQueueWaitBounded: a queued request sheds once the request-timeout wait
// budget burns down, rather than waiting forever on a stuck slot.
func TestQueueWaitBounded(t *testing.T) {
	g := newGated(Config{MaxInFlight: 1, Queue: 4, RequestTimeout: 50 * time.Millisecond}, Service{})
	ts := httptest.NewServer(g)
	defer ts.Close()
	defer g.release() // unstick the holder before ts.Close waits on it

	go get(ts.URL + "/v1/thing")
	g.waitHolding(t, 1)

	start := time.Now()
	resp, err := get(ts.URL + "/v1/thing")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queued request behind a stuck slot got %d, want 429", resp.StatusCode)
	}
	if took := time.Since(start); took < 40*time.Millisecond || took > 2*time.Second {
		t.Fatalf("queue wait lasted %v, want ~50ms", took)
	}
}

// TestAdmitHook: the service's policy runs after the draining check and
// before a slot is taken — Code refuses with 503 even on an idle server,
// NoQueue sheds at capacity although the queue has room.
func TestAdmitHook(t *testing.T) {
	var refuse atomic.Bool
	g := newGated(Config{MaxInFlight: 1, Queue: 8}, Service{
		Admit: func(r *http.Request) Policy {
			if r.Method != http.MethodPut {
				return Policy{}
			}
			if refuse.Load() {
				return Policy{Code: "frozen", Msg: "test: server is frozen"}
			}
			return Policy{NoQueue: true}
		},
	})
	ts := httptest.NewServer(g)
	defer ts.Close()

	refuse.Store(true)
	w := serve(g, http.MethodPut, "/v1/thing")
	if er := decodeEnvelope(t, w.Body); w.Code != http.StatusServiceUnavailable || er.Code != "frozen" ||
		er.Error != "test: server is frozen" || w.Header().Get("Retry-After") != "1" {
		t.Fatalf("refused PUT = %d %+v", w.Code, er)
	}
	refuse.Store(false)

	done := make(chan struct{})
	go func() { defer close(done); get(ts.URL + "/v1/thing") }()
	g.waitHolding(t, 1)
	w = serve(g, http.MethodPut, "/v1/thing")
	if er := decodeEnvelope(t, w.Body); w.Code != http.StatusTooManyRequests || er.Code != CodeOverloaded {
		t.Fatalf("NoQueue PUT at capacity = %d %+v, want 429/overloaded", w.Code, er)
	}
	g.release()
	<-done
}

// TestDrainSheds: once Shutdown begins, data-path requests are refused with
// 503/draining and a Retry-After hint, while healthz and metrics keep
// answering and report the drain.
func TestDrainSheds(t *testing.T) {
	testutil.CheckGoroutines(t)
	g := newGated(Config{}, Service{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := g.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	w := serve(g, http.MethodGet, "/v1/quick")
	if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") == "" {
		t.Fatalf("request during drain = %d (Retry-After %q), want 503 with a hint", w.Code, w.Header().Get("Retry-After"))
	}
	if er := decodeEnvelope(t, w.Body); er.Code != CodeDraining || er.Error != "test: server is draining" {
		t.Fatalf("drain envelope = %+v", er)
	}

	w = serve(g, http.MethodGet, "/v1/healthz")
	var h struct {
		Status string `json:"status"`
		Health
	}
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil || w.Code != http.StatusOK {
		t.Fatalf("healthz while draining = %d %v", w.Code, err)
	}
	if h.Status != "draining" || h.Shed != 1 || h.Build.GoVersion == "" {
		t.Errorf("healthz while draining = %+v", h)
	}
	body := serve(g, http.MethodGet, "/v1/metrics").Body.String()
	for _, series := range []string{
		"synapse_admission_draining 1",
		`synapse_admission_shed_total{code="draining"} 1`,
		`synapse_http_requests_total{route="/v1/quick",method="GET",code="503"} 1`,
	} {
		if !strings.Contains(body, series) {
			t.Errorf("metrics while draining miss %q:\n%s", series, body)
		}
	}
}

// TestBypassRoutesAnswerAtCapacity: health, metrics and pprof skip admission
// control, so they answer while the only slot is held, and healthz reports
// the held request and the configured limits.
func TestBypassRoutesAnswerAtCapacity(t *testing.T) {
	g := newGated(Config{MaxInFlight: 1, Queue: 3, Pprof: true}, Service{})
	ts := httptest.NewServer(g)
	defer ts.Close()
	done := make(chan struct{})
	go func() { defer close(done); get(ts.URL + "/v1/thing") }()
	g.waitHolding(t, 1)

	for _, path := range []string{"/v1/healthz", "/v1/metrics", "/debug/pprof/", "/debug/pprof/cmdline"} {
		if w := serve(g, http.MethodGet, path); w.Code != http.StatusOK {
			t.Errorf("GET %s at capacity = %d, want 200", path, w.Code)
		}
	}
	var h Health
	if err := json.Unmarshal(serve(g, http.MethodGet, "/v1/healthz").Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.InFlight != 1 || h.MaxInFlight != 1 || h.Queue != 3 {
		t.Errorf("healthz at capacity = %+v, want inflight 1, max 1, queue 3", h)
	}
	g.release()
	<-done

	if w := serve(newGated(Config{}, Service{}), http.MethodGet, "/debug/pprof/"); w.Code != http.StatusNotFound {
		t.Errorf("pprof without Config.Pprof = %d, want 404", w.Code)
	}
}

// TestHealthHook: a service's Health hook owns the body, fed the stack's
// status and base block.
func TestHealthHook(t *testing.T) {
	type body struct {
		Status string `json:"status"`
		Extra  int    `json:"extra"`
		Health
	}
	g := newGated(Config{MaxInFlight: 5}, Service{
		Health: func(status string, base Health) any { return body{Status: status, Extra: 7, Health: base} },
	})
	w := serve(g, http.MethodGet, "/v1/healthz")
	var got body
	if err := json.Unmarshal(w.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Status != "ok" || got.Extra != 7 || got.MaxInFlight != 5 {
		t.Errorf("hooked healthz = %+v", got)
	}
	if !strings.HasPrefix(w.Body.String(), `{"status":"ok","extra":7,"inflight":0,"max_inflight":5,"shed":0,"build":`) {
		t.Errorf("healthz field order changed: %s", w.Body)
	}
}

// TestRequestTimeoutOnContext: admitted requests carry the configured
// server-side deadline on their context; bypass routes do not queue for it.
func TestRequestTimeoutOnContext(t *testing.T) {
	s := New(Config{RequestTimeout: 123 * time.Millisecond}, Service{})
	var sawDeadline atomic.Bool
	s.Handle("GET /v1/thing", func(w http.ResponseWriter, r *http.Request) {
		_, ok := r.Context().Deadline()
		sawDeadline.Store(ok)
	})
	if w := serve(s, http.MethodGet, "/v1/thing"); w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if !sawDeadline.Load() {
		t.Fatal("admitted request context carries no deadline")
	}
}

// TestRouteLabelsBoundCardinality: RED route labels come from the registered
// patterns — a registered path is its own label whatever the method, a
// subtree is one label however deep the request reaches, everything else
// collapses to "other".
func TestRouteLabelsBoundCardinality(t *testing.T) {
	g := newGated(Config{Pprof: true}, Service{})
	for path, want := range map[string]string{
		"/v1/thing":                 "/v1/thing",
		"/v1/quick":                 "/v1/quick",
		"/v1/healthz":               "/v1/healthz",
		"/v1/metrics":               "/v1/metrics",
		"/debug/pprof":              "/debug/pprof",
		"/debug/pprof/":             "/debug/pprof",
		"/debug/pprof/heap":         "/debug/pprof",
		"/debug/pprof/cmdline":      "/debug/pprof",
		"/debug/pprofessional":      "other",
		"/v1/thing/abc/evil":        "other",
		"/totally/made/up/9f8e7d6c": "other",
	} {
		if got := g.routeOf(path).label; got != want {
			t.Errorf("routeOf(%q) = %q, want %q", path, got, want)
		}
	}
	// The label reaches the series, including for a method the route does
	// not serve and for a path nobody registered.
	serve(g, http.MethodGet, "/v1/quick")
	serve(g, http.MethodDelete, "/v1/quick")
	serve(g, http.MethodGet, "/v1/nope")
	body := serve(g, http.MethodGet, "/v1/metrics").Body.String()
	for _, series := range []string{
		`synapse_http_requests_total{route="/v1/quick",method="GET",code="200"} 1`,
		`synapse_http_requests_total{route="/v1/quick",method="DELETE",code="405"} 1`,
		`synapse_http_requests_total{route="other",method="GET",code="404"} 1`,
		`synapse_http_request_duration_seconds_count{route="/v1/quick",method="GET"} 1`,
	} {
		if !strings.Contains(body, series) {
			t.Errorf("missing series %q in:\n%s", series, body)
		}
	}
	if _, err := telemetry.ParseExposition([]byte(body)); err != nil {
		t.Errorf("invalid exposition: %v", err)
	}
}

// TestRequestLogLine: one structured line per request, WARN for sheds, with
// the key query parameter attached when present.
func TestRequestLogLine(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	g := newGated(Config{Logger: log}, Service{})
	serve(g, http.MethodGet, "/v1/quick?key=mdsim")
	var line struct {
		Level, Msg, Route, Method, Key string
		Code                           int
	}
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("log line not JSON: %v\n%s", err, buf.String())
	}
	if line.Level != "DEBUG" || line.Msg != "request" || line.Route != "/v1/quick" ||
		line.Method != "GET" || line.Code != http.StatusOK || line.Key != "mdsim" {
		t.Errorf("log line fields wrong: %+v (%s)", line, buf.String())
	}
	buf.Reset()
	g.draining.Store(true)
	serve(g, http.MethodGet, "/v1/quick")
	if !strings.Contains(buf.String(), `"level":"WARN"`) || !strings.Contains(buf.String(), `"code":503`) {
		t.Errorf("shed request did not log at WARN: %s", buf.String())
	}
}

// TestRecorderUnwrapsForFlush: a handler behind the middleware can flush
// through http.NewResponseController — the recorder must not hide the real
// writer's Flusher.
func TestRecorderUnwrapsForFlush(t *testing.T) {
	s := New(Config{}, Service{})
	var flushErr error
	s.Handle("GET /v1/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("x"))
		flushErr = http.NewResponseController(w).Flush()
	})
	w := serve(s, http.MethodGet, "/v1/stream")
	if flushErr != nil || !w.Flushed {
		t.Fatalf("flush behind the middleware: err=%v flushed=%v", flushErr, w.Flushed)
	}
}

// TestStartAndShutdown: a Start'ed server serves on the bound address and
// stops accepting after Shutdown; a second listener on the same address
// surfaces the listen error.
func TestStartAndShutdown(t *testing.T) {
	testutil.CheckGoroutines(t)
	g := newGated(Config{}, Service{})
	addr, err := g.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := get("http://" + addr.String() + "/v1/quick"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET on started server: %v %v", resp, err)
	}
	if _, err := newGated(Config{}, Service{}).Start(addr.String()); err == nil {
		t.Error("second listener on a bound address did not fail")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := g.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	http.DefaultClient.CloseIdleConnections()
	if _, err := get("http://" + addr.String() + "/v1/quick"); err == nil {
		t.Error("server still serving after Shutdown")
	}
}

// TestRequestBodyBounded: an admitted request's body reads through up to
// MaxBodyBytes and fails past it with an error BodyTooLarge recognizes —
// also once a handler has wrapped it — so no request can make a daemon
// buffer without bound.
func TestRequestBodyBounded(t *testing.T) {
	s := New(Config{}, Service{})
	var (
		read int64
		err  error
	)
	s.Handle("POST /v1/sink", func(w http.ResponseWriter, r *http.Request) {
		read, err = io.Copy(io.Discard, r.Body)
	})
	post := func(n int64) {
		t.Helper()
		r := httptest.NewRequest(http.MethodPost, "/v1/sink", io.LimitReader(testutil.Zeros{}, n))
		s.ServeHTTP(httptest.NewRecorder(), r)
	}
	post(MaxBodyBytes)
	if err != nil || read != MaxBodyBytes {
		t.Errorf("body at the limit: read %d bytes, err %v; want all %d", read, err, int64(MaxBodyBytes))
	}
	post(MaxBodyBytes + 1)
	if !BodyTooLarge(err) || !BodyTooLarge(fmt.Errorf("decode: %w", err)) || read != MaxBodyBytes {
		t.Errorf("body past the limit: read %d bytes, err %v; want the limit error after %d", read, err, int64(MaxBodyBytes))
	}
	if BodyTooLarge(nil) || BodyTooLarge(io.ErrUnexpectedEOF) {
		t.Error("BodyTooLarge matched an unrelated error")
	}
}
