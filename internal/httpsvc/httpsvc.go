// Package httpsvc is the one HTTP service stack every Synapse daemon mounts:
// admission control (bounded in-flight requests, a counted wait queue, load
// shedding with Retry-After), the RED middleware (request counter, latency
// histogram, one structured log line per request), the structured
// {"error","code"} envelope, /v1/healthz, /v1/metrics, optional pprof, and
// the Start/Shutdown drain lifecycle. A service — storesrv behind synapsed,
// dist.WorkerServer behind synapse-worker — registers its routes with
// Handle and contributes at most two hooks (Service): a per-request
// admission policy and its healthz body. The generic-server /
// specific-service split keeps every robustness or tracing change in one
// place instead of one per daemon.
//
// The client half of the envelope lives here too (DecodeError, RetryAfter),
// so the wire shape has one encoder and one decoder; daemon.go holds the
// main() plumbing the daemons share.
package httpsvc

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"synapse/internal/telemetry"
)

// Config tunes the generic stack. Services embed it in their own config.
type Config struct {
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
	// MaxInFlight bounds concurrently-executing requests (0 = unbounded).
	// Excess requests wait in the admission queue, then shed with 429 and a
	// Retry-After hint.
	MaxInFlight int
	// Queue is the admission-queue depth for requests arriving while
	// MaxInFlight are executing (0 = shed instead of queueing).
	Queue int
	// RequestTimeout is the server-side deadline applied to each admitted
	// request's context, and the bound on admission-queue waits (0 = none).
	RequestTimeout time.Duration
	// Metrics is the registry the server's instruments register into; it is
	// rendered at GET /v1/metrics in Prometheus text exposition. nil gets a
	// private registry, so metrics always work; pass a shared registry to
	// merge server and client series into one scrape.
	Metrics *telemetry.Registry
	// Logger receives one structured line per request (level DEBUG for
	// successes, WARN for 5xx/shed) plus lifecycle events. nil discards.
	Logger *slog.Logger
}

// Service is what one daemon layers onto the generic stack.
type Service struct {
	// Subject names the server in shed messages: "dist: worker" sheds with
	// "dist: worker is at capacity".
	Subject string
	// Admit, when set, is consulted for every data-path request after the
	// draining check and before a slot is taken.
	Admit func(r *http.Request) Policy
	// Health, when set, builds the /v1/healthz body from the status ("ok" or
	// "draining") and the base block; services embed Health in their own
	// response type. Unset serves the status plus the base block.
	Health func(status string, base Health) any
}

// Health is the /v1/healthz base block: the overload counters operators
// watch when tuning -max-inflight and -queue, and the build block
// identifying exactly what binary is answering.
type Health struct {
	InFlight    int64           `json:"inflight"`
	MaxInFlight int             `json:"max_inflight,omitempty"`
	Queue       int             `json:"queue,omitempty"`
	Shed        int64           `json:"shed"`
	Build       telemetry.Build `json:"build"`
}

// route is what the middleware knows about a registered path.
type route struct {
	label  string
	bypass bool
}

// Server is the generic daemon. Construct with New and register routes with
// Handle; it implements http.Handler, so it can be mounted in tests
// (httptest.NewServer) or run standalone via Start/Shutdown.
type Server struct {
	svc Service
	mux *http.ServeMux

	// exact and subtrees index the registered patterns by path: the RED
	// route label and the admission-bypass rule both derive from them.
	exact    map[string]bool // path → bypass
	subtrees []route         // label is the subtree root without its trailing slash

	sem     chan struct{} // nil = unbounded
	queue   chan struct{} // waiter slots; nil = no queue
	timeout time.Duration // per-request server-side deadline (0 = none)

	draining atomic.Bool
	inflight atomic.Int64
	shed     atomic.Int64

	reg      *telemetry.Registry
	requests *telemetry.CounterVec   // by route, method, code
	latency  *telemetry.HistogramVec // by route, method
	shedVec  *telemetry.CounterVec   // by shed code

	log     *slog.Logger
	build   telemetry.Build
	httpSrv *http.Server
}

// New builds the stack for one service: admission state, the shared metric
// families, and the routes every daemon serves (/v1/healthz, /v1/metrics
// and, with cfg.Pprof, /debug/pprof/) — all of which bypass admission.
func New(cfg Config, svc Service) *Server {
	reg := cfg.Metrics
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	log := cfg.Logger
	if log == nil {
		log = telemetry.NopLogger()
	}
	s := &Server{
		svc:     svc,
		mux:     http.NewServeMux(),
		exact:   map[string]bool{},
		timeout: cfg.RequestTimeout,
		reg:     reg,
		log:     log,
		build:   telemetry.BuildInfo(),
	}
	if cfg.MaxInFlight > 0 {
		s.sem = make(chan struct{}, cfg.MaxInFlight)
		if cfg.Queue > 0 {
			s.queue = make(chan struct{}, cfg.Queue)
		}
	}
	s.requests = reg.CounterVec("synapse_http_requests_total",
		"HTTP requests served, by route, method and status code.",
		"route", "method", "code")
	s.latency = reg.HistogramVec("synapse_http_request_duration_seconds",
		"HTTP request latency in seconds, by route and method.",
		nil, "route", "method")
	s.shedVec = reg.CounterVec("synapse_admission_shed_total",
		"Requests refused by admission control, by shed code.",
		"code")
	reg.GaugeFunc("synapse_http_inflight_requests",
		"Requests currently executing (admission-controlled data path).",
		func() float64 { return float64(s.inflight.Load()) })
	reg.GaugeFunc("synapse_admission_queue_depth",
		"Requests currently parked in the admission queue.",
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("synapse_admission_draining",
		"1 while the server is draining for shutdown.",
		func() float64 { return BoolGauge(s.draining.Load()) })
	reg.GaugeVec("synapse_build_info",
		"Build metadata; the value is always 1.",
		"version", "go_version", "revision").
		With(s.build.Version, s.build.GoVersion, s.build.Revision).Set(1)

	s.mount("GET /v1/healthz", http.HandlerFunc(s.handleHealthz), true)
	s.mount("GET /v1/metrics", reg.Handler(), true)
	if cfg.Pprof {
		s.mount("/debug/pprof/", http.HandlerFunc(pprof.Index), true)
		s.mount("/debug/pprof/cmdline", http.HandlerFunc(pprof.Cmdline), true)
		s.mount("/debug/pprof/profile", http.HandlerFunc(pprof.Profile), true)
		s.mount("/debug/pprof/symbol", http.HandlerFunc(pprof.Symbol), true)
		s.mount("/debug/pprof/trace", http.HandlerFunc(pprof.Trace), true)
	}
	return s
}

// BoolGauge is the 0/1 encoding of a flag for a GaugeFunc.
func BoolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Handle registers a data-path route ("METHOD /path", net/http pattern
// syntax). Its requests pass admission control and run under the
// configured deadline, and its path becomes a RED route label.
func (s *Server) Handle(pattern string, h http.HandlerFunc) { s.mount(pattern, h, false) }

// mount registers pattern on the mux and indexes its path. bypass routes
// skip admission control entirely: health checks, metrics scrapes and
// profiling must answer even (especially) when the data path is saturated —
// an overloaded server that stops reporting its own overload is
// unobservable exactly when it matters.
func (s *Server) mount(pattern string, h http.Handler, bypass bool) {
	s.mux.Handle(pattern, h)
	path := pattern[strings.IndexByte(pattern, '/'):] // drop "METHOD "
	if root, ok := strings.CutSuffix(path, "/"); ok {
		s.subtrees = append(s.subtrees, route{label: root, bypass: bypass})
		return
	}
	s.exact[path] = bypass
}

// routeOf collapses a request path onto the bounded label set the
// registered patterns define, so a client probing random URLs cannot
// explode series cardinality. A subtree ("/debug/pprof/") is one label
// however deep the request reaches into it.
func (s *Server) routeOf(path string) route {
	for _, t := range s.subtrees {
		if rest, ok := strings.CutPrefix(path, t.label); ok && (rest == "" || rest[0] == '/') {
			return t
		}
	}
	if bypass, ok := s.exact[path]; ok {
		return route{label: path, bypass: bypass}
	}
	return route{label: "other"}
}

// statusRecorder captures the response status for the RED middleware; the
// body streams through untouched. Unwrap lets http.NewResponseController
// reach the real writer, so handlers behind the middleware can still Flush.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// ServeHTTP implements http.Handler. Every data-path request passes
// admission control (bypass routes skip it) and runs under the configured
// server-side deadline. All requests — including bypassed and shed ones —
// flow through the RED middleware: the request counter, the latency
// histogram, and one structured log line.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rt := s.routeOf(r.URL.Path)
	rec := &statusRecorder{ResponseWriter: w}
	s.serve(rec, r, rt.bypass)
	elapsed := time.Since(start)
	status := rec.status
	if status == 0 {
		status = http.StatusOK // handler never wrote; net/http sends 200
	}
	s.requests.With(rt.label, r.Method, strconv.Itoa(status)).Inc()
	s.latency.With(rt.label, r.Method).Observe(elapsed.Seconds())
	level := slog.LevelDebug
	if status >= 500 || status == http.StatusTooManyRequests {
		level = slog.LevelWarn
	}
	if !s.log.Enabled(r.Context(), level) {
		return
	}
	attrs := []any{
		slog.String("route", rt.label),
		slog.String("method", r.Method),
		slog.Int("code", status),
		slog.Duration("duration", elapsed),
	}
	if r.URL.RawQuery != "" {
		if key := r.URL.Query().Get("key"); key != "" {
			attrs = append(attrs, slog.String("key", key))
		}
	}
	s.log.Log(r.Context(), level, "request", attrs...)
}

// serve is the pre-telemetry handler chain: bypass, admission, deadline,
// body limit.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, bypass bool) {
	if bypass {
		s.mux.ServeHTTP(w, r)
		return
	}
	release := s.admit(w, r)
	if release == nil {
		return // shed; response already written
	}
	defer release()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.timeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
		defer cancel()
		r = r.WithContext(ctx)
	}
	r.Body = http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	s.mux.ServeHTTP(w, r)
}

// WriteJSON sends v as a JSON body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	base := Health{
		InFlight:    s.inflight.Load(),
		MaxInFlight: cap(s.sem),
		Queue:       cap(s.queue),
		Shed:        s.shed.Load(),
		Build:       s.build,
	}
	var body any = struct {
		Status string `json:"status"`
		Health
	}{status, base}
	if s.svc.Health != nil {
		body = s.svc.Health(status, base)
	}
	WriteJSON(w, http.StatusOK, body)
}

// Metrics returns the registry the server's instruments live in — the same
// one /v1/metrics renders.
func (s *Server) Metrics() *telemetry.Registry { return s.reg }

// Logger returns the server's logger, for a service's own lifecycle lines.
func (s *Server) Logger() *slog.Logger { return s.log }

// Counters snapshots the overload counters (currently executing requests
// and total shed responses).
func (s *Server) Counters() (inflight, shed int64) {
	return s.inflight.Load(), s.shed.Load()
}

// Start listens on addr (e.g. ":8181" or "127.0.0.1:0") and serves in the
// background, returning the bound address. Stop with Shutdown.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("httpsvc: listen %s: %w", addr, err)
	}
	s.httpSrv = &http.Server{Handler: s, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = s.httpSrv.Serve(ln) }()
	return ln.Addr(), nil
}

// Shutdown gracefully stops the server: new data-path requests are shed
// (503/draining) while a Start'ed listener stops accepting connections and
// waits (up to ctx) for in-flight requests.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if s.httpSrv != nil {
		return s.httpSrv.Shutdown(ctx)
	}
	return nil
}
