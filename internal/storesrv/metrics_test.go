package storesrv

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"synapse/internal/httpsvc"
	"synapse/internal/store"
	"synapse/internal/store/storetest"
	"synapse/internal/telemetry"
)

// scrape fetches /v1/metrics and validates it through the telemetry
// package's own exposition parser — the same check CI's smoke runs.
func scrape(t *testing.T, s *Server) *telemetry.Exposition {
	t.Helper()
	w := doJSON(t, s, http.MethodGet, "/v1/metrics", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("metrics = %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	exp, err := telemetry.ParseExposition(w.Body.Bytes())
	if err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, w.Body)
	}
	return exp
}

func TestMetricsEndpointServesREDSeries(t *testing.T) {
	s, _ := newServer(t)
	p := storetest.MkProfile("mdsim", map[string]string{"steps": "10"}, 2)
	doJSON(t, s, http.MethodPut, "/v1/profiles", encodeProfile(t, p))
	doJSON(t, s, http.MethodGet, "/v1/profiles?key="+url.QueryEscape(p.Key()), nil)
	doJSON(t, s, http.MethodGet, "/v1/nope", nil)

	exp := scrape(t, s)
	for _, name := range []string{
		"synapse_http_requests_total",
		"synapse_http_request_duration_seconds",
		"synapse_http_inflight_requests",
		"synapse_admission_queue_depth",
		"synapse_build_info",
	} {
		if !exp.Has(name) {
			t.Errorf("exposition missing %s", name)
		}
	}
	// The raw text carries the per-route labels we expect.
	w := doJSON(t, s, http.MethodGet, "/v1/metrics", nil)
	body := w.Body.String()
	for _, series := range []string{
		`synapse_http_requests_total{route="/v1/profiles",method="PUT",code="200"} 1`,
		`synapse_http_requests_total{route="/v1/profiles",method="GET",code="200"} 1`,
		`synapse_http_requests_total{route="other",method="GET",code="404"} 1`,
		`synapse_http_request_duration_seconds_count{route="/v1/profiles",method="PUT"} 1`,
	} {
		if !strings.Contains(body, series) {
			t.Errorf("missing series %q in:\n%s", series, body)
		}
	}
}

// TestMetricsBypassesAdmission: scrapes must answer while the data path is
// saturated or draining — observability is most needed during overload.
func TestMetricsBypassesAdmission(t *testing.T) {
	s := New(store.NewSharded(1), Config{Config: httpsvc.Config{MaxInFlight: 1}})
	if err := s.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	w := doJSON(t, s, http.MethodGet, "/v1/metrics", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("metrics during drain = %d", w.Code)
	}
}

func TestShedCountedByCode(t *testing.T) {
	s := New(store.NewSharded(1), Config{ReadOnly: true})
	p := storetest.MkProfile("mdsim", nil, 1)
	w := doJSON(t, s, http.MethodPut, "/v1/profiles", encodeProfile(t, p))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("write in read-only = %d", w.Code)
	}
	body := doJSON(t, s, http.MethodGet, "/v1/metrics", nil).Body.String()
	if !strings.Contains(body, `synapse_admission_shed_total{code="read_only"} 1`) {
		t.Errorf("shed not counted by code:\n%s", body)
	}
	if !strings.Contains(body, "synapse_admission_read_only 1") {
		t.Errorf("read-only gauge not set:\n%s", body)
	}
	// Shed responses still hit the RED counter with their status code.
	if !strings.Contains(body, `synapse_http_requests_total{route="/v1/profiles",method="PUT",code="503"} 1`) {
		t.Errorf("shed request missing from RED counter:\n%s", body)
	}
}

func TestSharedRegistryAcrossServers(t *testing.T) {
	reg := telemetry.NewRegistry()
	a := New(store.NewSharded(1), Config{Config: httpsvc.Config{Metrics: reg}})
	if a.Metrics() != reg {
		t.Fatal("server did not adopt the shared registry")
	}
	// Registering the same instruments from a second server must not panic
	// (idempotent registration) — e.g. tests booting several servers.
	b := New(store.NewSharded(1), Config{Config: httpsvc.Config{Metrics: reg}})
	doJSON(t, a, http.MethodGet, "/v1/healthz", nil)
	doJSON(t, b, http.MethodGet, "/v1/healthz", nil)
	body := doJSON(t, a, http.MethodGet, "/v1/metrics", nil).Body.String()
	if !strings.Contains(body, `synapse_http_requests_total{route="/v1/healthz",method="GET",code="200"} 2`) {
		t.Errorf("shared registry did not merge counts:\n%s", body)
	}
}

func TestHealthzCarriesBuildBlock(t *testing.T) {
	s, _ := newServer(t)
	w := doJSON(t, s, http.MethodGet, "/v1/healthz", nil)
	var h HealthResponse
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Build.GoVersion == "" || h.Build.Version == "" {
		t.Errorf("healthz build block incomplete: %+v", h.Build)
	}
}

func TestRequestLogging(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	s := New(store.NewSharded(1), Config{Config: httpsvc.Config{Logger: log}})
	doJSON(t, s, http.MethodGet, "/v1/profiles?key=mdsim", nil)

	var line struct {
		Msg    string  `json:"msg"`
		Route  string  `json:"route"`
		Method string  `json:"method"`
		Code   int     `json:"code"`
		Key    string  `json:"key"`
		Dur    float64 `json:"duration"`
	}
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("log line not JSON: %v\n%s", err, buf.String())
	}
	if line.Msg != "request" || line.Route != "/v1/profiles" ||
		line.Method != "GET" || line.Code != http.StatusNotFound || line.Key != "mdsim" {
		t.Errorf("log line fields wrong: %+v (%s)", line, buf.String())
	}
}
