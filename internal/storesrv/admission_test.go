package storesrv

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"synapse/internal/httpsvc"
	"synapse/internal/profile"
	"synapse/internal/store"
	"synapse/internal/store/storetest"
	"synapse/internal/testutil"
)

// gatedStore wraps a Store and blocks reads until released, so tests can
// hold requests in flight deterministically.
type gatedStore struct {
	store.Store
	gate    chan struct{}
	reading atomic.Int64
}

func newGatedStore(inner store.Store) *gatedStore {
	return &gatedStore{Store: inner, gate: make(chan struct{})}
}

func (g *gatedStore) Find(command string, tags map[string]string) (profile.Set, error) {
	g.reading.Add(1)
	defer g.reading.Add(-1)
	<-g.gate
	return g.Store.Find(command, tags)
}

func (g *gatedStore) release() { close(g.gate) }

func mkTestProfile(t *testing.T, command string) *profile.Profile {
	t.Helper()
	return storetest.MkProfile(command, nil, 3)
}

// putBody builds a valid PUT /v1/profiles request body.
func putBody(t *testing.T, command string) *strings.Reader {
	t.Helper()
	data, err := json.Marshal(mkTestProfile(t, command))
	if err != nil {
		t.Fatal(err)
	}
	return strings.NewReader(string(data))
}

func decodeErr(t *testing.T, resp *http.Response) httpsvc.ErrorResponse {
	t.Helper()
	defer resp.Body.Close()
	var er httpsvc.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	return er
}

// TestWritesShedFirst: at capacity, a write is refused immediately (429)
// even though the read queue has room — only reads may wait.
func TestWritesShedFirst(t *testing.T) {
	gs := newGatedStore(store.NewSharded(2))
	if err := gs.Store.Put(mkTestProfile(t, "held")); err != nil {
		t.Fatal(err)
	}
	srv := New(gs, Config{Config: httpsvc.Config{MaxInFlight: 1, Queue: 8}})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(ts.URL + "/v1/profiles?key=held")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for gs.reading.Load() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/profiles", putBody(t, "newcmd"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("write at capacity got %d, want 429 (writes shed first)", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed write missing Retry-After")
	}
	if er := decodeErr(t, resp); er.Code != httpsvc.CodeOverloaded {
		t.Fatalf("code = %q, want %q", er.Code, httpsvc.CodeOverloaded)
	}
	gs.release()
	<-done
}

// TestReadOnlyMode: writes shed with 503/read_only, reads and health checks
// keep working, and the mode is toggleable at runtime.
func TestReadOnlyMode(t *testing.T) {
	backend := store.NewSharded(2)
	if err := backend.Put(mkTestProfile(t, "existing")); err != nil {
		t.Fatal(err)
	}
	srv := New(backend, Config{ReadOnly: true})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/profiles", putBody(t, "denied"))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("write in read-only mode got %d, want 503", resp.StatusCode)
	}
	if er := decodeErr(t, resp); er.Code != CodeReadOnly {
		t.Fatalf("code = %q, want %q", er.Code, CodeReadOnly)
	}

	get, err := http.Get(ts.URL + "/v1/profiles?key=existing")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, get.Body)
	get.Body.Close()
	if get.StatusCode != http.StatusOK {
		t.Fatalf("read in read-only mode got %d, want 200", get.StatusCode)
	}

	hr := healthz(t, ts.URL)
	if hr.Status != "read_only" {
		t.Fatalf("healthz status = %q, want read_only", hr.Status)
	}

	srv.SetReadOnly(false)
	req2, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/profiles", putBody(t, "allowed"))
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("write after SetReadOnly(false) got %d, want 200", resp2.StatusCode)
	}
}

// TestDrainingShedsNewRequests: once Shutdown begins, new data-path
// requests are refused with 503/draining.
func TestDrainingShedsNewRequests(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv := New(store.NewSharded(2), Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/keys")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("request during drain got %d, want 503", resp.StatusCode)
	}
	if er := decodeErr(t, resp); er.Code != httpsvc.CodeDraining {
		t.Fatalf("code = %q, want %q", er.Code, httpsvc.CodeDraining)
	}
}

func healthz(t *testing.T, base string) HealthResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var hr HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	return hr
}

// TestHealthzBypassesAdmissionAndReportsCounters: the health endpoint must
// answer while the data path is saturated, and its counters must reflect
// the in-flight and shed totals.
func TestHealthzBypassesAdmissionAndReportsCounters(t *testing.T) {
	gs := newGatedStore(store.NewSharded(2))
	if err := gs.Store.Put(mkTestProfile(t, "held")); err != nil {
		t.Fatal(err)
	}
	srv := New(gs, Config{Config: httpsvc.Config{MaxInFlight: 1}})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(ts.URL + "/v1/profiles?key=held")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for gs.reading.Load() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	// Shed one read to move the counter.
	resp, err := http.Get(ts.URL + "/v1/profiles?key=held")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second read got %d, want 429", resp.StatusCode)
	}

	hr := healthz(t, ts.URL)
	if hr.Status != "ok" {
		t.Fatalf("healthz status = %q", hr.Status)
	}
	if hr.InFlight != 1 {
		t.Fatalf("healthz inflight = %d, want 1 (the held read)", hr.InFlight)
	}
	if hr.Shed != 1 {
		t.Fatalf("healthz shed = %d, want 1", hr.Shed)
	}
	if hr.MaxInFlight != 1 {
		t.Fatalf("healthz max_inflight = %d, want 1", hr.MaxInFlight)
	}
	gs.release()
	<-done
}
