package storesrv

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"synapse/internal/httpsvc"
	"synapse/internal/profile"
	"synapse/internal/store"
	"synapse/internal/store/storetest"
	"synapse/internal/testutil"
)

func newServer(t *testing.T) (*Server, *store.Sharded) {
	t.Helper()
	backend := store.NewSharded(4)
	return New(backend, Config{}), backend
}

func doJSON(t *testing.T, s *Server, method, target string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func encodeProfile(t *testing.T, p *profile.Profile) []byte {
	t.Helper()
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestHealthz(t *testing.T) {
	s, _ := newServer(t)
	w := doJSON(t, s, http.MethodGet, "/v1/healthz", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("healthz = %d", w.Code)
	}
}

func TestPutThenFindOverHTTP(t *testing.T) {
	s, backend := newServer(t)
	p := storetest.MkProfile("mdsim", map[string]string{"steps": "100"}, 4)
	w := doJSON(t, s, http.MethodPut, "/v1/profiles", encodeProfile(t, p))
	if w.Code != http.StatusOK {
		t.Fatalf("put = %d: %s", w.Code, w.Body)
	}
	var pr PutResponse
	if err := json.Unmarshal(w.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Key != p.Key() || pr.Generation != 1 {
		t.Errorf("put response = %+v", pr)
	}
	// The profile landed in the backend.
	if _, err := backend.Find("mdsim", map[string]string{"steps": "100"}); err != nil {
		t.Fatal(err)
	}
	// And comes back over the wire with an ETag.
	w = doJSON(t, s, http.MethodGet, "/v1/profiles?key="+url.QueryEscape(p.Key()), nil)
	if w.Code != http.StatusOK {
		t.Fatalf("find = %d: %s", w.Code, w.Body)
	}
	if etag := w.Header().Get("ETag"); !strings.HasSuffix(etag, `-g1"`) {
		t.Errorf("ETag = %q, want epoch-qualified generation 1", etag)
	}
	var set profile.Set
	if err := json.Unmarshal(w.Body.Bytes(), &set); err != nil {
		t.Fatal(err)
	}
	if len(set) != 1 || len(set[0].Samples) != 4 {
		t.Errorf("wire profiles wrong: %d", len(set))
	}
}

func TestConditionalGetRevalidates(t *testing.T) {
	s, _ := newServer(t)
	p := storetest.MkProfile("cmd", nil, 2)
	doJSON(t, s, http.MethodPut, "/v1/profiles", encodeProfile(t, p))
	target := "/v1/profiles?key=" + url.QueryEscape(p.Key())

	// Learn the current ETag from a full fetch.
	w := doJSON(t, s, http.MethodGet, target, nil)
	etag := w.Header().Get("ETag")
	if etag == "" {
		t.Fatal("find response has no ETag")
	}

	// Matching generation: 304, no body.
	req := httptest.NewRequest(http.MethodGet, target, nil)
	req.Header.Set("If-None-Match", etag)
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusNotModified {
		t.Fatalf("matching If-None-Match = %d, want 304", w.Code)
	}
	if w.Body.Len() != 0 {
		t.Errorf("304 carried a body: %d bytes", w.Body.Len())
	}

	// A second put bumps the generation; the old tag refetches.
	doJSON(t, s, http.MethodPut, "/v1/profiles", encodeProfile(t, storetest.MkProfile("cmd", nil, 3)))
	req = httptest.NewRequest(http.MethodGet, target, nil)
	req.Header.Set("If-None-Match", etag)
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("stale If-None-Match = %d, want 200", w.Code)
	}
	if next := w.Header().Get("ETag"); next == etag || !strings.HasSuffix(next, `-g2"`) {
		t.Errorf("ETag after second put = %q (was %q)", next, etag)
	}
}

// Two server boots over one persistent backend must never produce colliding
// ETags: a client cache primed in the first boot would otherwise revalidate
// stale data after a restart reset the generation counters.
func TestEtagsDifferAcrossRestarts(t *testing.T) {
	backend := store.NewSharded(2)
	p := storetest.MkProfile("cmd", nil, 1)
	boot1 := New(backend, Config{})
	doJSON(t, boot1, http.MethodPut, "/v1/profiles", encodeProfile(t, p))
	target := "/v1/profiles?key=" + url.QueryEscape(p.Key())
	etag1 := doJSON(t, boot1, http.MethodGet, target, nil).Header().Get("ETag")

	boot2 := New(backend, Config{})
	doJSON(t, boot2, http.MethodPut, "/v1/profiles", encodeProfile(t, storetest.MkProfile("cmd", nil, 9)))
	w := doJSON(t, boot2, http.MethodGet, target, nil)
	if etag2 := w.Header().Get("ETag"); etag2 == etag1 {
		t.Fatalf("ETag %q collided across restarts", etag1)
	}
	// The old tag must refetch, not 304.
	req := httptest.NewRequest(http.MethodGet, target, nil)
	req.Header.Set("If-None-Match", etag1)
	rec := httptest.NewRecorder()
	boot2.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("pre-restart ETag = %d, want 200 (full refetch)", rec.Code)
	}
}

func TestStructuredErrors(t *testing.T) {
	s, _ := newServer(t)
	w := doJSON(t, s, http.MethodGet, "/v1/profiles?key=absent", nil)
	if w.Code != http.StatusNotFound {
		t.Fatalf("missing profile = %d", w.Code)
	}
	var er httpsvc.ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.Code != CodeNotFound {
		t.Errorf("code = %q, want %q", er.Code, CodeNotFound)
	}

	w = doJSON(t, s, http.MethodGet, "/v1/profiles", nil)
	if w.Code != http.StatusBadRequest {
		t.Errorf("missing key = %d, want 400", w.Code)
	}

	w = doJSON(t, s, http.MethodPut, "/v1/profiles", []byte("not json"))
	if w.Code != http.StatusBadRequest {
		t.Errorf("bad body = %d, want 400", w.Code)
	}

	limited := New(store.NewShardedWithLimit(2, 4096), Config{})
	big := storetest.MkProfile("big", nil, 100)
	w = doJSON(t, limited, http.MethodPut, "/v1/profiles", encodeProfile(t, big))
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized put = %d, want 413", w.Code)
	}
	_ = json.Unmarshal(w.Body.Bytes(), &er)
	if er.Code != CodeDocTooLarge {
		t.Errorf("code = %q, want %q", er.Code, CodeDocTooLarge)
	}
}

// TestOversizedBodyIsTooLarge is storesrv's face of the stack's body limit
// (exercised itself in internal/httpsvc): a body read that trips a limit
// answers 413 with the too_large code, and a small gzip body is held to the
// same httpsvc.MaxBodyBytes once inflated instead of being buffered whole.
func TestOversizedBodyIsTooLarge(t *testing.T) {
	s, _ := newServer(t)
	check := func(name string, req *http.Request) {
		t.Helper()
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		var er httpsvc.ErrorResponse
		_ = json.Unmarshal(w.Body.Bytes(), &er)
		if w.Code != http.StatusRequestEntityTooLarge || er.Code != httpsvc.CodeTooLarge {
			t.Errorf("%s: oversized body = %d/%q, want 413/%q", name, w.Code, er.Code, httpsvc.CodeTooLarge)
		}
	}
	// A tiny limit tripping mid-read stands in for the 64 MiB one.
	capped := http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(`{"command":"mdsim"}`)), 4)
	check("capped body", httptest.NewRequest(http.MethodPut, "/v1/profiles", capped))

	if testing.Short() {
		return // the bomb inflates to 64 MiB
	}
	var bomb bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&bomb, gzip.BestSpeed)
	if _, err := io.CopyN(zw, testutil.Zeros{}, httpsvc.MaxBodyBytes+1); err != nil {
		t.Fatal(err)
	}
	zw.Close()
	req := httptest.NewRequest(http.MethodPut, "/v1/profiles", &bomb)
	req.Header.Set("Content-Encoding", "gzip")
	check("gzip bomb", req)
}

func TestPutTruncateQuery(t *testing.T) {
	s := New(store.NewShardedWithLimit(2, 4096), Config{})
	big := storetest.MkProfile("big", nil, 100)
	w := doJSON(t, s, http.MethodPut, "/v1/profiles?truncate=1", encodeProfile(t, big))
	if w.Code != http.StatusOK {
		t.Fatalf("truncated put = %d: %s", w.Code, w.Body)
	}
	var pr PutResponse
	if err := json.Unmarshal(w.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Dropped == 0 {
		t.Error("truncated put reported no dropped samples")
	}
}

func TestBatchMixedResults(t *testing.T) {
	s, _ := newServer(t)
	good := storetest.MkProfile("a", nil, 1)
	bad := profile.New("", nil) // invalid: no command
	body, err := json.Marshal(BatchRequest{Profiles: []*profile.Profile{good, bad}})
	if err != nil {
		t.Fatal(err)
	}
	w := doJSON(t, s, http.MethodPost, "/v1/profiles:batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("batch = %d: %s", w.Code, w.Body)
	}
	var br BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 2 {
		t.Fatalf("batch results = %d", len(br.Results))
	}
	if br.Results[0].Error != "" || br.Results[0].Key != "a" {
		t.Errorf("good item failed: %+v", br.Results[0])
	}
	if br.Results[1].Code != CodeInvalid {
		t.Errorf("bad item code = %q, want %q", br.Results[1].Code, CodeInvalid)
	}
}

func TestKeysEndpoint(t *testing.T) {
	s, _ := newServer(t)
	w := doJSON(t, s, http.MethodGet, "/v1/keys", nil)
	var kr KeysResponse
	if err := json.Unmarshal(w.Body.Bytes(), &kr); err != nil {
		t.Fatal(err)
	}
	if kr.Keys == nil || len(kr.Keys) != 0 {
		t.Errorf("empty store keys = %#v, want []", kr.Keys)
	}
	doJSON(t, s, http.MethodPut, "/v1/profiles", encodeProfile(t, storetest.MkProfile("b", nil, 1)))
	doJSON(t, s, http.MethodPut, "/v1/profiles", encodeProfile(t, storetest.MkProfile("a", nil, 1)))
	w = doJSON(t, s, http.MethodGet, "/v1/keys", nil)
	if err := json.Unmarshal(w.Body.Bytes(), &kr); err != nil {
		t.Fatal(err)
	}
	if len(kr.Keys) != 2 || kr.Keys[0] != "a" {
		t.Errorf("keys = %v, want sorted [a b]", kr.Keys)
	}
}

func TestDeleteEndpoint(t *testing.T) {
	s, _ := newServer(t)
	p := storetest.MkProfile("gone", nil, 1)
	doJSON(t, s, http.MethodPut, "/v1/profiles", encodeProfile(t, p))
	w := doJSON(t, s, http.MethodDelete, "/v1/profiles?key="+url.QueryEscape(p.Key()), nil)
	if w.Code != http.StatusNoContent {
		t.Fatalf("delete = %d", w.Code)
	}
	w = doJSON(t, s, http.MethodGet, "/v1/profiles?key="+url.QueryEscape(p.Key()), nil)
	if w.Code != http.StatusNotFound {
		t.Errorf("find after delete = %d, want 404", w.Code)
	}
}

func TestGzipRequestAndResponse(t *testing.T) {
	s, _ := newServer(t)
	p := storetest.MkProfile("zipped", nil, 50)

	// Upload with Content-Encoding: gzip.
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(encodeProfile(t, p)); err != nil {
		t.Fatal(err)
	}
	_ = zw.Close()
	req := httptest.NewRequest(http.MethodPut, "/v1/profiles", &buf)
	req.Header.Set("Content-Encoding", "gzip")
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("gzip put = %d: %s", w.Code, w.Body)
	}

	// Download with Accept-Encoding: gzip.
	req = httptest.NewRequest(http.MethodGet, "/v1/profiles?key="+url.QueryEscape(p.Key()), nil)
	req.Header.Set("Accept-Encoding", "gzip")
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("gzip find = %d", w.Code)
	}
	if w.Header().Get("Content-Encoding") != "gzip" {
		t.Fatal("response not gzip-encoded despite Accept-Encoding")
	}
	zr, err := gzip.NewReader(w.Body)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	var set profile.Set
	if err := json.Unmarshal(data, &set); err != nil {
		t.Fatal(err)
	}
	if len(set) != 1 || len(set[0].Samples) != 50 {
		t.Errorf("gzip round trip lost data: %d profiles", len(set))
	}
}

func TestPprofMountOptional(t *testing.T) {
	on := New(store.NewMem(), Config{Config: httpsvc.Config{Pprof: true}})
	w := doJSON(t, on, http.MethodGet, "/debug/pprof/", nil)
	if w.Code != http.StatusOK {
		t.Errorf("pprof enabled index = %d", w.Code)
	}
	off, _ := newServer(t)
	w = doJSON(t, off, http.MethodGet, "/debug/pprof/", nil)
	if w.Code == http.StatusOK {
		t.Error("pprof should not be mounted by default")
	}
}

func TestStartAndShutdown(t *testing.T) {
	testutil.CheckGoroutines(t)
	s, _ := newServer(t)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr.String() + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz over TCP = %d", resp.StatusCode)
	}
	if err := s.Shutdown(t.Context()); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr.String() + "/v1/healthz"); err == nil {
		t.Error("server still serving after Shutdown")
	}
}
