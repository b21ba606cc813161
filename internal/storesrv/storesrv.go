// Package storesrv is the HTTP profile-store service behind the synapsed
// daemon: it exposes any store.Store backend over a small JSON/REST API so
// many emulation hosts can share one profile database — the paper's
// "profile once, emulate anywhere" workflow (§4), where profiles live in a
// MongoDB service queried by every emulation host.
//
// API (all bodies JSON, gzip accepted and offered via the usual
// Content-Encoding/Accept-Encoding negotiation):
//
//	PUT    /v1/profiles            store one profile (?truncate=1 degrades to
//	                               the document limit instead of failing)
//	POST   /v1/profiles:batch      store many profiles, per-item results
//	GET    /v1/profiles?key=K      all profiles under a key, ETag'd by a
//	                               per-key generation counter (If-None-Match
//	                               returns 304 so clients can cache)
//	DELETE /v1/profiles?key=K      drop a key
//	GET    /v1/keys                list keys
//
// Everything generic about the daemon — admission control, the RED
// middleware, /v1/healthz, /v1/metrics, optional pprof, graceful drain —
// is the shared internal/httpsvc stack; this package is the routes above
// plus the store's admission policy (read-only mode, writes shed first).
//
// Errors round-trip as {"error": ..., "code": ...}; the storeclnt package
// maps codes back onto store.ErrNotFound / store.ErrDocTooLarge.
package storesrv

import (
	"compress/gzip"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"synapse/internal/httpsvc"
	"synapse/internal/profile"
	"synapse/internal/store"
)

// Error codes carried in structured error responses, beside the admission
// codes httpsvc owns (overloaded, draining). read_only rides on 503 and is
// terminal for writes.
const (
	CodeNotFound    = "not_found"
	CodeDocTooLarge = "doc_too_large"
	CodeInvalid     = "invalid"
	CodeInternal    = "internal"
	CodeReadOnly    = "read_only"
)

// PutResponse answers a successful single put.
type PutResponse struct {
	Key        string `json:"key"`
	Dropped    int    `json:"dropped,omitempty"`
	Generation uint64 `json:"generation"`
}

// BatchRequest stores several profiles in one round trip.
type BatchRequest struct {
	Profiles []*profile.Profile `json:"profiles"`
	Truncate bool               `json:"truncate,omitempty"`
}

// BatchItem is the per-profile outcome of a batch put.
type BatchItem struct {
	Key     string `json:"key,omitempty"`
	Dropped int    `json:"dropped,omitempty"`
	Error   string `json:"error,omitempty"`
	Code    string `json:"code,omitempty"`
}

// BatchResponse lists one item per submitted profile, in order.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// KeysResponse lists the distinct keys in the backend.
type KeysResponse struct {
	Keys []string `json:"keys"`
}

// Config tunes the service: the generic stack's settings (admission,
// deadline, pprof, metrics, logger) plus the store-specific degraded mode.
// Under load, excess reads wait in the admission queue; excess writes are
// shed immediately with 429 and a Retry-After hint (writes shed first).
type Config struct {
	httpsvc.Config
	// ReadOnly starts the server in read-only degraded mode: writes are
	// shed with 503/read_only, reads proceed. Toggle later via SetReadOnly.
	ReadOnly bool
}

// HealthResponse is the /v1/healthz body: liveness plus the stack's overload
// counters and build block.
type HealthResponse struct {
	Status string `json:"status"` // "ok", "read_only", or "draining"
	httpsvc.Health
}

// Server serves a store.Store over HTTP on the shared httpsvc stack, which
// supplies ServeHTTP (mount it in tests with httptest.NewServer), Start,
// admission control and the RED middleware. Construct with New.
type Server struct {
	*httpsvc.Server
	backend store.Store

	// gen counts mutations per key. GET responses carry the generation as
	// an ETag; remote clients revalidate their caches against it with
	// If-None-Match instead of re-downloading profile bodies. The epoch is
	// a per-boot nonce mixed into every ETag: counters restart at zero
	// when the daemon restarts, and without it a client cache primed in a
	// previous boot could collide with the fresh counter and wrongly
	// revalidate stale data against a persistent (file) backend.
	genMu sync.Mutex
	gen   map[string]uint64
	epoch string

	readOnly atomic.Bool
}

// New wraps backend in an HTTP service.
func New(backend store.Store, cfg Config) *Server {
	nonce := make([]byte, 6)
	_, _ = rand.Read(nonce)
	s := &Server{
		backend: backend,
		gen:     map[string]uint64{},
		epoch:   hex.EncodeToString(nonce),
	}
	s.readOnly.Store(cfg.ReadOnly)
	s.Server = httpsvc.New(cfg.Config, httpsvc.Service{
		Subject: "storesrv: server",
		Admit:   s.admit,
		Health: func(status string, base httpsvc.Health) any {
			if status == "ok" && s.readOnly.Load() {
				status = "read_only"
			}
			return HealthResponse{Status: status, Health: base}
		},
	})
	s.Metrics().GaugeFunc("synapse_admission_read_only",
		"1 while the server is in read-only degraded mode.",
		func() float64 { return httpsvc.BoolGauge(s.readOnly.Load()) })
	s.Handle("PUT /v1/profiles", s.handlePut)
	s.Handle("GET /v1/profiles", s.handleFind)
	s.Handle("DELETE /v1/profiles", s.handleDelete)
	s.Handle("POST /v1/profiles:batch", s.handleBatch)
	s.Handle("GET /v1/keys", s.handleKeys)
	return s
}

// admit is the store's admission policy: writes are shed first — refused
// outright in read-only mode, and never queued under load.
func (s *Server) admit(r *http.Request) httpsvc.Policy {
	if r.Method == http.MethodGet || r.Method == http.MethodHead {
		return httpsvc.Policy{}
	}
	if s.readOnly.Load() {
		return httpsvc.Policy{Code: CodeReadOnly, Msg: "storesrv: server is read-only"}
	}
	return httpsvc.Policy{NoQueue: true}
}

// SetReadOnly toggles read-only degraded mode at runtime: writes are shed
// with 503/read_only while reads proceed normally.
func (s *Server) SetReadOnly(on bool) { s.readOnly.Store(on) }

// ReadOnly reports whether the server is in read-only degraded mode.
func (s *Server) ReadOnly() bool { return s.readOnly.Load() }

// Shutdown gracefully stops the server: the stack sheds new data-path
// requests (503/draining) and waits (up to ctx) for in-flight ones, then
// the backend closes.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.Server.Shutdown(ctx)
	if cerr := s.backend.Close(); err == nil {
		err = cerr
	}
	return err
}

// generation returns the current mutation count for key.
func (s *Server) generation(key string) uint64 {
	s.genMu.Lock()
	defer s.genMu.Unlock()
	return s.gen[key]
}

// bump increments and returns key's generation after a mutation.
func (s *Server) bump(key string) uint64 {
	s.genMu.Lock()
	defer s.genMu.Unlock()
	s.gen[key]++
	return s.gen[key]
}

func (s *Server) etagFor(gen uint64) string { return fmt.Sprintf(`"%s-g%d"`, s.epoch, gen) }

// requestBody returns the request body, transparently gunzipping when the
// client sent Content-Encoding: gzip. The stack bounds the bytes on the
// wire; the same bound applies again to what they inflate to.
func requestBody(r *http.Request) (io.ReadCloser, error) {
	if strings.EqualFold(r.Header.Get("Content-Encoding"), "gzip") {
		zr, err := gzip.NewReader(r.Body)
		if err != nil {
			return nil, fmt.Errorf("bad gzip body: %w", err)
		}
		return http.MaxBytesReader(nil, zr, httpsvc.MaxBodyBytes), nil
	}
	return r.Body, nil
}

// writeJSON sends v as JSON, gzip-compressed when the client accepts it.
func writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	var out io.Writer = w
	if strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
		w.Header().Set("Content-Encoding", "gzip")
		w.WriteHeader(status)
		zw := gzip.NewWriter(w)
		defer zw.Close()
		out = zw
	} else {
		w.WriteHeader(status)
	}
	_ = json.NewEncoder(out).Encode(v)
}

// codeOf maps a backend error onto its status and structured code. The
// code, not the message, is the contract: clients rebuild sentinel errors
// from it.
func codeOf(err error) (status int, code string) {
	switch {
	case errors.Is(err, store.ErrNotFound):
		return http.StatusNotFound, CodeNotFound
	case errors.Is(err, store.ErrDocTooLarge):
		return http.StatusRequestEntityTooLarge, CodeDocTooLarge
	}
	return http.StatusInternalServerError, CodeInternal
}

func writeError(w http.ResponseWriter, r *http.Request, err error) {
	status, code := codeOf(err)
	writeJSON(w, r, status, httpsvc.ErrorResponse{Error: err.Error(), Code: code})
}

// writeBadRequest answers a request whose body could not be read or
// decoded: 413 too_large when the stack's body limit tripped, else 400.
func writeBadRequest(w http.ResponseWriter, r *http.Request, err error) {
	status, code := http.StatusBadRequest, CodeInvalid
	if httpsvc.BodyTooLarge(err) {
		status, code = http.StatusRequestEntityTooLarge, httpsvc.CodeTooLarge
	}
	writeJSON(w, r, status, httpsvc.ErrorResponse{Error: err.Error(), Code: code})
}

// decodeProfile reads one profile from the (possibly gzipped) request body.
func decodeProfile(r *http.Request) (*profile.Profile, error) {
	body, err := requestBody(r)
	if err != nil {
		return nil, err
	}
	defer body.Close()
	data, err := io.ReadAll(body)
	if err != nil {
		return nil, fmt.Errorf("read body: %w", err)
	}
	return profile.Decode(data)
}

// put stores p, degrading to the document limit when truncate is set.
// Backends without a limit cannot overflow; a strict put is equivalent.
func (s *Server) put(p *profile.Profile, truncate bool) (dropped int, err error) {
	if tr, ok := s.backend.(store.Truncator); truncate && ok {
		return tr.PutTruncated(p)
	}
	return 0, s.backend.Put(p)
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	p, err := decodeProfile(r)
	if err != nil {
		writeBadRequest(w, r, err)
		return
	}
	dropped, err := s.put(p, r.URL.Query().Get("truncate") == "1")
	if err != nil {
		writeError(w, r, err)
		return
	}
	key := p.Key()
	writeJSON(w, r, http.StatusOK, PutResponse{Key: key, Dropped: dropped, Generation: s.bump(key)})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, err := requestBody(r)
	if err != nil {
		writeBadRequest(w, r, err)
		return
	}
	defer body.Close()
	var req BatchRequest
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeBadRequest(w, r, fmt.Errorf("decode batch: %w", err))
		return
	}
	resp := BatchResponse{Results: make([]BatchItem, len(req.Profiles))}
	for i, p := range req.Profiles {
		item := &resp.Results[i]
		if p == nil {
			item.Error, item.Code = "nil profile", CodeInvalid
			continue
		}
		if err := p.Validate(); err != nil {
			item.Error, item.Code = err.Error(), CodeInvalid
			continue
		}
		var perr error
		if item.Dropped, perr = s.put(p, req.Truncate); perr != nil {
			item.Error = perr.Error()
			_, item.Code = codeOf(perr)
			continue
		}
		item.Key = p.Key()
		s.bump(item.Key)
	}
	writeJSON(w, r, http.StatusOK, resp)
}

func (s *Server) handleFind(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		writeBadRequest(w, r, errors.New("missing key parameter"))
		return
	}
	// Read the generation before the backend: if a put lands in between,
	// the response carries fresh data under a stale tag, which only costs
	// the client one redundant revalidation.
	gen := s.generation(key)
	etag := s.etagFor(gen)
	if match := r.Header.Get("If-None-Match"); match != "" && match == etag {
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	command, tags := profile.ParseKey(key)
	set, err := s.backend.Find(command, tags)
	if err != nil {
		writeError(w, r, err)
		return
	}
	w.Header().Set("ETag", etag)
	writeJSON(w, r, http.StatusOK, set)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		writeBadRequest(w, r, errors.New("missing key parameter"))
		return
	}
	command, tags := profile.ParseKey(key)
	if err := s.backend.Delete(command, tags); err != nil {
		writeError(w, r, err)
		return
	}
	s.bump(key)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleKeys(w http.ResponseWriter, r *http.Request) {
	keys, err := s.backend.Keys()
	if err != nil {
		writeError(w, r, err)
		return
	}
	if keys == nil {
		keys = []string{}
	}
	writeJSON(w, r, http.StatusOK, KeysResponse{Keys: keys})
}
