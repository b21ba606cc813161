package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"synapse/internal/httpsvc"
	"synapse/internal/retry"
	"synapse/internal/scenario"
)

// HTTPWorker drives one synapse-worker daemon over the wire protocol. It
// performs single attempts — retry discipline lives in the coordinator's
// policy, which also decides when the worker is dead — but it does the
// error translation: structured codes come back as the package's sentinel
// errors, and shed responses carry their Retry-After hint for the backoff.
type HTTPWorker struct {
	base string
	hc   *http.Client
}

// NewHTTPWorker returns a client for the worker daemon at base (e.g.
// "http://host:9191"). hc nil uses a client with a 60s overall timeout —
// chunk executions are real work, not metadata lookups.
func NewHTTPWorker(base string, hc *http.Client) *HTTPWorker {
	if hc == nil {
		hc = &http.Client{Timeout: 60 * time.Second}
	}
	return &HTTPWorker{base: strings.TrimRight(base, "/"), hc: hc}
}

// Name implements Worker: workers are named by their base URL.
func (w *HTTPWorker) Name() string { return w.base }

// Compile implements Worker.
func (w *HTTPWorker) Compile(ctx context.Context, req *CompileRequest) error {
	var resp CompileResponse
	if err := w.post(ctx, "/v1/compile", req, &resp); err != nil {
		return err
	}
	if resp.Seed != req.Spec.Seed {
		return fmt.Errorf("%w: worker %s compiled seed %d, coordinator has %d",
			ErrSeedMismatch, w.base, resp.Seed, req.Spec.Seed)
	}
	return nil
}

// Execute implements Worker: the gather over ExecuteStream — the
// coordinator commits a chunk all-or-nothing, so it wants the result whole.
func (w *HTTPWorker) Execute(ctx context.Context, req *ExecuteRequest) ([]*scenario.Outcome, error) {
	// emit's slice is reused line to line; only the outcomes it points to
	// (one slab per wire line) change hands.
	outs := make([]*scenario.Outcome, 0, len(req.Jobs))
	err := w.ExecuteStream(ctx, req, func(batch []*scenario.Outcome) error {
		outs = append(outs, batch...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// ExecuteStream is the transport method: it posts the chunk and hands each
// outcome batch of the NDJSON response to emit as it is decoded — one slab
// per line — so the chunk's result never materializes as one body on either
// side. The slice handed to emit is reused for the next line; the outcomes it
// points to are the callee's. A terminal done line is required — a stream
// that ends without one (connection cut, worker died mid-chunk) is an error,
// never a silently short result — and so is the NDJSON content type: a 200
// in any other shape is not a worker speaking this protocol.
func (w *HTTPWorker) ExecuteStream(ctx context.Context, req *ExecuteRequest, emit func(outs []*scenario.Outcome) error) error {
	resp, err := w.send(ctx, "/v1/execute", req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		return fmt.Errorf("dist: %s /v1/execute: response is %q, not NDJSON", w.base, ct)
	}
	var batch []*scenario.Outcome // emit's argument, reused line to line
	dec := json.NewDecoder(resp.Body)
	streamed := 0
	for {
		var line StreamChunk
		if err := dec.Decode(&line); err != nil {
			if err == io.EOF {
				return fmt.Errorf("dist: %s /v1/execute: stream truncated after %d outcomes (no done line)", w.base, streamed)
			}
			return fmt.Errorf("dist: %s /v1/execute: decode stream: %w", w.base, err)
		}
		switch {
		case line.Error != "":
			return w.sentinel(line.Code, fmt.Errorf("dist: %s /v1/execute: stream error: %s", w.base, line.Error))
		case line.Done:
			if line.N != streamed {
				return fmt.Errorf("dist: %s /v1/execute: stream done line says %d outcomes, received %d", w.base, line.N, streamed)
			}
			return nil
		default:
			slab, err := unpackOutcomes(line.Packed)
			if err != nil {
				return fmt.Errorf("dist: %s /v1/execute: %w", w.base, err)
			}
			batch = appendPointers(batch[:0], slab)
			if err := emit(batch); err != nil {
				return err
			}
			if streamed += len(slab); streamed > len(req.Jobs) {
				return fmt.Errorf("dist: %s /v1/execute: stream carries %d outcomes for %d jobs", w.base, streamed, len(req.Jobs))
			}
		}
	}
}

// send posts one JSON request and returns the 200 response for the caller
// to decode and close; any other status comes back as a sentinel error.
func (w *HTTPWorker) send(ctx context.Context, path string, in any) (*http.Response, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return nil, fmt.Errorf("dist: encode %s: %w", path, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("dist: %s: %w", path, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("dist: %s %s: %w", w.base, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, w.decodeError(path, resp)
	}
	return resp, nil
}

// post sends one JSON request and decodes the JSON response.
func (w *HTTPWorker) post(ctx context.Context, path string, in, out any) error {
	resp, err := w.send(ctx, path, in)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("dist: %s %s: decode response: %w", w.base, path, err)
	}
	return nil
}

// decodeError rebuilds a sentinel error from a structured error response,
// attaching any Retry-After hint for the coordinator's backoff.
func (w *HTTPWorker) decodeError(path string, resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	er, _ := httpsvc.DecodeError(data)
	err := w.sentinel(er.Code, fmt.Errorf("dist: %s %s: HTTP %d: %s", w.base, path, resp.StatusCode, er.Error))
	if wait := httpsvc.RetryAfter(resp.Header); wait > 0 {
		err = retry.After(err, wait)
	}
	return err
}

// sentinel rebuilds the package sentinel for a structured error code, from
// a status body or an in-band stream error line alike.
func (w *HTTPWorker) sentinel(code string, base error) error {
	for _, we := range wireErrors {
		if we.code == code {
			return fmt.Errorf("%w: %v", we.err, base)
		}
	}
	return base
}
