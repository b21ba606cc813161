package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"synapse/internal/scenario"
	"synapse/internal/testutil"
)

// distinctJobs hand-builds n distinct jobs of workload 0, so a wire test can
// execute one chunk directly.
func distinctJobs(n int) []scenario.Job {
	jobs := make([]scenario.Job, n)
	for i := range jobs {
		jobs[i] = scenario.Job{Workload: 0, LoadBits: math.Float64bits(0.001 * float64(i+1))}
	}
	return jobs
}

// TestHTTPStreamingExecute pins the NDJSON wire path: an execute against a
// real daemon arrives as multiple outcome lines plus a terminal done line,
// and the concatenated batches are exactly what Execute gathers.
func TestHTTPStreamingExecute(t *testing.T) {
	testutil.CheckGoroutines(t)
	st := seedStore(t, "mdsim", "sleep")
	spec := jitteredSpec()
	profs, err := scenario.ResolveProfiles(context.Background(), spec, st)
	if err != nil {
		t.Fatal(err)
	}
	// One emulation worker makes the runner serial, so the stream's batch
	// boundaries are deterministic: 6 jobs at 2 per line = 3 lines.
	_, base := startServer(t, ServerConfig{Workers: 1, StreamBatch: 2})
	w := NewHTTPWorker(base, nil)
	ctx := context.Background()
	if err := w.Compile(ctx, &CompileRequest{Session: "s", Spec: spec, Profiles: profs}); err != nil {
		t.Fatal(err)
	}
	req := &ExecuteRequest{Session: "s", Seed: spec.Seed, Jobs: distinctJobs(6)}

	want, err := w.Execute(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	var got []*scenario.Outcome
	batches := 0
	err = w.ExecuteStream(ctx, req, func(outs []*scenario.Outcome) error {
		batches++
		got = append(got, outs...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if batches != 3 {
		t.Errorf("stream arrived in %d batches, want 3 (6 jobs, 2 per line)", batches)
	}
	if !bytes.Equal(packOutcomes(nil, got), packOutcomes(nil, want)) {
		t.Errorf("streamed outcomes differ from the gathered execute\nstream: %+v\ngather: %+v", got, want)
	}

	// Pre-stream validation failures must come back as proper statuses with
	// sentinel codes, not as in-band error lines.
	err = w.ExecuteStream(ctx, &ExecuteRequest{Session: "ghost"}, func([]*scenario.Outcome) error { return nil })
	if !errors.Is(err, ErrNoSession) {
		t.Errorf("unknown session over stream: %v, want ErrNoSession", err)
	}
	err = w.ExecuteStream(ctx, &ExecuteRequest{Session: "s", Seed: spec.Seed ^ 1}, func([]*scenario.Outcome) error { return nil })
	if !errors.Is(err, ErrSeedMismatch) {
		t.Errorf("mismatched seed over stream: %v, want ErrSeedMismatch", err)
	}
}

// TestStreamClientFallbackAndTruncation covers the client against servers
// that do not speak the protocol: a 200 that is not NDJSON is refused — there
// is no second response shape to fall back to — and an NDJSON stream that
// ends without a done line is an error, never a silently short result.
func TestStreamClientFallbackAndTruncation(t *testing.T) {
	ctx := context.Background()
	emitCount := 0
	collect := func(outs []*scenario.Outcome) error { emitCount++; return nil }

	legacy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"packed":""}`)
	}))
	defer legacy.Close()
	err := NewHTTPWorker(legacy.URL, nil).ExecuteStream(ctx, &ExecuteRequest{Session: "s"}, collect)
	if err == nil || !strings.Contains(err.Error(), "not NDJSON") {
		t.Errorf("plain-JSON 200: err = %v, want it refused as not NDJSON", err)
	}
	if emitCount != 0 {
		t.Errorf("a refused response emitted %d times, want 0", emitCount)
	}

	cut := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, `{"packed":""}`) // a batch line, then EOF: no done line
	}))
	defer cut.Close()
	err = NewHTTPWorker(cut.URL, nil).ExecuteStream(ctx, &ExecuteRequest{Session: "s"}, collect)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("cut stream: err = %v, want truncation error", err)
	}

	short := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, `{"done":true,"n":5}`) // claims 5 outcomes, sent none
	}))
	defer short.Close()
	err = NewHTTPWorker(short.URL, nil).ExecuteStream(ctx, &ExecuteRequest{Session: "s"}, collect)
	if err == nil || !strings.Contains(err.Error(), "done line says") {
		t.Errorf("short stream: err = %v, want count-mismatch error", err)
	}

	inband := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, `{"packed":""}`)
		fmt.Fprintln(w, `{"error":"session evicted mid-chunk","code":"no_session"}`)
	}))
	defer inband.Close()
	err = NewHTTPWorker(inband.URL, nil).ExecuteStream(ctx, &ExecuteRequest{Session: "s"}, collect)
	if !errors.Is(err, ErrNoSession) {
		t.Errorf("in-band stream error: err = %v, want ErrNoSession", err)
	}
}

// secondWriteGate parks the handler on its second body write until released:
// by then the first outcome line has been written and (if the server flushes
// per batch) pushed to the client, while the handler provably has not
// returned. Unwrap keeps the real writer's Flusher reachable.
type secondWriteGate struct {
	http.ResponseWriter
	writes  int
	release <-chan struct{}
}

func (g *secondWriteGate) Write(b []byte) (int, error) {
	if g.writes++; g.writes == 2 {
		<-g.release
	}
	return g.ResponseWriter.Write(b)
}

func (g *secondWriteGate) Unwrap() http.ResponseWriter { return g.ResponseWriter }

// TestHTTPStreamingFlushesPerBatch: the point of NDJSON streaming is that the
// coordinator folds batches while the worker is still computing, so each
// outcome line must reach the client when it is emitted — not when the
// handler returns and net/http flushes its buffer. The handler sits behind
// the RED middleware's status recorder, which must not hide the Flusher.
func TestHTTPStreamingFlushesPerBatch(t *testing.T) {
	testutil.CheckGoroutines(t)
	st := seedStore(t, "mdsim", "sleep")
	spec := jitteredSpec()
	profs, err := scenario.ResolveProfiles(context.Background(), spec, st)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServerConfig{Workers: 1, StreamBatch: 1})
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/execute" {
			w = &secondWriteGate{ResponseWriter: w, release: release}
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()
	defer func() {
		select {
		case <-release:
		default:
			close(release) // never strand the handler on a failed assertion
		}
	}()

	ctx := context.Background()
	if err := NewHTTPWorker(ts.URL, nil).Compile(ctx, &CompileRequest{Session: "s", Spec: spec, Profiles: profs}); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(&ExecuteRequest{Session: "s", Seed: spec.Seed, Jobs: distinctJobs(3)})
	// The client runs beside the test: without per-batch flushing not even
	// the response headers arrive before the handler returns.
	lines := make(chan StreamChunk, 8) // 3 outcome lines + done, never blocks the reader
	go func() {
		defer close(lines)
		resp, err := http.Post(ts.URL+"/v1/execute", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Errorf("execute: %v", err)
			return
		}
		defer resp.Body.Close()
		dec := json.NewDecoder(resp.Body)
		for {
			var line StreamChunk
			if dec.Decode(&line) != nil {
				return
			}
			lines <- line
		}
	}()
	select {
	case first := <-lines:
		if len(first.Packed) != recordSize {
			t.Fatalf("first line = %+v, want one outcome", first)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("first outcome line not readable while the handler is still running: the stream is not flushed per batch")
	}
	close(release)
	var last StreamChunk
	n := 1
	for line := range lines {
		n += len(line.Packed) / recordSize
		last = line
	}
	if !last.Done || last.N != 3 || n != 3 {
		t.Errorf("stream ended with %+v after %d outcomes, want done with 3", last, n)
	}
}
