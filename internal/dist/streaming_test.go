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
// real daemon arrives as an outcome line plus a terminal done line, and the
// concatenated batches are exactly what Execute gathers.
func TestHTTPStreamingExecute(t *testing.T) {
	testutil.CheckGoroutines(t)
	st := seedStore(t, "mdsim", "sleep")
	spec := jitteredSpec()
	profs, err := scenario.ResolveProfiles(context.Background(), spec, st)
	if err != nil {
		t.Fatal(err)
	}
	_, base := startServer(t, ServerConfig{Workers: 1})
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
	if batches != 1 {
		t.Errorf("stream arrived in %d batches, want 1 (6 jobs fit one %d-record line)", batches, lineRecords)
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

// TestHTTPExecuteLinesBounded pins the response framing: a chunk larger than
// a line is answered in lines of at most lineRecords packed records that sum
// to the job count, closed by a done line echoing it — and the outcomes are
// the ones the in-process worker computes.
func TestHTTPExecuteLinesBounded(t *testing.T) {
	testutil.CheckGoroutines(t)
	st := seedStore(t, "mdsim", "sleep")
	spec := jitteredSpec()
	ctx := context.Background()
	profs, err := scenario.ResolveProfiles(ctx, spec, st)
	if err != nil {
		t.Fatal(err)
	}
	creq := &CompileRequest{Session: "s", Spec: spec, Profiles: profs}
	const n = 200
	req := &ExecuteRequest{Session: "s", Seed: spec.Seed, Jobs: distinctJobs(n)}

	local := NewLocalWorker("local", 0)
	if err := local.Compile(ctx, creq); err != nil {
		t.Fatal(err)
	}
	want, err := local.Execute(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	_, base := startServer(t, ServerConfig{})
	if err := NewHTTPWorker(base, nil).Compile(ctx, creq); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/execute", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var got []byte
	var last StreamChunk
	lines := 0
	for dec := json.NewDecoder(resp.Body); ; lines++ {
		var line StreamChunk
		if err := dec.Decode(&line); err != nil {
			break
		}
		if last.Done {
			t.Errorf("line after the done line: %+v", line)
		}
		if len(line.Packed) > lineRecords*recordSize {
			t.Errorf("line %d packs %d records, limit %d", lines, len(line.Packed)/recordSize, lineRecords)
		}
		got = append(got, line.Packed...)
		last = line
	}
	if wantLines := (n+lineRecords-1)/lineRecords + 1; lines != wantLines {
		t.Errorf("response has %d lines, want %d", lines, wantLines)
	}
	if !last.Done || last.N != n || len(got) != n*recordSize {
		t.Errorf("stream ended with %+v after %d records, want done with n = %d", last, len(got)/recordSize, n)
	}
	if !bytes.Equal(got, packOutcomes(nil, want)) {
		t.Error("records on the wire differ from LocalWorker.Execute's outcomes")
	}
}
