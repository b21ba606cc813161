package main

import (
	"context"
	"fmt"
	"io"
	"math/bits"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"synapse/internal/dist"
	"synapse/internal/scenario"
	"synapse/internal/telemetry"
)

// span is one timed call into a layer: name, interval, the span that caused
// it and the pass (run id) it belongs to.
type span struct {
	name       string
	run        int
	parent     int  // index into recorder.spans; -1 for a pass's root
	bulk       bool // one of many per-call spans, drawn on their own track
	start, end time.Duration
}

// maxBulkSpans caps the per-call spans (executor calls, worker RPCs, store
// operations) kept per pass; calls beyond it are only counted.
const maxBulkSpans = 1024

// recorder keeps spans in memory until the benchmark ends. Layer-boundary
// spans are few and always kept; bulk spans are capped per pass.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	bulk  map[int]int // pass → bulk spans kept
	notes []string    // aggregate lines for calls beyond the cap
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), bulk: map[int]int{}}
}

func (r *recorder) begin(name string, run, parent int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, run: run, parent: parent, start: time.Since(r.t0)})
	return len(r.spans) - 1
}

// beginBulk is begin for per-call spans; it returns -1 once the pass has
// its share, and end(-1) is a no-op.
func (r *recorder) beginBulk(name string, run, parent int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.bulk[run] >= maxBulkSpans {
		return -1
	}
	r.bulk[run]++
	r.spans = append(r.spans, span{name: name, run: run, parent: parent, bulk: true, start: time.Since(r.t0)})
	return len(r.spans) - 1
}

// end closes the span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if id < 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id]
	s.end = time.Since(r.t0)
	return s.end - s.start
}

// timed runs fn inside a span and returns the span's duration in seconds.
func (r *recorder) timed(name string, run, parent int, fn func() error) (float64, error) {
	id := r.begin(name, run, parent)
	err := fn()
	return r.end(id).Seconds(), err
}

// write renders the spans as Chrome trace JSON: one process per pass,
// layer-boundary spans on track 0, per-call spans on track 1.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	tw := telemetry.NewTraceWriter(f)
	r.mu.Lock()
	for id, s := range r.spans {
		tid := 0
		if s.bulk {
			tid = 1
		}
		tw.Complete(s.name, "bench", s.run, tid, s.start, s.end-s.start,
			fmt.Sprintf(`{"id":%d,"parent":%d}`, id, s.parent))
	}
	for _, n := range r.notes {
		tw.Instant(n, "bench", 0, 0, 0, "g", "")
	}
	r.mu.Unlock()
	if err := tw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// execStats is what the executor seam saw during one scenario.Run.
type execStats struct {
	calls, jobs, maxBatch int
	busy                  time.Duration
	perWorkload           []int   // jobs by the spec's workload index
	hist                  [24]int // calls by batch size, bucket = bit length
}

// timedExec decorates the executor a run uses: it times every call and
// counts the jobs, which is how executor busy time and the scenario
// engine's own (self) time are told apart from outside the engine.
type timedExec struct {
	inner  scenario.Executor
	name   string
	rec    *recorder
	run    int
	parent int
	st     execStats
}

// spanKey carries the calling executor span to the worker decorators, so an
// RPC span names the executor call that caused it.
type spanKey struct{}

func (e *timedExec) observe(ctx context.Context, jobs []scenario.Job, fn func(context.Context) error) error {
	id := e.rec.beginBulk(e.name, e.run, e.parent)
	cause := id
	if cause < 0 {
		cause = e.parent
	}
	t0 := time.Now()
	err := fn(context.WithValue(ctx, spanKey{}, cause))
	e.st.busy += time.Since(t0)
	e.rec.end(id)
	e.st.calls++
	e.st.jobs += len(jobs)
	e.st.maxBatch = max(e.st.maxBatch, len(jobs))
	e.st.hist[min(bits.Len(uint(len(jobs))), len(e.st.hist)-1)]++
	for _, j := range jobs {
		if j.Workload >= 0 && j.Workload < len(e.st.perWorkload) {
			e.st.perWorkload[j.Workload]++
		}
	}
	return err
}

func (e *timedExec) ExecuteJobs(ctx context.Context, jobs []scenario.Job) (outs []*scenario.Outcome, err error) {
	err = e.observe(ctx, jobs, func(ctx context.Context) error {
		outs, err = e.inner.ExecuteJobs(ctx, jobs)
		return err
	})
	return outs, err
}

// timedStreamExec keeps the streaming face of the executor it wraps, so a
// coordinator behind the decorator still folds incrementally.
type timedStreamExec struct {
	*timedExec
	stream scenario.StreamingExecutor
}

func (e *timedStreamExec) ExecuteJobsStream(ctx context.Context, jobs []scenario.Job, sink func(int, []*scenario.Outcome) error) error {
	return e.observe(ctx, jobs, func(ctx context.Context) error { return e.stream.ExecuteJobsStream(ctx, jobs, sink) })
}

// rpcStats gathers the client-observed time of every execute RPC.
type rpcStats struct {
	mu   sync.Mutex
	ms   []float64
	jobs int
}

// timedWorker decorates one fleet member, forwarding ExecuteStream so the
// coordinator keeps using the NDJSON streaming path.
type timedWorker struct {
	inner *dist.HTTPWorker
	st    *rpcStats
	rec   *recorder
	run   int
}

// cause is the executor span the context was handed down from.
func cause(ctx context.Context) int {
	if id, ok := ctx.Value(spanKey{}).(int); ok {
		return id
	}
	return -1
}

func (w *timedWorker) Name() string { return w.inner.Name() }

func (w *timedWorker) Compile(ctx context.Context, req *dist.CompileRequest) error {
	id := w.rec.beginBulk("dist.compile_rpc", w.run, cause(ctx))
	defer w.rec.end(id)
	return w.inner.Compile(ctx, req)
}

func (w *timedWorker) observe(ctx context.Context, n int, fn func() error) error {
	id := w.rec.beginBulk("dist.execute_rpc", w.run, cause(ctx))
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	w.rec.end(id)
	w.st.mu.Lock()
	w.st.ms = append(w.st.ms, float64(d)/1e6)
	w.st.jobs += n
	w.st.mu.Unlock()
	return err
}

func (w *timedWorker) Execute(ctx context.Context, req *dist.ExecuteRequest) (outs []*scenario.Outcome, err error) {
	err = w.observe(ctx, len(req.Jobs), func() error {
		outs, err = w.inner.Execute(ctx, req)
		return err
	})
	return outs, err
}

func (w *timedWorker) ExecuteStream(ctx context.Context, req *dist.ExecuteRequest, emit func([]*scenario.Outcome) error) error {
	return w.observe(ctx, len(req.Jobs), func() error { return w.inner.ExecuteStream(ctx, req, emit) })
}

// countingTransport counts the bytes the coordinator's HTTP client puts on
// and takes off the wire (bodies only).
type countingTransport struct {
	base      http.RoundTripper
	req, resp atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.ContentLength > 0 {
		c.req.Add(r.ContentLength)
	}
	resp, err := c.base.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.resp}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
