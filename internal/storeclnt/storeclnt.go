// Package storeclnt is the wire client for the synapsed profile service: a
// Remote type that implements store.Store over HTTP, so profilers and
// emulators on different hosts share one profile database transparently —
// the paper's "profile once, emulate anywhere" workflow (§4).
//
// Remote keeps connections alive across calls (one http.Transport) and
// serves repeated reads of hot keys from a singleflight-deduplicated LRU
// cache revalidated by generation ETags. On top of that sits the resilience
// layer:
//
//   - every request runs under an internal/retry policy — exponential
//     backoff with full jitter, per-attempt and overall deadlines, retry
//     budgets, and Retry-After honoring — instead of a hand-rolled loop;
//   - each endpoint is guarded by a circuit breaker (closed/open/half-open
//     with single probes), so a dead daemon fails fast instead of burning a
//     connect timeout per call;
//   - while the breaker is open, reads degrade gracefully: cached entries
//     are served stale, generation-stamped and flagged (FindDetailed);
//   - idempotent GETs can be hedged (WithHedge): if the primary response is
//     slower than the recent p95, a second request races it, the first
//     result wins, and the loser is canceled.
package storeclnt

import (
	"bytes"
	"compress/gzip"
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"synapse/internal/httpsvc"
	"synapse/internal/profile"
	"synapse/internal/retry"
	"synapse/internal/stats"
	"synapse/internal/store"
	"synapse/internal/storesrv"
	"synapse/internal/telemetry"
)

// Defaults, overridable through Options.
const (
	DefaultCacheSize = 128
	DefaultRetries   = 3
	// DefaultTimeout is the overall per-call deadline applied when the
	// caller's context has none (WithTimeout overrides; <= 0 disables).
	DefaultTimeout = 30 * time.Second
	// DefaultBreakerThreshold consecutive failures open an endpoint's
	// circuit; DefaultBreakerCooldown later a probe is allowed through.
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 2 * time.Second
	// defaultHedgeDelay is used until enough latency samples exist to
	// compute a p95, and hedgeFloor bounds the adaptive delay below.
	defaultHedgeDelay = 100 * time.Millisecond
	hedgeFloor        = time.Millisecond
	// gzipThreshold is the body size above which uploads are compressed.
	gzipThreshold = 1 << 10
)

// Option configures a Remote.
type Option func(*Remote)

// WithHTTPClient substitutes the HTTP client (tests, custom transports).
func WithHTTPClient(hc *http.Client) Option { return func(r *Remote) { r.hc = hc } }

// WithCacheSize bounds the read cache to n keys (0 disables caching).
func WithCacheSize(n int) Option { return func(r *Remote) { r.cacheCap = n } }

// WithRetries bounds retransmissions of idempotent requests (0 disables).
func WithRetries(n int) Option {
	return func(r *Remote) { r.policy.Attempts = n + 1 }
}

// WithRetryPolicy replaces the whole retry policy (backoff shape, deadlines,
// classifier-independent knobs). The client still installs its own error
// classifier.
func WithRetryPolicy(p retry.Policy) Option { return func(r *Remote) { r.policy = p } }

// WithRetryBudget shares a token-bucket retry budget across this client's
// calls (and, if the same *Budget is passed to several clients, across a
// fleet): when the bucket empties, retries stop instead of piling on.
func WithRetryBudget(b *retry.Budget) Option { return func(r *Remote) { r.policy.Budget = b } }

// WithTimeout sets the overall per-call deadline used when the caller's
// context has none. d <= 0 disables the default deadline entirely.
func WithTimeout(d time.Duration) Option { return func(r *Remote) { r.timeout = d } }

// WithBreaker tunes the per-endpoint circuit breaker: threshold consecutive
// failures open it, and a probe is admitted after cooldown. threshold <= 0
// disables the breaker.
func WithBreaker(threshold int, cooldown time.Duration) Option {
	return func(r *Remote) { r.brkThreshold, r.brkCooldown = threshold, cooldown }
}

// WithHedge enables hedged idempotent GETs: when the primary request is
// slower than the recent 95th-percentile latency, a second identical
// request races it and the first response wins. Off by default because a
// hedge duplicates read traffic.
func WithHedge(enabled bool) Option { return func(r *Remote) { r.hedgeEnabled = enabled } }

// WithHedgeDelay fixes the hedge trigger delay instead of adapting it to
// the observed p95 (useful for tests and known-latency links).
func WithHedgeDelay(d time.Duration) Option { return func(r *Remote) { r.hedgeFixed = d } }

// WithStaleReads controls breaker-open degradation: when enabled (default),
// an open circuit serves cached entries stale (flagged via FindDetailed)
// instead of failing reads.
func WithStaleReads(enabled bool) Option { return func(r *Remote) { r.staleReads = enabled } }

// withBreakerClock injects the breaker's clock (tests).
func withBreakerClock(now func() time.Time) Option {
	return func(r *Remote) { r.brkClock = now }
}

// Stats are cumulative per-client resilience counters.
type Stats struct {
	Retries      int64 // attempts beyond the first
	Hedges       int64 // hedge requests launched
	HedgeWins    int64 // hedges whose response was used
	StaleServes  int64 // reads served from cache while the breaker was open
	Shed429      int64 // responses shed by the server with 429
	BreakerOpens int64 // circuit-open transitions across endpoints
}

// Remote is a store.Store whose backend lives in a synapsed daemon.
// Construct with New. Safe for concurrent use.
type Remote struct {
	base     string
	hc       *http.Client
	policy   retry.Policy
	timeout  time.Duration
	cacheCap int

	staleReads bool

	brkThreshold int
	brkCooldown  time.Duration
	brkClock     func() time.Time
	brkMu        sync.Mutex
	breakers     map[string]*breaker

	hedgeEnabled bool
	hedgeFixed   time.Duration
	lat          stats.LatencyRing // recent GET latencies feeding the adaptive hedge delay

	// met holds the resilience counters; Stats() reads them. metricsReg is
	// the registry they register into (WithMetrics; nil gets a private one).
	metricsReg *telemetry.Registry
	met        *clientMetrics

	// Read cache: key -> cacheEntry, LRU-evicted at cacheCap.
	cacheMu sync.Mutex
	cache   map[string]*list.Element
	lru     *list.List // front = most recent; values are *cacheEntry

	// Singleflight: one in-flight fetch per key; latecomers wait and share.
	flightMu sync.Mutex
	flight   map[string]*flightCall
}

type cacheEntry struct {
	key  string
	etag string
	set  profile.Set
}

// Freshness qualifies a read's provenance.
type Freshness struct {
	// Stale is set when the result came from the local cache because the
	// endpoint's circuit breaker was open.
	Stale bool
	// ETag is the server generation stamp of the entry served (also set
	// for fresh reads).
	ETag string
}

type flightCall struct {
	done  chan struct{}
	set   profile.Set
	fresh Freshness
	err   error
}

// New returns a client for the service at base (e.g. "http://host:8181").
func New(base string, opts ...Option) *Remote {
	pol := retry.Default()
	pol.Attempts = DefaultRetries + 1
	r := &Remote{
		base:         strings.TrimRight(base, "/"),
		hc:           &http.Client{},
		policy:       pol,
		timeout:      DefaultTimeout,
		cacheCap:     DefaultCacheSize,
		staleReads:   true,
		brkThreshold: DefaultBreakerThreshold,
		brkCooldown:  DefaultBreakerCooldown,
		breakers:     map[string]*breaker{},
		cache:        map[string]*list.Element{},
		lru:          list.New(),
		flight:       map[string]*flightCall{},
	}
	for _, o := range opts {
		o(r)
	}
	reg := r.metricsReg
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	r.met = newClientMetrics(r, reg)
	return r
}

// Open resolves a CLI -store flag value: an http(s):// URL connects to a
// running synapsed daemon, anything else opens a local file-store
// directory. Shared by every command so the flag's meaning cannot drift
// between binaries.
func Open(dirOrURL string) (store.Store, error) {
	if strings.HasPrefix(dirOrURL, "http://") || strings.HasPrefix(dirOrURL, "https://") {
		return New(dirOrURL), nil
	}
	return store.NewFile(dirOrURL)
}

// Stats snapshots the resilience counters. It is a view over the client's
// registered instruments: the same series a WithMetrics registry exposes at
// /v1/metrics, read back as a struct.
func (r *Remote) Stats() Stats {
	return Stats{
		Retries:      r.met.retries.Value(),
		Hedges:       r.met.hedges.Value(),
		HedgeWins:    r.met.hedgeWins.Value(),
		StaleServes:  r.met.staleReads.Value(),
		Shed429:      r.met.shed429.Value(),
		BreakerOpens: r.met.breakerOpens.Value(),
	}
}

// remoteError reconstructs sentinel errors from a structured error response
// so errors.Is(err, store.ErrNotFound/ErrDocTooLarge) holds across the wire.
func remoteError(status int, body []byte) error {
	er, ok := httpsvc.DecodeError(body)
	if !ok {
		return fmt.Errorf("storeclnt: server returned HTTP %d: %s", status, er.Error)
	}
	return sentinel(er.Code, er.Error)
}

// sentinel maps the service's error codes onto the store's sentinel errors,
// for a whole-response envelope and a batch item alike.
func sentinel(code, msg string) error {
	switch code {
	case storesrv.CodeNotFound:
		return fmt.Errorf("%w: %s", store.ErrNotFound, msg)
	case storesrv.CodeDocTooLarge:
		return fmt.Errorf("%w: %s", store.ErrDocTooLarge, msg)
	default:
		// The server's message carries its own prefix, and do() wraps with
		// the endpoint; adding another package prefix here just stutters.
		return errors.New(msg)
	}
}

// terminalError marks an error that must not be retried.
type terminalError struct{ err error }

func (t *terminalError) Error() string { return t.err.Error() }
func (t *terminalError) Unwrap() error { return t.err }

func terminal(err error) error { return &terminalError{err: err} }

// classify implements the client's retry taxonomy: circuit-open and
// explicitly terminal errors stop the loop, everything else (transport
// failures, 5xx, 429) is transient.
func classify(err error) retry.Class {
	var te *terminalError
	if errors.As(err, &te) || errors.Is(err, ErrCircuitOpen) {
		return retry.Terminal
	}
	return retry.Transient
}

// call is one wire request, rebuildable per attempt (and per hedge).
type call struct {
	method     string
	url        string
	endpoint   string // breaker key: METHOD + path (no query)
	body       []byte
	header     map[string]string
	idempotent bool
	hedgeable  bool
}

// newCall builds a call for pathAndQuery (e.g. "/v1/profiles?key=k").
func (r *Remote) newCall(method, pathAndQuery string, body []byte) *call {
	path := pathAndQuery
	if q := strings.IndexByte(path, '?'); q >= 0 {
		path = path[:q]
	}
	idem := method == http.MethodGet || method == http.MethodDelete
	return &call{
		method:     method,
		url:        r.base + pathAndQuery,
		endpoint:   method + " " + path,
		body:       body,
		header:     map[string]string{},
		idempotent: idem,
		hedgeable:  method == http.MethodGet,
	}
}

// response is a fully-read reply: reading the body inside the retry loop
// makes truncated responses retryable like any other transport fault.
type response struct {
	status int
	header http.Header
	body   []byte
}

// roundTrip performs one attempt of c and reads the entire body.
func (r *Remote) roundTrip(ctx context.Context, c *call) (*response, error) {
	var rd io.Reader
	if c.body != nil {
		rd = bytes.NewReader(c.body)
	}
	req, err := http.NewRequestWithContext(ctx, c.method, c.url, rd)
	if err != nil {
		return nil, terminal(err)
	}
	for k, v := range c.header {
		req.Header.Set(k, v)
	}
	start := time.Now()
	resp, err := r.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("storeclnt: read response body: %w", err)
	}
	if c.hedgeable && resp.StatusCode < 500 {
		r.lat.Observe(time.Since(start))
	}
	return &response{status: resp.StatusCode, header: resp.Header, body: data}, nil
}

// hedgeDelay returns how long the primary GET may run before a hedge
// launches: the fixed override, or the p95 of recent request latencies.
func (r *Remote) hedgeDelay() time.Duration {
	if r.hedgeFixed > 0 {
		return r.hedgeFixed
	}
	p95, warm := r.lat.P95()
	if !warm {
		return defaultHedgeDelay
	}
	return max(p95, hedgeFloor)
}

// attempt performs one policy attempt, racing a hedge for slow hedgeable
// GETs. Exactly one response is returned; the loser's request context is
// canceled.
func (r *Remote) attempt(ctx context.Context, c *call) (*response, error) {
	if !r.hedgeEnabled || !c.hedgeable {
		return r.roundTrip(ctx, c)
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel() // cancels the losing hedge
	type outcome struct {
		rs  *response
		err error
		i   int
	}
	ch := make(chan outcome, 2)
	run := func(i int) {
		rs, err := r.roundTrip(hctx, c)
		ch <- outcome{rs, err, i}
	}
	go run(0)
	launched, done := 1, 0
	timer := time.NewTimer(r.hedgeDelay())
	defer timer.Stop()
	var firstErr error
	for {
		select {
		case o := <-ch:
			done++
			if o.err == nil {
				if o.i == 1 {
					r.met.hedgeWins.Inc()
				}
				return o.rs, nil
			}
			if firstErr == nil {
				firstErr = o.err
			}
			if done == launched {
				return nil, firstErr
			}
		case <-timer.C:
			if launched < 2 {
				r.met.hedges.Inc()
				launched++
				go run(1)
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// do issues c under the full resilience stack: overall deadline, circuit
// breaker, retry policy with jittered backoff, Retry-After honoring, and
// (for hedgeable calls) hedging. On success the returned response has a
// status the caller still interprets (200/204/304/4xx); 429 and 5xx are
// consumed by the retry loop.
func (r *Remote) do(ctx context.Context, c *call) (*response, error) {
	if _, has := ctx.Deadline(); !has && r.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.timeout)
		defer cancel()
	}
	pol := r.policy
	pol.Classify = classify
	var out *response
	attemptNo := 0
	err := pol.Do(ctx, func(actx context.Context) error {
		if attemptNo++; attemptNo > 1 {
			r.met.retries.Inc()
		}
		br := r.breakerFor(c.endpoint)
		if _, ok := br.allow(); !ok {
			return circuitErr(c.endpoint)
		}
		rs, err := r.attempt(actx, c)
		if err != nil {
			if classify(err) == retry.Terminal {
				return err
			}
			br.onFailure()
			if !c.idempotent {
				// A lost write may have landed; retrying could duplicate it.
				return terminal(fmt.Errorf("%w (not retried: non-idempotent)", err))
			}
			return err
		}
		switch {
		case rs.status == http.StatusTooManyRequests:
			// The server shed the request before executing it: safe to
			// retry any method, after the server's own hint.
			br.onSuccess() // alive, just overloaded
			r.met.shed429.Inc()
			return retry.After(remoteError(rs.status, rs.body), httpsvc.RetryAfter(rs.header))
		case rs.status >= 500:
			br.onFailure()
			err := retry.After(remoteError(rs.status, rs.body), httpsvc.RetryAfter(rs.header))
			if !c.idempotent {
				return terminal(err)
			}
			return err
		default:
			br.onSuccess()
			out = rs
			return nil
		}
	})
	if err != nil {
		return nil, fmt.Errorf("storeclnt: %s failed: %w", c.endpoint, err)
	}
	return out, nil
}

// encodeUpload marshals v, gzip-compressing large bodies, and returns the
// payload plus the Content-Encoding header value ("" when uncompressed).
func encodeUpload(v any) (payload []byte, encoding string, err error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, "", fmt.Errorf("storeclnt: encode: %w", err)
	}
	if len(data) < gzipThreshold {
		return data, "", nil
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		return nil, "", err
	}
	if err := zw.Close(); err != nil {
		return nil, "", err
	}
	return buf.Bytes(), "gzip", nil
}

// Put implements Store: a strict put that fails with ErrDocTooLarge when the
// backend's document limit would be exceeded.
func (r *Remote) Put(p *profile.Profile) error {
	_, err := r.put(context.Background(), p, false)
	return err
}

// PutCtx is Put under the caller's context deadline.
func (r *Remote) PutCtx(ctx context.Context, p *profile.Profile) error {
	_, err := r.put(ctx, p, false)
	return err
}

// PutTruncated implements store.Truncator over the wire (?truncate=1).
func (r *Remote) PutTruncated(p *profile.Profile) (dropped int, err error) {
	return r.put(context.Background(), p, true)
}

func (r *Remote) put(ctx context.Context, p *profile.Profile, truncate bool) (int, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	payload, encoding, err := encodeUpload(p)
	if err != nil {
		return 0, err
	}
	path := "/v1/profiles"
	if truncate {
		path += "?truncate=1"
	}
	c := r.newCall(http.MethodPut, path, payload)
	c.header["Content-Type"] = "application/json"
	if encoding != "" {
		c.header["Content-Encoding"] = encoding
	}
	resp, err := r.do(ctx, c)
	if err != nil {
		return 0, err
	}
	if resp.status != http.StatusOK {
		return 0, remoteError(resp.status, resp.body)
	}
	var pr storesrv.PutResponse
	if err := json.Unmarshal(resp.body, &pr); err != nil {
		return 0, fmt.Errorf("storeclnt: decode put response: %w", err)
	}
	r.invalidate(p.Key())
	return pr.Dropped, nil
}

// PutBatch stores several profiles in one round trip and returns the
// per-profile outcomes in submission order (nil error for stored items).
func (r *Remote) PutBatch(ps []*profile.Profile, truncate bool) ([]error, error) {
	payload, encoding, err := encodeUpload(storesrv.BatchRequest{Profiles: ps, Truncate: truncate})
	if err != nil {
		return nil, err
	}
	c := r.newCall(http.MethodPost, "/v1/profiles:batch", payload)
	c.header["Content-Type"] = "application/json"
	if encoding != "" {
		c.header["Content-Encoding"] = encoding
	}
	resp, err := r.do(context.Background(), c)
	if err != nil {
		return nil, err
	}
	if resp.status != http.StatusOK {
		return nil, remoteError(resp.status, resp.body)
	}
	var br storesrv.BatchResponse
	if err := json.Unmarshal(resp.body, &br); err != nil {
		return nil, fmt.Errorf("storeclnt: decode batch response: %w", err)
	}
	if len(br.Results) != len(ps) {
		return nil, fmt.Errorf("storeclnt: batch returned %d results for %d profiles",
			len(br.Results), len(ps))
	}
	outcomes := make([]error, len(ps))
	for i, item := range br.Results {
		if item.Error == "" {
			r.invalidate(ps[i].Key())
			continue
		}
		outcomes[i] = sentinel(item.Code, item.Error)
	}
	return outcomes, nil
}

// Find implements Store. Concurrent Finds of one key share a single wire
// fetch; cache hits cost at most a bodyless revalidation round trip.
func (r *Remote) Find(command string, tags map[string]string) (profile.Set, error) {
	return r.FindCtx(context.Background(), command, tags)
}

// FindCtx is Find under the caller's context deadline (store.ContextFinder).
func (r *Remote) FindCtx(ctx context.Context, command string, tags map[string]string) (profile.Set, error) {
	set, _, err := r.FindDetailed(ctx, command, tags)
	return set, err
}

// FindDetailed is FindCtx plus provenance: Freshness.Stale reports that the
// result was served from the cache because the endpoint's breaker was open.
func (r *Remote) FindDetailed(ctx context.Context, command string, tags map[string]string) (profile.Set, Freshness, error) {
	key := profile.Key(command, tags)
	set, fresh, err := r.findShared(ctx, key)
	if err != nil {
		return nil, fresh, err
	}
	// Hand every caller its own copy: cached profiles must not alias.
	out := make(profile.Set, len(set))
	for i, p := range set {
		out[i] = p.Clone()
	}
	return out, fresh, nil
}

// findShared deduplicates concurrent fetches of one key.
func (r *Remote) findShared(ctx context.Context, key string) (profile.Set, Freshness, error) {
	r.flightMu.Lock()
	if c, ok := r.flight[key]; ok {
		r.flightMu.Unlock()
		<-c.done
		return c.set, c.fresh, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	r.flight[key] = c
	r.flightMu.Unlock()

	c.set, c.fresh, c.err = r.fetch(ctx, key)
	close(c.done)

	r.flightMu.Lock()
	delete(r.flight, key)
	r.flightMu.Unlock()
	return c.set, c.fresh, c.err
}

// fetch performs the conditional GET for key, consulting and updating the
// LRU cache, and degrading to a stale cache entry when the circuit is open.
func (r *Remote) fetch(ctx context.Context, key string) (profile.Set, Freshness, error) {
	cached, etag := r.cached(key)
	c := r.newCall(http.MethodGet, "/v1/profiles?key="+url.QueryEscape(key), nil)
	if etag != "" {
		c.header["If-None-Match"] = etag
	}
	resp, err := r.do(ctx, c)
	if err != nil {
		if r.staleReads && cached != nil && errors.Is(err, ErrCircuitOpen) {
			r.met.staleReads.Inc()
			return cached, Freshness{Stale: true, ETag: etag}, nil
		}
		return nil, Freshness{}, err
	}
	if resp.status == http.StatusNotModified && cached != nil {
		return cached, Freshness{ETag: etag}, nil
	}
	if resp.status != http.StatusOK {
		return nil, Freshness{}, remoteError(resp.status, resp.body)
	}
	var set profile.Set
	if err := json.Unmarshal(resp.body, &set); err != nil {
		return nil, Freshness{}, fmt.Errorf("storeclnt: decode profiles: %w", err)
	}
	for _, p := range set {
		if err := p.Validate(); err != nil {
			return nil, Freshness{}, fmt.Errorf("storeclnt: profile for key %q invalid: %w", key, err)
		}
	}
	newTag := resp.header.Get("ETag")
	r.store(key, newTag, set)
	return set, Freshness{ETag: newTag}, nil
}

// cached returns the cached set and its ETag, refreshing recency.
func (r *Remote) cached(key string) (profile.Set, string) {
	r.cacheMu.Lock()
	defer r.cacheMu.Unlock()
	el, ok := r.cache[key]
	if !ok {
		return nil, ""
	}
	r.lru.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return e.set, e.etag
}

// store inserts or refreshes a cache entry, evicting the LRU tail.
func (r *Remote) store(key, etag string, set profile.Set) {
	if r.cacheCap <= 0 || etag == "" {
		return
	}
	r.cacheMu.Lock()
	defer r.cacheMu.Unlock()
	if el, ok := r.cache[key]; ok {
		r.lru.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		e.etag, e.set = etag, set
		return
	}
	r.cache[key] = r.lru.PushFront(&cacheEntry{key: key, etag: etag, set: set})
	for r.lru.Len() > r.cacheCap {
		tail := r.lru.Back()
		r.lru.Remove(tail)
		delete(r.cache, tail.Value.(*cacheEntry).key)
	}
}

// invalidate drops key from the cache (after local writes).
func (r *Remote) invalidate(key string) {
	r.cacheMu.Lock()
	defer r.cacheMu.Unlock()
	if el, ok := r.cache[key]; ok {
		r.lru.Remove(el)
		delete(r.cache, key)
	}
}

// CacheLen reports the number of cached keys (observability, tests).
func (r *Remote) CacheLen() int {
	r.cacheMu.Lock()
	defer r.cacheMu.Unlock()
	return r.lru.Len()
}

// Keys implements Store.
func (r *Remote) Keys() ([]string, error) {
	return r.KeysCtx(context.Background())
}

// KeysCtx is Keys under the caller's context deadline.
func (r *Remote) KeysCtx(ctx context.Context) ([]string, error) {
	resp, err := r.do(ctx, r.newCall(http.MethodGet, "/v1/keys", nil))
	if err != nil {
		return nil, err
	}
	if resp.status != http.StatusOK {
		return nil, remoteError(resp.status, resp.body)
	}
	var kr storesrv.KeysResponse
	if err := json.Unmarshal(resp.body, &kr); err != nil {
		return nil, fmt.Errorf("storeclnt: decode keys: %w", err)
	}
	return kr.Keys, nil
}

// Delete implements Store.
func (r *Remote) Delete(command string, tags map[string]string) error {
	return r.DeleteCtx(context.Background(), command, tags)
}

// DeleteCtx is Delete under the caller's context deadline.
func (r *Remote) DeleteCtx(ctx context.Context, command string, tags map[string]string) error {
	key := profile.Key(command, tags)
	resp, err := r.do(ctx, r.newCall(http.MethodDelete, "/v1/profiles?key="+url.QueryEscape(key), nil))
	if err != nil {
		return err
	}
	if resp.status != http.StatusNoContent {
		return remoteError(resp.status, resp.body)
	}
	r.invalidate(key)
	return nil
}

// Close implements Store: it drops cached state and idle connections.
func (r *Remote) Close() error {
	r.cacheMu.Lock()
	r.cache = map[string]*list.Element{}
	r.lru.Init()
	r.cacheMu.Unlock()
	r.hc.CloseIdleConnections()
	return nil
}

var (
	_ store.Store         = (*Remote)(nil)
	_ store.Truncator     = (*Remote)(nil)
	_ store.ContextFinder = (*Remote)(nil)
)
