package storeclnt

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"synapse/internal/chaos"
	"synapse/internal/httpsvc"
	"synapse/internal/profile"
	"synapse/internal/retry"
	"synapse/internal/store"
	"synapse/internal/store/storetest"
	"synapse/internal/storesrv"
	"synapse/internal/testutil"
)

// chaosScript is the fixed fault script the conformance suite runs
// through: response resets and truncations hit only idempotent methods (a
// mangled write reply must surface an error, and the suite asserts write
// errors are real), delay slots slow whatever lands on them, and a short
// blackhole exercises the client's dead-wire handling. Keep-alives are
// disabled in the test client, so every request consumes exactly one
// schedule slot and fault exposure is deterministic per connection index
// (fixed seed). Three killer slots in a cycle of twelve are never adjacent,
// so a sequential caller can never draw two in a row; concurrent callers
// can, which is what the generous attempt budget is for.
const (
	chaosScript = "ok;reset:20@GET,DELETE;ok;delay:2ms;ok;trunc:30@GET,DELETE;ok;ok;hole:30ms@GET;ok;delay:1ms;ok"
	chaosSeed   = 7
)

// chaosRemote boots a real storesrv on a TCP listener, interposes the chaos
// proxy, and returns a client whose every request crosses the faulty wire.
// saw observes the proxy for post-suite stats.
func chaosRemote(t *testing.T, backend store.Store, saw func(*chaos.Proxy)) store.Store {
	t.Helper()
	srv := storesrv.New(backend, storesrv.Config{})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})

	sched := chaos.MustParse(chaosScript)
	sched.Seed = chaosSeed
	p, err := chaos.Start(addr.String(), sched)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	saw(p)

	pol := retry.Default()
	// Killer slots are 3 of 12; under concurrency a request's retries draw
	// effectively random slots, so a deep attempt budget with millisecond
	// backoff makes all-attempts-faulted astronomically unlikely while
	// costing nothing on the happy path.
	pol.Attempts = 12
	pol.BaseDelay = time.Millisecond
	pol.MaxDelay = 20 * time.Millisecond
	return New("http://"+p.Addr(),
		WithHTTPClient(&http.Client{Transport: &http.Transport{DisableKeepAlives: true}}),
		WithRetryPolicy(pol),
		// The scripted fault density far exceeds what a breaker should
		// ride through; its transitions are covered by breaker_test.go.
		WithBreaker(0, 0),
	)
}

// TestRemoteConformanceThroughChaosProxy is the acceptance gate for the
// resilience layer: the full storetest conformance suite — including the
// concurrent and sentinel-error subtests — must pass against a live
// storesrv reached only through a wire that resets, truncates, delays, and
// blackholes responses on a fixed schedule. Correctness may not depend on a
// clean network.
func TestRemoteConformanceThroughChaosProxy(t *testing.T) {
	var mu sync.Mutex
	var proxies []*chaos.Proxy
	mk := func(t *testing.T, backend store.Store) store.Store {
		return chaosRemote(t, backend, func(p *chaos.Proxy) {
			mu.Lock()
			proxies = append(proxies, p)
			mu.Unlock()
		})
	}
	storetest.Run(t, storetest.Factory{
		New: func(t *testing.T) store.Store {
			return mk(t, store.NewSharded(4))
		},
		NewWithLimit: func(t *testing.T, limit int64) store.Store {
			return mk(t, store.NewShardedWithLimit(4, limit))
		},
	})

	var st chaos.Stats
	mu.Lock()
	for _, p := range proxies {
		s := p.Stats()
		st.Conns += s.Conns
		st.Resets += s.Resets
		st.Truncated += s.Truncated
		st.Delayed += s.Delayed
		st.Holes += s.Holes
	}
	mu.Unlock()
	if st.Resets == 0 || st.Truncated == 0 || st.Delayed == 0 {
		t.Fatalf("chaos schedule barely fired (%+v); the suite proved nothing", st)
	}
	t.Logf("conformance passed through %d conns: %d resets, %d truncations, %d delays, %d holes",
		st.Conns, st.Resets, st.Truncated, st.Delayed, st.Holes)
}

// slowReadStore delays backend reads so concurrent requests pile up against
// the server's admission control.
type slowReadStore struct {
	store.Store
	delay time.Duration
}

func (s *slowReadStore) Find(command string, tags map[string]string) (profile.Set, error) {
	time.Sleep(s.delay)
	return s.Store.Find(command, tags)
}

// TestOverloadShedsAndClientHonorsRetryAfter drives a live, capacity-bounded
// storesrv far past its in-flight limit and asserts the whole contract: the
// excess is shed with 429 + Retry-After, the clients back off by at least
// the server's hint and ultimately all succeed, and after drain no
// goroutines leak.
func TestOverloadShedsAndClientHonorsRetryAfter(t *testing.T) {
	testutil.CheckGoroutines(t)

	backend := store.NewSharded(4)
	if err := backend.Put(storetest.MkProfile("hot", nil, 3)); err != nil {
		t.Fatal(err)
	}
	slow := &slowReadStore{Store: backend, delay: 10 * time.Millisecond}
	srv := storesrv.New(slow, storesrv.Config{Config: httpsvc.Config{MaxInFlight: 2, RequestTimeout: 5 * time.Second}})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Record every backoff the policy takes instead of sleeping through it:
	// the test asserts the client honored the server's Retry-After hint
	// without paying wall-clock for a full one-second wait per retry.
	var sleepMu sync.Mutex
	var sleeps []time.Duration
	pol := retry.Default()
	pol.Attempts = 40 // the herd must eventually get through
	pol.BaseDelay = time.Millisecond
	pol.MaxDelay = 5 * time.Millisecond
	pol.Sleep = func(ctx context.Context, d time.Duration) error {
		sleepMu.Lock()
		sleeps = append(sleeps, d)
		sleepMu.Unlock()
		// A token wait keeps the herd from busy-spinning the server.
		select {
		case <-time.After(time.Millisecond):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}

	const clients = 12
	remotes := make([]*Remote, clients)
	for i := range remotes {
		remotes[i] = New("http://"+addr.String(),
			WithRetryPolicy(pol),
			WithCacheSize(0), // every Find must hit the wire
			WithBreaker(0, 0),
		)
	}

	var wg sync.WaitGroup
	var failures atomic.Int64
	for _, r := range remotes {
		wg.Add(1)
		go func(r *Remote) {
			defer wg.Done()
			if _, err := r.Find("hot", nil); err != nil {
				failures.Add(1)
				t.Errorf("overloaded read never recovered: %v", err)
			}
		}(r)
	}
	wg.Wait()

	var totalShed int64
	for _, r := range remotes {
		totalShed += r.Stats().Shed429
		r.Close()
	}
	_, srvShed := srv.Counters()
	if srvShed == 0 || totalShed == 0 {
		t.Fatalf("no shedding happened (server=%d client=%d); the test proved nothing",
			srvShed, totalShed)
	}
	// The server's Retry-After: 1s hint must dominate the policy's own
	// millisecond-scale backoff in at least every shed retry.
	sleepMu.Lock()
	var honored int
	for _, d := range sleeps {
		if d >= time.Second {
			honored++
		}
	}
	sleepMu.Unlock()
	if honored == 0 {
		t.Fatal("client never backed off by the server's Retry-After hint")
	}
	if int64(honored) < totalShed {
		t.Fatalf("shed %d times but only %d hint-length backoffs recorded", totalShed, honored)
	}

	// Drain the server; the leak check registered up top verifies nothing
	// survives it.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}
